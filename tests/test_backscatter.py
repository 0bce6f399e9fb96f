import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from oracles import amplitude_ratio_chain

from wptsim import backscatter
from wptsim.backscatter import BackscatterError, BackscatterNode
from wptsim.channel import dbm_to_watt
from wptsim.chirp import ChirpParams, generate_sweep


def reflected_w(p_w):
    """Reflected power at incident power ``p_w``: a² · p."""
    return backscatter.amplitude_ratio(p_w) ** 2 * p_w


def test_curve_ratio_bounds():
    # The power ratio a² reaches the curve's endpoints far below and above
    # its -25 dBm center.
    assert backscatter.amplitude_ratio(dbm_to_watt(-80.0)) ** 2 == pytest.approx(
        backscatter.RATIO_LO, abs=0.01)
    assert backscatter.amplitude_ratio(dbm_to_watt(20.0)) ** 2 == pytest.approx(
        backscatter.RATIO_HI, abs=0.01)


def test_curve_ratio_is_increasing():
    # Unlike a conventional RFID harvester, whose matching network detunes
    # with input power, the customized radio's power ratio never dips.
    grid = np.linspace(-60, 10, 400)
    good = np.array([backscatter.amplitude_ratio(dbm_to_watt(p)) ** 2 for p in grid])
    assert np.all(np.diff(good) > 0)


@given(st.floats(min_value=-55, max_value=5), st.floats(min_value=0.1, max_value=10))
def test_reflected_power_strictly_increasing(p_dbm, step_db):
    assert reflected_w(dbm_to_watt(p_dbm + step_db)) > reflected_w(dbm_to_watt(p_dbm))


@given(st.floats(min_value=1e-9, max_value=1.0))
def test_curve_is_passive(p_w):
    assert 0.0 < reflected_w(p_w) <= p_w


def test_curve_validation():
    # No incident power reflects nothing; a negative power reads as none.
    assert backscatter.amplitude_ratio(0.0) == 0.0
    assert backscatter.amplitude_ratio(-1.0) == 0.0
    with pytest.raises(BackscatterError):
        BackscatterNode().harvest_step(-1.0)


def test_amplitude_ratio_consistent_with_power():
    # One call equals the curve read step by step, through dBm, the power
    # ratio and the reflected power, bit for bit.
    powers = [0.0, 5e-324, 1e-310, *np.logspace(-30, 3, 3301)]
    for p in powers:
        assert backscatter.amplitude_ratio(float(p)) == amplitude_ratio_chain(float(p)), p


def test_node_wakes_at_threshold():
    node = BackscatterNode()
    node.harvest_step(dbm_to_watt(-20.1))
    assert not node.awake
    node.harvest_step(dbm_to_watt(-20.0))
    assert node.awake


def test_awake_node_survives_on_dynamic_draw():
    node = BackscatterNode()
    node.harvest_step(dbm_to_watt(-15.0))
    assert node.awake
    # Power below the wake threshold but above the 42 uW draw keeps it up.
    node.harvest_step(50e-6)
    assert node.awake
    node.harvest_step(10e-6)
    assert not node.awake


def test_asleep_node_reflects_nothing():
    node = BackscatterNode()
    p = ChirpParams()
    out = node.reflect(generate_sweep(p, 1), p.sample_rate_hz)
    assert out.shape == (p.n_samples,) and np.all(out == 0)


def test_reflection_power_follows_curve():
    node = BackscatterNode()
    node.awake = True
    p = ChirpParams()
    amp = 0.01
    sig = amp * generate_sweep(p, 1)
    out = node.reflect(sig, p.sample_rate_hz)
    # Mixing with a real cosine splits the reflected power evenly between the
    # two sidebands: total reflected power is half the curve output.
    want = 0.5 * reflected_w(np.mean(np.abs(sig) ** 2))
    assert np.mean(np.abs(out) ** 2) == pytest.approx(want, rel=0.01)


def test_reflection_lands_on_shift_frequency():
    node = BackscatterNode()
    node.awake = True
    p = ChirpParams()
    n = p.n_samples
    t = np.arange(n) / p.sample_rate_hz
    tone = 0.01 * np.exp(1j * 2 * np.pi * 5e3 * t)
    out = node.reflect(tone, p.sample_rate_hz)
    spec = np.abs(np.fft.fft(out))
    freqs = np.fft.fftfreq(n, 1 / p.sample_rate_hz)
    peaks = freqs[np.argsort(spec)[-2:]]
    assert sorted(np.round(peaks / 1e3)) == [-95.0, 105.0]  # 5 kHz +/- 100 kHz
