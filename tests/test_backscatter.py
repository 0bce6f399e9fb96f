import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wptsim.backscatter import BackscatterError, BackscatterNode, TransferCurve
from wptsim.channel import Position, dbm_to_watt
from wptsim.chirp import ChirpParams, ComplexSignal, generate_chirp


def test_curve_ratio_bounds():
    c = TransferCurve()
    assert c.power_ratio(-80.0) == pytest.approx(c.ratio_lo, abs=0.01)
    assert c.power_ratio(20.0) == pytest.approx(c.ratio_hi, abs=0.01)


def test_curve_is_monotone():
    assert TransferCurve().is_monotone()


def test_monotone_check_is_cached_per_curve_value():
    TransferCurve(center_dbm=-24.5).is_monotone()
    hits = TransferCurve.is_monotone.cache_info().hits
    assert TransferCurve(center_dbm=-24.5).is_monotone()
    assert TransferCurve.is_monotone.cache_info().hits == hits + 1
    assert not TransferCurve(monotonic=False, width_db=0.5).is_monotone()


def test_legacy_curve_ratio_dips():
    # The detuning dip makes the legacy power ratio non-monotonic in input
    # power, unlike the customized radio.
    c = TransferCurve(monotonic=False)
    grid = np.linspace(-60, 10, 400)
    ratios = np.array([c.power_ratio(p) for p in grid])
    assert np.any(np.diff(ratios) < 0)
    good = np.array([TransferCurve().power_ratio(p) for p in grid])
    assert np.all(np.diff(good) > 0)


@given(st.floats(min_value=-55, max_value=5), st.floats(min_value=0.1, max_value=10))
def test_reflected_power_strictly_increasing(p_dbm, step_db):
    c = TransferCurve()
    lo = c.reflected_power_w(dbm_to_watt(p_dbm))
    hi = c.reflected_power_w(dbm_to_watt(p_dbm + step_db))
    assert hi > lo


@given(st.floats(min_value=1e-9, max_value=1.0))
def test_curve_is_passive(p_w):
    c = TransferCurve()
    assert 0.0 < c.reflected_power_w(p_w) <= p_w


def test_curve_validation():
    with pytest.raises(BackscatterError):
        TransferCurve(ratio_lo=0.6, ratio_hi=0.5)
    with pytest.raises(BackscatterError):
        TransferCurve(width_db=0.0)
    with pytest.raises(BackscatterError):
        TransferCurve().reflected_power_w(-1.0)


def test_amplitude_ratio_consistent_with_power():
    c = TransferCurve()
    p = 1e-4
    assert c.amplitude_ratio(p) ** 2 * p == pytest.approx(c.reflected_power_w(p))


def test_normalized_map_fixed_point_and_contraction():
    c = TransferCurve()
    n = 24.0
    assert c.normalized_amplitude_map(n, n) == pytest.approx(n)
    assert c.normalized_amplitude_map(0.0, n) == 0.0
    # Below the optimum the radio compresses the amplitude.
    assert c.normalized_amplitude_map(12.0, n) < 12.0


def test_node_wakes_at_threshold():
    node = BackscatterNode(position=Position(0, 0, 0))
    node.harvest_step(dbm_to_watt(-20.1))
    assert not node.awake
    node.harvest_step(dbm_to_watt(-20.0))
    assert node.awake


def test_awake_node_survives_on_dynamic_draw():
    node = BackscatterNode(position=Position(0, 0, 0))
    node.harvest_step(dbm_to_watt(-15.0))
    assert node.awake
    # Power below the wake threshold but above the 42 uW draw keeps it up.
    node.harvest_step(50e-6)
    assert node.awake
    node.harvest_step(10e-6)
    assert not node.awake


def test_asleep_node_reflects_nothing():
    node = BackscatterNode(position=Position(0, 0, 0))
    sig = generate_chirp(ChirpParams())
    out = node.reflect(sig)
    assert np.all(out.samples == 0)


def test_reflection_power_follows_curve():
    node = BackscatterNode(position=Position(0, 0, 0))
    node.awake = True
    p = ChirpParams()
    amp = 0.01
    sig = ComplexSignal(amp * generate_chirp(p).samples, p.sample_rate_hz)
    out = node.reflect(sig)
    # Mixing with a real cosine splits the reflected power evenly between the
    # two sidebands: total reflected power is half the curve output.
    want = 0.5 * node.transfer_curve.reflected_power_w(sig.power())
    assert out.power() == pytest.approx(want, rel=0.01)


def test_reflection_lands_on_shift_frequency():
    node = BackscatterNode(position=Position(0, 0, 0))
    node.awake = True
    p = ChirpParams()
    n = p.n_samples
    t = np.arange(n) / p.sample_rate_hz
    tone = ComplexSignal(0.01 * np.exp(1j * 2 * np.pi * 5e3 * t), p.sample_rate_hz)
    out = node.reflect(tone)
    spec = np.abs(np.fft.fft(out.samples))
    freqs = np.fft.fftfreq(n, 1 / p.sample_rate_hz)
    peaks = freqs[np.argsort(spec)[-2:]]
    assert sorted(np.round(peaks / 1e3)) == [-95.0, 105.0]  # 5 kHz +/- 100 kHz
