import math

import numpy as np
import pytest

from wptsim.chirp import (
    ChirpParams,
    DspError,
    awgn,
    awgn_power,
    block_mean,
    ccs_correlate,
    fluctuation_bin_hz,
    fluctuation_rate,
    generate_sweep,
    lag_magnitudes,
    median,
    p_ccs0,
)
from oracles import energy


def test_default_params():
    p = ChirpParams()
    assert p.n_samples == 8192
    assert p.slope_hz_per_s == pytest.approx(1e7)


def test_params_validation():
    with pytest.raises(DspError):
        ChirpParams(symbol_time_s=0.0)
    with pytest.raises(DspError):
        ChirpParams(sample_rate_hz=50e3)  # below Nyquist for 40 kHz band
    with pytest.raises(DspError):
        ChirpParams(symbol_time_s=1e-3, sample_rate_hz=1000.5)
    # Above twice the band, but 100.0005 samples per symbol.
    with pytest.raises(DspError, match="positive integer"):
        ChirpParams(symbol_time_s=1e-3, sample_rate_hz=100000.5)
    # A zero bandwidth used to divide by zero in the noise power, a NaN one
    # to fail as "signal contains non-finite samples", and a NaN symbol time
    # as "cannot convert float NaN to integer".
    for field in ("bandwidth_hz", "symbol_time_s", "sample_rate_hz"):
        for value in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DspError, match=field):
                ChirpParams(**{field: value})


@pytest.mark.parametrize("flag", [True, np.True_])
@pytest.mark.parametrize("field", ["bandwidth_hz", "symbol_time_s", "sample_rate_hz"])
def test_params_refuse_a_bool(field, flag):
    # True used to pass as 1: a 1 Hz band, a 1 s symbol or a 1 Hz rate.
    values = {"bandwidth_hz": 1.0, "symbol_time_s": 1.0, "sample_rate_hz": 512.0}
    with pytest.raises(DspError, match=field):
        ChirpParams(**dict(values, **{field: flag}))


def test_chirp_is_unit_modulus():
    sig = generate_sweep(ChirpParams(), 1)
    assert np.allclose(np.abs(sig), 1.0)
    assert energy(sig) == pytest.approx(8192.0)


def test_chirp_sweeps_the_band():
    p = ChirpParams()
    sig = generate_sweep(p, 1)
    inst = np.diff(np.unwrap(np.angle(sig))) * p.sample_rate_hz / (2 * np.pi)
    assert inst[0] == pytest.approx(-p.bandwidth_hz / 2, rel=1e-3)
    assert inst[-1] == pytest.approx(p.bandwidth_hz / 2, rel=1e-3)


def test_sweep_is_single_slope():
    # The long sweep never wraps: its instantaneous frequency is one straight
    # line through all symbols, unlike the tiled symbol train.
    p = ChirpParams(bandwidth_hz=1e3, symbol_time_s=1e-2, sample_rate_hz=51.2e3)
    sw = generate_sweep(p, 4)
    inst = np.diff(np.unwrap(np.angle(sw))) * p.sample_rate_hz / (2 * np.pi)
    fit = np.polyfit(np.arange(inst.size), inst, 1)
    assert fit[0] * p.sample_rate_hz == pytest.approx(p.slope_hz_per_s, rel=1e-6)


def test_shifted_sweeps_beat_at_slope_times_offset():
    # Two copies of a continuous sweep offset by k samples superpose into an
    # envelope beating at slope * k / fs.
    p = ChirpParams()
    k = 40
    sw = generate_sweep(p, 66)
    n = p.n_samples * 64
    a = sw[100 : 100 + n]
    b = sw[100 - k : 100 - k + n]
    rate = fluctuation_rate(block_mean(np.abs(a + b), 64), p.sample_rate_hz / 64)
    expect = p.slope_hz_per_s * k / p.sample_rate_hz
    assert rate == pytest.approx(expect, abs=fluctuation_bin_hz(n, p.sample_rate_hz))


def test_fluctuation_rate_flat_envelope_is_zero():
    p = ChirpParams()
    assert fluctuation_rate(np.abs(generate_sweep(p, 1)), p.sample_rate_hz) == 0.0


@pytest.mark.parametrize("call", [
    lambda: generate_sweep(ChirpParams(), 0),
    lambda: ccs_correlate(np.ones(3, complex), np.ones(4, complex)),
    lambda: p_ccs0(np.ones(3, complex), np.ones(4, complex)),
], ids=["generate_sweep", "ccs_correlate", "p_ccs0"])
def test_too_short_a_signal_is_refused(call):
    # No symbol, or a capture shorter than the reference it is correlated with.
    with pytest.raises(DspError):
        call()


@pytest.mark.parametrize("env", [np.array([]), np.array([1.0, np.nan, 1.0])])
def test_fluctuation_rate_rejects_empty_or_non_finite_envelope(env):
    with pytest.raises(DspError):
        fluctuation_rate(env, 8e3)


@pytest.mark.parametrize("env", [np.ones((0, 4)), np.array([[1.0, 2.0], [1.0, np.inf]]),
                                 np.ones((2, 2, 4))], ids=["no_rows", "inf_in_a_row", "3d"])
def test_fluctuation_rate_rejects_a_bad_stack_of_envelopes(env):
    with pytest.raises(DspError):
        fluctuation_rate(env, 8e3)


def _envelope_rows(n: int, rng) -> np.ndarray:
    """Flat, beating, noisy and sparse envelopes of ``n`` points."""
    t = np.arange(n)
    rows = [np.full(n, 1.5), np.zeros(n)]
    for f in (0.01, 0.1, 0.37):
        rows.append(1.0 + 0.3 * np.cos(2 * np.pi * f * t) + 0.05 * rng.standard_normal(n))
    rows.append(1.0 + rng.standard_normal(n))
    rows.append(np.abs(rng.standard_normal(n)) * (rng.random(n) < 0.5))
    return np.array(rows)


@pytest.mark.newest_python
@pytest.mark.parametrize("n", [1, 2, 7, 512, 513, 8192])
def test_fluctuation_rate_of_rows_is_each_rows_own_rate(n):
    # The fine walk takes a block's rates in one call on a (rows, points)
    # stack: 512 points per row for the readme_fast chirp, 8192 for the
    # README chirp.  numpy's row-batched rfft and partition must give each
    # row what it gives that row alone.
    rows = _envelope_rows(n, np.random.default_rng(n))
    rates = fluctuation_rate(rows, 8e3)
    alone = [fluctuation_rate(row, 8e3) for row in rows]
    assert type(rates) is list and all(type(r) is float for r in rates + alone)
    assert rates == alone
    assert fluctuation_rate(rows[::-1], 8e3) == alone[::-1]
    if n >= 512:
        assert len(set(alone)) > 2      # some rows beat, some do not


@pytest.mark.newest_python
@pytest.mark.parametrize("n", [1, 2, 3, 4, 257, 512, 4097])
def test_median_is_numpys_median_bit_for_bit(n):
    rng = np.random.default_rng(n)
    cases = [rng.standard_normal(n),                        # distinct values
             rng.integers(0, 3, n).astype(float),            # ties
             np.zeros(n),                                     # all zero
             np.abs(rng.standard_normal(n)) * (rng.random(n) < 0.3),   # many zeros
             np.full(n, 2.5)]
    for x in cases:
        assert median(x).tobytes() == np.float64(np.median(x)).tobytes()
    rows = np.array(cases)
    assert median(rows).tobytes() == np.array([np.median(x) for x in cases]).tobytes()
    # It partitions a copy.
    before = rows.copy()
    median(rows)
    np.testing.assert_array_equal(rows, before)


def test_block_mean_drops_partial_block():
    x = np.arange(10.0)
    np.testing.assert_array_equal(block_mean(x, 4), [1.5, 5.5])
    np.testing.assert_array_equal(block_mean(x, 1), x)


def test_p_ccs0_equals_energy_on_match():
    sig = generate_sweep(ChirpParams(), 1)
    assert p_ccs0(sig, sig) == pytest.approx(energy(sig))


def test_p_ccs0_linear_in_amplitude():
    p = ChirpParams()
    ref = generate_sweep(p, 1)
    for a in (0.25, 0.5, 2.0):
        assert p_ccs0(a * ref, ref) == pytest.approx(a * energy(ref), rel=1e-12)


def test_correlation_peak_recovers_lag():
    p = ChirpParams()
    ref = generate_sweep(p, 1)
    lag_true = 1234
    buf = np.zeros(3 * p.n_samples, dtype=np.complex128)
    buf[lag_true : lag_true + p.n_samples] = ref
    mags = lag_magnitudes(buf, ref)
    lag = int(np.argmax(mags))
    assert lag == lag_true
    assert mags[lag] == pytest.approx(energy(ref), rel=1e-9)


def test_ccs_correlate_zero_lag_field():
    sig = generate_sweep(ChirpParams(), 1)
    assert abs(ccs_correlate(sig, sig)[0]) == pytest.approx(p_ccs0(sig, sig))


def test_awgn_total_power_scales_with_oversampling():
    rng = np.random.default_rng(0)
    n = 200000
    noise = awgn(n, rng, noise_floor_dbm=-70.0, bandwidth_hz=40e3,
                 sample_rate_hz=2.048e6)
    want = 1e-10 * 2.048e6 / 40e3
    got = np.mean(np.abs(noise) ** 2)
    assert got == pytest.approx(want, rel=0.05)


def test_awgn_power_helper():
    rng = np.random.default_rng(1)
    noise = awgn_power(200000, 3.5, rng)
    assert np.mean(np.abs(noise) ** 2) == pytest.approx(3.5, rel=0.05)


def test_fluctuation_rate_never_writes_its_input():
    t = np.arange(512) / 8e3
    rng = np.random.default_rng(2)
    envelopes = [np.full(512, 1.5),                          # flat
                 1.0 + 0.3 * np.cos(2 * np.pi * 40.0 * t),  # one beat
                 1.0 + rng.standard_normal(512)]            # noise only
    for env in envelopes:
        before = env.copy()
        env.setflags(write=False)
        fluctuation_rate(env, 8e3)
        np.testing.assert_array_equal(env, before)
