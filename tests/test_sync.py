import numpy as np
import pytest

from wptsim.chirp import ChirpParams, ComplexSignal, generate_chirp
from wptsim.sync import (
    FineSyncSession,
    SyncError,
    SyncFeedback,
    apply_feedback,
    coarse_sync,
    run_sync,
)

# A small, fast parameter set: 5 kHz band, 12.8 ms symbol, 640 samples.
FAST = ChirpParams(bandwidth_hz=5e3, symbol_time_s=0.0128, sample_rate_hz=50e3)


def test_coarse_sync_recovers_offset():
    ref = generate_chirp(FAST)
    off = 217
    cap = np.zeros(3 * FAST.n_samples, dtype=np.complex128)
    cap[off : off + FAST.n_samples] = ref.samples
    assert coarse_sync(ComplexSignal(cap, FAST.sample_rate_hz), ref) == off


def test_coarse_sync_rejects_pure_noise():
    rng = np.random.default_rng(0)
    ref = generate_chirp(FAST)
    noise = rng.standard_normal(3 * FAST.n_samples) * 0.1
    with pytest.raises(SyncError):
        coarse_sync(ComplexSignal(noise.astype(complex), FAST.sample_rate_hz), ref)


def test_session_stops_below_threshold():
    s = FineSyncSession(stop_threshold_hz=5.0)
    assert s.feedback_for(1.0) is SyncFeedback.STOP


def test_session_reverses_direction_when_rate_grows():
    s = FineSyncSession(stop_threshold_hz=1.0)
    first = s.feedback_for(100.0)
    assert first is SyncFeedback.SUB_ONE_SAMPLE
    second = s.feedback_for(150.0)  # got worse: turn around
    assert second is SyncFeedback.ADD_ONE_SAMPLE


def test_session_keeps_direction_when_rate_drops():
    s = FineSyncSession(stop_threshold_hz=1.0)
    s.feedback_for(100.0)
    assert s.feedback_for(60.0) is SyncFeedback.SUB_ONE_SAMPLE


def test_apply_feedback():
    assert apply_feedback(5, SyncFeedback.ADD_ONE_SAMPLE) == 6
    assert apply_feedback(5, SyncFeedback.SUB_ONE_SAMPLE) == 4
    assert apply_feedback(5, SyncFeedback.STOP) == 5


def test_run_sync_zeroes_residuals():
    rng = np.random.default_rng(3)
    offsets = rng.integers(0, 1200, 6)
    res = run_sync(offsets, FAST, rng, residual_jitter=20,
                   fine_window_symbols=32)
    assert all(abs(r) <= 1 for r in res.residual_offsets)
    assert res.residual_offsets[0] == 0


def test_run_sync_round_budget():
    rng = np.random.default_rng(4)
    offsets = rng.integers(0, 1200, 6)
    res = run_sync(offsets, FAST, rng, residual_jitter=20,
                   fine_window_symbols=32)
    start = {p: off for p, rnd, off, _, _ in reversed(res.transcript) if rnd == 1}
    for period, rounds in enumerate(res.rounds_per_period, start=1):
        assert rounds <= abs(start[period]) + 3


def test_run_sync_rejects_out_of_window_offset():
    rng = np.random.default_rng(0)
    with pytest.raises(SyncError):
        run_sync([10 * FAST.n_samples], FAST, rng)


def test_run_sync_single_slave_is_trivial():
    rng = np.random.default_rng(0)
    res = run_sync([100], FAST, rng)
    assert res.residual_offsets == [0]
    assert res.rounds_per_period == []


def test_run_sync_empty_raises():
    with pytest.raises(SyncError):
        run_sync([], FAST, np.random.default_rng(0))
