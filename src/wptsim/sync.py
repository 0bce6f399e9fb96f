"""Two-step chirp time synchronization.

Step one removes the bulk of each slave's clock offset by cross-correlating
a broadcast chirp preamble.  Step two aligns slaves one at a time against
the first slave: the leader measures the amplitude fluctuation rate of the
superposed chirp trains and steers the target slave by one-sample steps
through a two-bit feedback until the beat disappears.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .chirp import (
    ChirpParams,
    ComplexSignal,
    awgn_power,
    fluctuation_bin_hz,
    fluctuation_rate,
    generate_chirp,
    generate_sweep,
    lag_magnitudes,
)


class SyncError(RuntimeError):
    pass


class SyncFeedback(Enum):
    ADD_ONE_SAMPLE = "add"
    SUB_ONE_SAMPLE = "sub"
    STOP = "stop"


# A coarse correlation peak is accepted when it exceeds this multiple of the
# median correlation magnitude across lags.
COARSE_PEAK_RATIO = 8.0
# The coarse capture spans this many symbols, so an offset must leave the
# whole preamble inside it.
COARSE_CAPTURE_SYMBOLS = 3
# Samples averaged per envelope point in fine sync; the beat of interest sits
# far below the decimated Nyquist rate.
ENVELOPE_DECIMATE = 64


def coarse_sync(slave_rx: ComplexSignal, ref: ComplexSignal) -> int:
    """Sample offset of the preamble inside the received capture.

    Raises :class:`SyncError` when no correlation peak stands out of the lag
    profile, i.e. the preamble was not detected.
    """
    mags = lag_magnitudes(slave_rx, ref)
    lag = int(np.argmax(mags))
    floor = float(np.median(mags))
    if floor > 0 and mags[lag] < COARSE_PEAK_RATIO * floor:
        raise SyncError("no chirp preamble detected above threshold")
    return lag


@dataclass
class FineSyncSession:
    """Greedy one-sample walk: keep stepping in the direction that lowered
    the fluctuation rate, reverse when it grew, stop below one FFT bin."""

    stop_threshold_hz: float
    direction: int = -1  # first probe subtracts one sample
    last_rate_hz: float | None = None
    rounds: int = 0

    def feedback_for(self, rate_hz: float) -> SyncFeedback:
        self.rounds += 1
        if rate_hz < self.stop_threshold_hz:
            return SyncFeedback.STOP
        if self.last_rate_hz is not None and rate_hz > self.last_rate_hz:
            self.direction = -self.direction
        self.last_rate_hz = rate_hz
        return (
            SyncFeedback.ADD_ONE_SAMPLE
            if self.direction > 0
            else SyncFeedback.SUB_ONE_SAMPLE
        )


def apply_feedback(offset: int, fb: SyncFeedback) -> int:
    if fb is SyncFeedback.ADD_ONE_SAMPLE:
        return offset + 1
    if fb is SyncFeedback.SUB_ONE_SAMPLE:
        return offset - 1
    return offset


@dataclass
class SyncResult:
    residual_offsets: list          # samples, relative to the first slave
    rounds_per_period: list
    transcript: list                # (period, round, offset, rate_hz, command)


def run_sync(
    true_offsets,
    params: ChirpParams,
    rng: np.random.Generator,
    noise_power: float = 0.0,
    residual_jitter: int = 100,
    fine_window_symbols: int = 64,
) -> SyncResult:
    """Run both synchronization steps over simulated receptions.

    ``true_offsets`` holds each slave's initial clock offset in samples.
    ``residual_jitter`` models heterogeneous processing delays that survive
    the coarse step: after compensation each slave keeps a uniform random
    residual in [-jitter, +jitter] samples.
    """
    true_offsets = [int(o) for o in true_offsets]
    n_slaves = len(true_offsets)
    if n_slaves == 0:
        raise SyncError("need at least one slave")

    ref = generate_chirp(params)
    n = params.n_samples

    # Step one: per-slave preamble correlation.
    residuals = []
    for off in true_offsets:
        if off >= (COARSE_CAPTURE_SYMBOLS - 1) * n:
            raise SyncError("offset exceeds the coarse capture window")
        capture = np.zeros(COARSE_CAPTURE_SYMBOLS * n, dtype=np.complex128)
        capture[off : off + n] = ref.samples
        if noise_power > 0:
            capture = capture + awgn_power(capture.size, noise_power, rng)
        est = coarse_sync(ComplexSignal(capture, params.sample_rate_hz), ref)
        resid = off - est + int(rng.integers(-residual_jitter, residual_jitter + 1))
        residuals.append(resid)

    if n_slaves == 1:
        return SyncResult([0], [], [])

    # Step two: align slave i to slave 0, one period per slave.  Slaves
    # transmit one continuous sweep for the whole window; a clock offset then
    # shows up as a single constant beat tone in the superposed envelope.
    window = params.n_samples * fine_window_symbols
    pad = 2 * residual_jitter + 16
    ext = generate_sweep(params, fine_window_symbols + -(-2 * pad // params.n_samples) + 1)
    base = ext.samples[pad : pad + window]
    stop_hz = fluctuation_bin_hz(window, params.sample_rate_hz)

    # Offsets below are relative to the first slave.
    rel = [r - residuals[0] for r in residuals]
    rounds_per_period = []
    transcript = []
    for i in range(1, n_slaves):
        session = FineSyncSession(stop_threshold_hz=stop_hz)
        budget = abs(rel[i]) + 8
        for _ in range(budget):
            if abs(rel[i]) > pad:
                raise SyncError("fine sync walked outside the modeled window")
            mixed = base + ext.samples[pad - rel[i] : pad - rel[i] + window]
            if noise_power > 0:
                mixed = mixed + awgn_power(mixed.size, noise_power, rng)
            rx = ComplexSignal(mixed, params.sample_rate_hz)
            rate = fluctuation_rate(rx, decimate=ENVELOPE_DECIMATE)
            fb = session.feedback_for(rate)
            transcript.append((i, session.rounds, rel[i], rate, fb.value))
            if fb is SyncFeedback.STOP:
                break
            rel[i] = apply_feedback(rel[i], fb)
        rounds_per_period.append(session.rounds)

    return SyncResult(rel, rounds_per_period, transcript)
