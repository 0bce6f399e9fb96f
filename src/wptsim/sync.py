"""Two-step chirp time synchronization.

Step one removes the bulk of each slave's clock offset by cross-correlating
a broadcast chirp preamble.  Step two aligns slaves one at a time against
the first slave: the leader measures the amplitude fluctuation rate of the
superposed chirp trains and steers the target slave by one-sample steps
through a two-bit feedback until the beat disappears.

Coarse sync builds its noisy captures sample by sample.  Fine sync never
does: the leader reads the envelope averaged over blocks of
``ENVELOPE_DECIMATE`` samples, so :class:`FineSyncEnvelope` draws each
block from the exact mean and variance of the noisy sample magnitudes.
The walk speculates: one envelope draw and one :func:`fluctuation_rate`
call give the rates along the whole path it takes when noise does not
mislead it, and its rounds take them one by one while it stays on that
path, equal bit for bit to one round at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .chirp import (
    ChirpParams,
    awgn_power,
    block_mean,
    fluctuation_bin_hz,
    fluctuation_rate,
    generate_sweep,
    lag_magnitudes,
    median,
)


class SyncError(RuntimeError):
    pass


# A coarse correlation peak is accepted when it exceeds this multiple of the
# median correlation magnitude across lags.
COARSE_PEAK_RATIO = 8.0
# The coarse capture spans this many symbols, so an offset must leave the
# whole preamble inside it.
COARSE_CAPTURE_SYMBOLS = 3
# Samples averaged per envelope point in fine sync; the beat of interest sits
# far below the decimated Nyquist rate.
ENVELOPE_DECIMATE = 64
# Symbols of the continuous sweep each fine round captures.
FINE_WINDOW_SYMBOLS = 64
# Most envelope points of one speculative block of the fine walk (see
# _fine_walk and run_sync), which bounds a block's (rounds, blocks) arrays
# at 0.5 MB each: 8 rounds of the README chirp's 8,192 blocks, 128 of the
# readme_fast chirp's 512.  The block length moves no output.  Rows past
# where noise stops a walk are drawn for nothing.  With coarse sync
# noise-free and a fine walk so noisy that every walk stops in its first
# round, run_sync took 5.6 ms per run against 4.0 ms with blocks cut at a
# turn or at 8 rounds (readme_fast chirp, noise power 32), and 61 against
# 51 ms (README chirp, power 256).  run_sync's one noise power does not
# reach that case: coarse sync misses a preamble first.
FINE_BLOCK_POINTS = 65_536


def fine_sync_pad(residual_jitter: int) -> int:
    """Largest offset, in samples, that fine sync models: two slaves'
    residuals differ by at most 2 * jitter, and a walk may first step away
    or overshoot by a few samples before it turns around."""
    return 2 * residual_jitter + 16


def fine_sync_table_bytes(params: ChirpParams, residual_jitter: int, noisy: bool) -> int:
    """Bytes that :class:`FineSyncEnvelope` allocates up front at this jitter:
    2 * pad + 1 rows of one float64 block mean per block, and as many stds
    when ``noisy``."""
    blocks = params.n_samples * FINE_WINDOW_SYMBOLS // ENVELOPE_DECIMATE
    return (2 * fine_sync_pad(residual_jitter) + 1) * blocks * 8 * (1 + noisy)


def coarse_sync(slave_rx: np.ndarray, ref: np.ndarray) -> int:
    """Sample offset of the preamble inside the received capture.

    Raises :class:`SyncError` when no correlation peak stands out of the lag
    profile, i.e. the preamble was not detected.
    """
    mags = lag_magnitudes(slave_rx, ref)
    lag = int(np.argmax(mags))
    floor = float(median(mags))
    if floor > 0 and mags[lag] < COARSE_PEAK_RATIO * floor:
        raise SyncError("no chirp preamble detected above threshold")
    return lag


def _block_path(offset: int, step: int, n: int, pad: int) -> list:
    """The first ``n`` or fewer offsets of the walk from ``offset``, which
    next steps by ``step``, if noise does not mislead it.  Heading for 0,
    it goes straight to 0 and stops.  Heading away from 0, its rate grows
    after one step, so it turns back to ``offset`` and then goes on to 0;
    when that step would leave [-pad, pad], the path is ``offset`` alone."""
    if offset == 0 or (offset > 0) != (step > 0):
        path = range(offset, step, step)
    elif abs(offset) < pad:
        path = [offset, offset + step, *range(offset, -step, -step)]
    else:
        path = [offset]
    return list(path[:n])


def _fine_walk(period: int, offset: int, rates_at, stop_hz: float, pad: int,
               transcript: list) -> tuple:
    """(final offset, rounds) of one slave's greedy one-sample walk.

    Each round the leader reads the beat rate of the superposed envelope at
    the walk's offset, and sends two bits: "stop" once the rate is below
    ``stop_hz`` (one FFT bin), else "add" or "sub" one sample.  The first
    step subtracts; the walk turns around when the rate grew.  It gets
    ``|offset| + 8`` rounds, raises :class:`SyncError` once the offset
    leaves [-pad, pad], and appends (period, round, offset, rate_hz,
    command) to ``transcript`` each round.

    The walk runs in speculative blocks.  It asks ``rates_at`` for the
    rates at the offsets of :func:`_block_path`, the rest of its path if
    noise does not mislead it, cut at its remaining rounds; ``rates_at``
    returns the rates of a non-empty prefix of them, in order.  The rounds
    read those rates one by one as long as the walk's offset is the path's,
    and a new block starts where it leaves the path or the rates run out.
    So as long as a round's rate does not depend on which block asked for
    it, the rounds are the same for every block length.
    """
    step, last_hz = -1, None
    budget = abs(offset) + 8
    rounds = 0
    while rounds < budget:
        if abs(offset) > pad:
            raise SyncError("fine sync walked outside the modeled window")
        path = _block_path(offset, step, budget - rounds, pad)
        for planned, rate_hz in zip(path, rates_at(path)):
            if planned != offset:
                break
            rounds += 1
            if rate_hz < stop_hz:
                transcript.append((period, rounds, offset, rate_hz, "stop"))
                return offset, rounds
            if last_hz is not None and rate_hz > last_hz:
                step = -step
            last_hz = rate_hz
            transcript.append((period, rounds, offset, rate_hz, "add" if step > 0 else "sub"))
            offset += step
    return offset, rounds


# Rician envelope moments, in the variable z = sigma^2 / nu^2.  Below a
# seam in the Bessel argument t = nu^2 / (4 sigma^2) = 1 / (4 z), I0e and
# I1e are summed as power series; above it the moments are summed from
# their Hankel asymptotic series, whose terms fall below the tolerance long
# before the series starts to diverge (near term 2t).
_RICIAN_SEAM_Z = 1.0 / (4.0 * 30.0)
# Beyond a = nu / sigma = 2000 three terms reach the tolerance.  Most samples
# of a strong envelope lie there, so every sample first takes that short sum.
_RICIAN_FAR_Z = 1.0 / 2000.0 ** 2
_RICIAN_TOL = 1e-17


def _hankel_moment_series(n_terms: int) -> tuple:
    """Coefficients of U(z) and V(z); see :func:`rician_moments`.

    With c_j(nu) = prod_{i <= j} ((2i - 1)^2 - 4 nu^2) / (8 i), the Hankel
    series are I0e(t) sqrt(2 pi t) = sum_j c_j(0) t^-j and likewise I1e with
    c_j(1).  Substituting them into the mean, the leading a cancels exactly
    and leaves U(z) = sum_k 4^k (c_k(0) + 2 c_{k+1}(0) + 2 c_{k+1}(1)) z^k
    = 1/2 + z/8 + 3 z^2/16 + ...; then V = 2 - 2U - z U^2 = 1 - z/2 - ...
    """
    c0, c1 = [1.0], [1.0]
    for i in range(1, n_terms + 1):
        odd2 = (2 * i - 1) ** 2
        c0.append(c0[-1] * odd2 / (8.0 * i))
        c1.append(c1[-1] * (odd2 - 4) / (8.0 * i))
    u = np.array([4.0 ** k * (c0[k] + 2.0 * (c0[k + 1] + c1[k + 1]))
                  for k in range(n_terms)])
    v = -2.0 * u
    v[0] += 2.0
    v[1:] -= np.convolve(u, u)[: n_terms - 1]
    return u, v


def _terms_needed(u: np.ndarray, v: np.ndarray, z_max: float) -> int:
    return next(k for k in range(1, u.size)
                if max(abs(u[k]), abs(v[k])) * z_max ** k <= _RICIAN_TOL * u[0])


_HANKEL_U, _HANKEL_V = _hankel_moment_series(40)
_SEAM_TERMS = _terms_needed(_HANKEL_U, _HANKEL_V, _RICIAN_SEAM_Z)
_FAR_TERMS = _terms_needed(_HANKEL_U, _HANKEL_V, _RICIAN_FAR_Z)


def _horner(coef: np.ndarray, z: np.ndarray) -> np.ndarray:
    acc = coef[-1] * z
    acc += coef[-2]
    for c in coef[-3::-1]:
        acc *= z
        acc += c
    return acc


def _moments_by_hankel_series(nu, z, sigma: float, n_terms: int) -> tuple:
    """Mean nu + (sigma^2 / nu) U(z) and variance sigma^2 V(z), each from
    its first ``n_terms`` terms."""
    mean = _horner(_HANKEL_U[:n_terms] * sigma * sigma, z)
    mean /= nu
    mean += nu
    return mean, _horner(_HANKEL_V[:n_terms] * sigma * sigma, z)


def _i01e_by_power_series(t: np.ndarray) -> tuple:
    """exp(-t) I0(t) and exp(-t) I1(t); all terms are positive."""
    q = 0.25 * t * t
    t0, t1 = np.ones_like(t), np.ones_like(t)
    s0, s1 = t0.copy(), t1.copy()
    m = 0
    # The I1 terms fall off faster than the I0 terms (t1 / t0 = 1 / (m + 1)).
    while np.any(t0 > _RICIAN_TOL * s0):
        m += 1
        t0 *= q / (m * m)
        t1 *= q / (m * (m + 1))
        s0 += t0
        s1 += t1
    scale = np.exp(-t)
    return scale * s0, scale * (0.5 * t) * s1


def rician_moments(nu: np.ndarray, sigma: float) -> tuple:
    """Mean and variance of |s + n| for |s| = ``nu`` and white complex noise n
    whose real and imaginary parts each have std ``sigma`` > 0.

    |s + n| is Rician.  With a = nu / sigma and t = a^2 / 4, its mean is
    sigma sqrt(pi/2) L_{1/2}(-a^2 / 2) = sigma sqrt(pi/2) ((1 + 2t) I0e(t)
    + 2t I1e(t)) and its variance nu^2 + 2 sigma^2 - mean^2.  Below the seam
    both are evaluated as written.  Above it nu >> sigma, and that variance
    would subtract two nearly equal numbers (at -70 dBm they agree to nine
    digits).  There the Hankel series give, in z = 1 / a^2, the mean
    nu + (sigma^2 / nu) U(z) and the variance sigma^2 V(z) directly, with no
    cancellation.
    """
    nu = np.asarray(nu, dtype=float)
    # nu = 0, or nu / sigma near the smallest double, overflows z; those
    # entries lie below the seam and are redone there.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        z = np.square(sigma / nu)
        mean, var = _moments_by_hankel_series(nu, z, sigma, _FAR_TERMS)
    near = np.flatnonzero(z > _RICIAN_FAR_Z)
    if near.size:
        zn = z[near]
        mid = near[zn <= _RICIAN_SEAM_Z]
        if mid.size:
            mean[mid], var[mid] = _moments_by_hankel_series(
                nu[mid], z[mid], sigma, _SEAM_TERMS)
        low = near[zn > _RICIAN_SEAM_Z]
        if low.size:
            a = nu[low] / sigma
            t = 0.25 * a * a
            i0e, i1e = _i01e_by_power_series(t)
            f = math.sqrt(0.5 * math.pi) * ((1.0 + 2.0 * t) * i0e + 2.0 * t * i1e)
            mean[low] = sigma * f
            var[low] = sigma * sigma * (a * a + 2.0 - f * f)
    return mean, var


# Samples of one step of building a table row.  The steps give the whole
# row's bytes: each block depends on its own samples alone, and
# rician_moments gives a sample the same bits in any call (its power-series
# loop runs until the call's slowest sample converges, and the terms it
# then adds to a converged sample are below half an ulp).  Built whole, a
# README-chirp row keeps some 20 MB of temporaries alive; glibc handed that
# memory back after every row, and a cold run_sync took 5x the page faults
# and a quarter more time.  Steps of 2^17 samples keep them near 8 MB.
_BUILD_SAMPLES = 1 << 17


class FineSyncEnvelope:
    """The leader's decimated envelope of two superposed sweeps in fine sync.

    The reference slave's sweep is fixed; the target's is shifted by an
    integer offset r in [-pad, pad].  The noise-free envelope depends only
    on r, so each offset is built once per instance, sample by sample: the
    sum of the two sweeps, its magnitude, then its mean over each block of
    ``ENVELOPE_DECIMATE`` samples.  With noise, each sample magnitude is
    Rician; the instance keeps the block mean of the Rician means and the
    block std sqrt(sum of variances) / ``ENVELOPE_DECIMATE``, and a round
    adds one normal per block around them.

    The table is two (2 * pad + 1, blocks) arrays, the block means and the
    block stds (none without noise), with row pad + r for offset r.  They
    are allocated empty and each row is filled the first time an offset is
    read, so a run touches only the rows its walk reads.  Rows are handed
    out read-only or copied, and hold no random draw, so :func:`run_sync`
    takes one instance per process and key from :func:`fine_sync_envelope`:
    every run with that chirp, jitter and noise power reuses the rows
    earlier runs built.  Filled in full, the table is two float64 arrays of
    (2 * pad + 1) * window / ``ENVELOPE_DECIMATE`` values beside the
    extended sweep: about 0.9 MB for the 512-sample chirp at jitter 20, and
    36 MB plus the 8.7 MB sweep for the README chirp at jitter 60.
    """

    def __init__(self, params: ChirpParams, pad: int, noise_power: float = 0.0):
        self.window = params.n_samples * FINE_WINDOW_SYMBOLS
        self.pad = pad
        self.envelope_rate_hz = params.sample_rate_hz / ENVELOPE_DECIMATE
        n_ext = FINE_WINDOW_SYMBOLS + -(-2 * pad // params.n_samples) + 1
        self._ext = generate_sweep(params, n_ext)
        self._base = self._ext[pad : pad + self.window]
        self._sigma = math.sqrt(noise_power / 2.0)
        shape = (2 * pad + 1, self.window // ENVELOPE_DECIMATE)
        self._mean = np.empty(shape)
        self._std = np.empty(shape) if self._sigma > 0.0 else None
        self._built = [False] * shape[0]

    @property
    def noisy(self) -> bool:
        """Whether a round adds noise, one normal per block."""
        return self._std is not None

    @property
    def n_blocks(self) -> int:
        """Envelope blocks per round, and normals per noisy round."""
        return self._mean.shape[1]

    def _shifted(self, offset: int) -> np.ndarray:
        """The target slave's sweep at ``offset``, over the window."""
        if abs(offset) > self.pad:
            raise ValueError(f"offset {offset} lies outside [-{self.pad}, {self.pad}]")
        return self._ext[self.pad - offset : self.pad - offset + self.window]

    def samples(self, offset: int) -> np.ndarray:
        """The noise-free superposed sweeps at ``offset``, sample by sample."""
        return self._base + self._shifted(offset)

    def _row(self, offset: int) -> int:
        """The table row of ``offset``, filled first if it is not yet."""
        row = offset + self.pad
        if 0 <= row < len(self._built) and self._built[row]:
            return row
        shifted = self._shifted(offset)
        for start in range(0, self.window, _BUILD_SAMPLES):
            span = slice(start, start + _BUILD_SAMPLES)
            blocks = slice(start // ENVELOPE_DECIMATE,
                           (start + _BUILD_SAMPLES) // ENVELOPE_DECIMATE)
            nu = np.abs(self._base[span] + shifted[span])
            if self._std is None:
                self._mean[row, blocks] = block_mean(nu, ENVELOPE_DECIMATE)
            else:
                mean, var = rician_moments(nu, self._sigma)
                self._mean[row, blocks] = block_mean(mean, ENVELOPE_DECIMATE)
                self._std[row, blocks] = np.sqrt(block_mean(var, ENVELOPE_DECIMATE)
                                                 / ENVELOPE_DECIMATE)
        self._built[row] = True
        return row

    def blocks(self, offset: int) -> tuple:
        """(mean, std) of each envelope block at ``offset``, both read-only
        views of the table; std is None without noise, when the mean is the
        envelope itself."""
        row = self._row(offset)
        mean = self._mean[row]
        mean.setflags(write=False)
        if self._std is None:
            return mean, None
        std = self._std[row]
        std.setflags(write=False)
        return mean, std

    def draw(self, offsets, normals) -> np.ndarray:
        """The decimated envelopes at ``offsets``, one row each: the mean
        row plus the std row times the matching row of ``normals``, a
        (len(offsets), blocks) array.  Without noise ``normals`` is None and
        the rows are copies of the mean rows."""
        rows = [self._row(offset) for offset in offsets]
        if self._std is None:
            return self._mean[rows]
        return self._mean[rows] + self._std[rows] * normals


@lru_cache(maxsize=1)
def fine_sync_envelope(params: ChirpParams, pad: int, noise_power: float) -> FineSyncEnvelope:
    """The process's one :class:`FineSyncEnvelope` for this key.  A single
    entry bounds the memory at one table; a process that changes chirp,
    jitter or noise power builds a new table for the new key."""
    return FineSyncEnvelope(params, pad, noise_power)


class _NormalRows:
    """Fine sync's noise stream as rows of one normal per envelope block.

    A block asks for the rows of its rounds; rows that a walk left unread,
    where it stopped or left the block's path, stay for the rounds after
    it, so round r reads the stream's r-th row whatever the block length.
    A run draws fewer rows that no round reads than its longest block has.
    """

    def __init__(self, rng: np.random.Generator, n_blocks: int):
        self._rng = rng
        self._rows = np.empty((0, n_blocks))
        self._first = 0             # the round that reads self._rows[0]

    def take(self, first: int, k: int) -> np.ndarray:
        """Rows ``first`` .. ``first`` + k - 1 of the stream, drawing the
        ones not drawn yet in one call; rows before ``first`` are dropped."""
        rows = self._rows[first - self._first:]
        if len(rows) < k:
            fresh = self._rng.standard_normal((k - len(rows), rows.shape[1]))
            rows = np.concatenate([rows, fresh])
        self._rows, self._first = rows, first
        return rows[:k]


@dataclass
class SyncResult:
    residual_offsets: list          # samples, relative to the first slave
    rounds_per_period: list
    transcript: list                # (period, round, offset, rate_hz, command)


def _coarse_residuals(true_offsets, params: ChirpParams, rng: np.random.Generator,
                     noise_power: float, residual_jitter: int) -> list:
    """Step one: each slave's offset left after preamble correlation.

    Each slave's capture is built sample by sample, noise included.
    ``residual_jitter`` models heterogeneous processing delays that survive
    the coarse step: after compensation each slave keeps a uniform random
    residual in [-jitter, +jitter] samples.
    """
    ref = generate_sweep(params, 1)
    n = params.n_samples
    residuals = []
    for off in true_offsets:
        if off >= (COARSE_CAPTURE_SYMBOLS - 1) * n:
            raise SyncError("offset exceeds the coarse capture window")
        capture = np.zeros(COARSE_CAPTURE_SYMBOLS * n, dtype=np.complex128)
        capture[off : off + n] = ref
        if noise_power > 0:
            capture = capture + awgn_power(capture.size, noise_power, rng)
        est = coarse_sync(capture, ref)
        resid = off - est + int(rng.integers(-residual_jitter, residual_jitter + 1))
        residuals.append(resid)
    return residuals


def run_sync(
    true_offsets,
    params: ChirpParams,
    rng: np.random.Generator,
    noise_power: float = 0.0,
    *,
    residual_jitter: int,
) -> SyncResult:
    """Run both synchronization steps over simulated receptions.

    ``true_offsets`` holds each slave's initial clock offset in samples;
    ``noise_power`` is the total sample-domain power of the white noise at
    each receiver.  See :func:`_coarse_residuals` for ``residual_jitter``;
    each fine round captures ``FINE_WINDOW_SYMBOLS`` symbols.
    """
    if not (math.isfinite(noise_power) and noise_power >= 0.0):
        raise ValueError(f"noise_power must be finite and >= 0, not {noise_power!r}")
    true_offsets = [int(o) for o in true_offsets]
    n_slaves = len(true_offsets)
    if n_slaves == 0:
        raise SyncError("need at least one slave")

    residuals = _coarse_residuals(true_offsets, params, rng, noise_power, residual_jitter)
    if n_slaves == 1:
        return SyncResult([0], [], [])

    # Step two: align slave i to slave 0, one period per slave.  Slaves
    # transmit one continuous sweep for the whole window; a clock offset then
    # shows up as a single constant beat tone in the superposed envelope.
    rx = fine_sync_envelope(params, fine_sync_pad(residual_jitter), noise_power)
    stop_hz = fluctuation_bin_hz(rx.window, params.sample_rate_hz)

    # Offsets below are relative to the first slave.  Round r of the run
    # reads row r of the noise stream, whichever block asked for it.
    rel = [r - residuals[0] for r in residuals]
    normals = _NormalRows(rng, rx.n_blocks) if rx.noisy else None
    block_rounds = max(1, FINE_BLOCK_POINTS // rx.n_blocks)

    def rates_at(offsets):
        offsets = offsets[:block_rounds]
        # Each round so far read one row of normals and wrote one line of
        # the transcript.
        rows = None if normals is None else normals.take(len(transcript), len(offsets))
        return fluctuation_rate(rx.draw(offsets, rows), rx.envelope_rate_hz)

    rounds_per_period = []
    transcript = []
    for i in range(1, n_slaves):
        rel[i], rounds = _fine_walk(i, rel[i], rates_at, stop_hz, rx.pad, transcript)
        rounds_per_period.append(rounds)

    return SyncResult(rel, rounds_per_period, transcript)
