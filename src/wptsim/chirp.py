"""Chirp generation and frequency-domain cross-correlation.

Implements the carrier-side DSP: linear chirp sweeps, the zero-lag
cross-correlation power metric used to infer backscatter power changes,
and the amplitude-fluctuation-rate estimator used for fine time sync.
Signals are complex arrays sampled at the chirp's ``sample_rate_hz``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import dbm_to_watt


class DspError(ValueError):
    pass


# An envelope spectrum peak counts as a beat when it exceeds this multiple of
# the median spectrum magnitude.
ENVELOPE_PEAK_RATIO = 8.0


@dataclass(frozen=True)
class ChirpParams:
    bandwidth_hz: float = 40e3
    symbol_time_s: float = 4e-3
    sample_rate_hz: float = 2.048e6

    def __post_init__(self):
        for name in ("bandwidth_hz", "symbol_time_s", "sample_rate_hz"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise DspError(f"chirp {name} must be finite and > 0, not {v!r}")
        if self.sample_rate_hz < 2.0 * self.bandwidth_hz:
            raise DspError("sample rate too low for requested band")
        n = self.symbol_time_s * self.sample_rate_hz
        if abs(n - round(n)) > 1e-6 or round(n) < 1:
            raise DspError("symbol_time * sample_rate must be a positive integer")

    @property
    def n_samples(self) -> int:
        return int(round(self.symbol_time_s * self.sample_rate_hz))

    @property
    def slope_hz_per_s(self) -> float:
        return self.bandwidth_hz / self.symbol_time_s


def _sweep_phase(params: ChirpParams, n: int) -> np.ndarray:
    """Phase of the linear sweep from the band's low edge over ``n`` samples."""
    t = np.arange(n) / params.sample_rate_hz
    f0 = -params.bandwidth_hz / 2.0
    return 2.0 * np.pi * (f0 * t + 0.5 * params.slope_hz_per_s * t * t)


def generate_sweep(params: ChirpParams, n_symbols: int) -> np.ndarray:
    """Single uninterrupted unit-amplitude linear sweep at the symbol chirp
    slope, sampled at ``params.sample_rate_hz``; one symbol is the chirp,
    sweeping [-bw/2, +bw/2] around baseband.

    Unlike a tiled symbol train this signal never wraps, so the beat of two
    time-shifted copies is one constant tone at slope * offset instead of a
    line comb at the symbol rate.  The sampled baseband is taken as is, with
    no band limiting.
    """
    if n_symbols < 1:
        raise DspError("need at least one symbol")
    return np.exp(1j * _sweep_phase(params, params.n_samples * n_symbols))


def _fft_len(n: int) -> int:
    return 1 << (int(n - 1).bit_length())


def ccs_correlate(rx: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Frequency-domain cross-correlation of rx against the reference chirp.

    Returns the complex correlation indexed by lag: lag k holds
    sum_m rx[m + k] * conj(ref[m]).  The zero-lag magnitude is the power
    metric that tracks the embedded backscatter component.
    """
    if rx.size < ref.size:
        raise DspError("rx must be at least as long as the reference")
    n = _fft_len(rx.size + ref.size - 1)
    return np.fft.ifft(np.fft.fft(rx, n) * np.conj(np.fft.fft(ref, n)))


def p_ccs0(rx: np.ndarray, ref: np.ndarray) -> float:
    """Zero-lag correlation magnitude; linear proxy for backscatter power."""
    if rx.size < ref.size:
        raise DspError("rx must be at least as long as the reference")
    return float(np.abs(np.vdot(ref, rx[: ref.size])))


def lag_magnitudes(rx: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Correlation magnitude at every lag where ``ref`` lies inside ``rx``."""
    return np.abs(ccs_correlate(rx, ref)[: rx.size - ref.size + 1])


def block_mean(x: np.ndarray, n: int) -> np.ndarray:
    """Mean of each block of ``n`` consecutive values of ``x``; a trailing
    partial block is dropped."""
    m = (x.size // n) * n
    return x[:m].reshape(-1, n).mean(axis=1)


@lru_cache(maxsize=8)
def _hann(n: int) -> np.ndarray:
    """Read-only Hann window of ``n`` points, shared by every caller."""
    w = np.hanning(n)
    w.setflags(write=False)
    return w


def fluctuation_rate(env: np.ndarray, sample_rate_hz: float) -> float:
    """Dominant nonzero-frequency peak of a real envelope, in Hz.

    ``env`` holds magnitude samples taken at ``sample_rate_hz``, or their
    :func:`block_mean` at the decimated rate.  The envelope is mean-removed
    and Hann-windowed before the FFT.  A flat envelope returns 0 Hz (the
    synchronized case), as does a spectrum whose strongest bin does not
    stand ``ENVELOPE_PEAK_RATIO`` times above the median (a noisy but beat-free
    envelope).
    """
    env = np.asarray(env, dtype=float)
    if env.size == 0:
        raise DspError("envelope must be non-empty")
    if not np.all(np.isfinite(env)):
        raise DspError("envelope contains non-finite samples")
    mean = env.mean()
    x = env - mean
    # Flat envelope: no fluctuation to measure.
    if np.max(np.abs(x)) <= 1e-9 * max(mean, 1e-300):
        return 0.0
    x = x * _hann(x.size)
    spec = np.abs(np.fft.rfft(x))
    spec[0] = 0.0
    peak = int(np.argmax(spec))
    if spec[peak] <= 0.0:
        return 0.0
    floor = float(np.median(spec))
    if floor > 0 and spec[peak] < ENVELOPE_PEAK_RATIO * floor:
        return 0.0
    return peak * sample_rate_hz / x.size


def fluctuation_bin_hz(n_samples: int, sample_rate_hz: float) -> float:
    """Frequency resolution of the envelope spectrum."""
    return sample_rate_hz / n_samples


def sample_noise_power(noise_floor_dbm: float, bandwidth_hz: float,
                       sample_rate_hz: float) -> float:
    """Total sample-domain power, in W, of white noise whose power within
    ``bandwidth_hz`` equals the floor: a flat spectral density across the
    sampled band scales the floor by the oversampling ratio."""
    return dbm_to_watt(noise_floor_dbm) * (sample_rate_hz / bandwidth_hz)


def awgn(n: int, rng: np.random.Generator, noise_floor_dbm: float, bandwidth_hz: float,
         sample_rate_hz: float) -> np.ndarray:
    """Complex white noise whose power within ``bandwidth_hz`` equals the floor."""
    return awgn_power(n, sample_noise_power(noise_floor_dbm, bandwidth_hz, sample_rate_hz),
                      rng)


def awgn_power(n: int, power: float, rng: np.random.Generator) -> np.ndarray:
    """Complex white noise with the given total sample-domain power."""
    sigma = math.sqrt(power / 2.0)
    return sigma * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
