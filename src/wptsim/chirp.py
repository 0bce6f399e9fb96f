"""Chirp generation and frequency-domain cross-correlation.

Implements the carrier-side DSP: linear chirp symbols, the zero-lag
cross-correlation power metric used to infer backscatter power changes,
and the amplitude-fluctuation-rate estimator used for fine time sync.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class DspError(ValueError):
    pass


@dataclass(frozen=True)
class ChirpParams:
    bandwidth_hz: float = 40e3
    symbol_time_s: float = 4e-3
    sample_rate_hz: float = 2.048e6
    center_offset_hz: float = 0.0

    def __post_init__(self):
        if self.bandwidth_hz < 0 or self.symbol_time_s <= 0 or self.sample_rate_hz <= 0:
            raise DspError("invalid chirp parameters")
        if self.sample_rate_hz < 2.0 * (self.bandwidth_hz + abs(self.center_offset_hz)):
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

    @property
    def processing_gain(self) -> float:
        return self.symbol_time_s * self.bandwidth_hz


@dataclass
class ComplexSignal:
    samples: np.ndarray
    sample_rate_hz: float

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.complex128)
        if self.samples.size == 0:
            raise DspError("signal must be non-empty")
        if not np.all(np.isfinite(self.samples)):
            raise DspError("signal contains non-finite samples")

    def __len__(self):
        return self.samples.size

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate_hz

    def power(self) -> float:
        return float(np.mean(np.abs(self.samples) ** 2))

    def energy(self) -> float:
        return float(np.sum(np.abs(self.samples) ** 2))


def _sweep_phase(params: ChirpParams, n: int) -> np.ndarray:
    """Phase of the linear sweep from the band's low edge over ``n`` samples."""
    t = np.arange(n) / params.sample_rate_hz
    f0 = params.center_offset_hz - params.bandwidth_hz / 2.0
    return 2.0 * np.pi * (f0 * t + 0.5 * params.slope_hz_per_s * t * t)


def generate_chirp(
    params: ChirpParams,
    amplitude: float = 1.0,
    initial_phase: float = 0.0,
    n_symbols: int = 1,
) -> ComplexSignal:
    """Linear up-chirp sweeping [center - bw/2, center + bw/2] per symbol.

    With ``n_symbols`` > 1 the symbol is repeated back to back with
    continuous sampling (a continuous chirp train).
    """
    if amplitude < 0:
        raise DspError("amplitude must be >= 0")
    phase = _sweep_phase(params, params.n_samples)
    symbol = amplitude * np.exp(1j * (phase + initial_phase))
    if n_symbols > 1:
        symbol = np.tile(symbol, n_symbols)
    return ComplexSignal(symbol, params.sample_rate_hz)


def generate_sweep(
    params: ChirpParams, n_symbols: int, amplitude: float = 1.0
) -> ComplexSignal:
    """Single uninterrupted linear sweep at the symbol chirp slope.

    Unlike the tiled symbol train this signal never wraps, so the beat of two
    time-shifted copies is one constant tone at slope * offset instead of a
    line comb at the symbol rate.  The sampled baseband is taken as is, with
    no band limiting.
    """
    if amplitude < 0:
        raise DspError("amplitude must be >= 0")
    if n_symbols < 1:
        raise DspError("need at least one symbol")
    phase = _sweep_phase(params, params.n_samples * n_symbols)
    return ComplexSignal(amplitude * np.exp(1j * phase), params.sample_rate_hz)


@dataclass
class CcsProfile:
    values: np.ndarray  # complex correlation values indexed by lag
    zero_lag: float     # magnitude at lag 0
    lag_resolution_s: float


def _fft_len(n: int) -> int:
    return 1 << (int(n - 1).bit_length())


def ccs_correlate(rx: ComplexSignal, ref: ComplexSignal) -> CcsProfile:
    """Frequency-domain cross-correlation of rx against the reference chirp.

    Lag k holds sum_m rx[m + k] * conj(ref[m]); the zero-lag magnitude is the
    power metric that tracks the embedded backscatter component.
    """
    if rx.sample_rate_hz != ref.sample_rate_hz:
        raise DspError("sample rates must match")
    if len(rx) < len(ref):
        raise DspError("rx must be at least as long as the reference")
    n = _fft_len(len(rx) + len(ref) - 1)
    corr = np.fft.ifft(np.fft.fft(rx.samples, n) * np.conj(np.fft.fft(ref.samples, n)))
    return CcsProfile(
        values=corr,
        zero_lag=float(np.abs(corr[0])),
        lag_resolution_s=1.0 / rx.sample_rate_hz,
    )


def p_ccs0(rx: ComplexSignal, ref: ComplexSignal) -> float:
    """Zero-lag correlation magnitude; linear proxy for backscatter power."""
    if rx.sample_rate_hz != ref.sample_rate_hz:
        raise DspError("sample rates must match")
    if len(rx) < len(ref):
        raise DspError("rx must be at least as long as the reference")
    m = len(ref)
    return float(np.abs(np.vdot(ref.samples, rx.samples[:m])))


def lag_magnitudes(rx: ComplexSignal, ref: ComplexSignal) -> np.ndarray:
    """Correlation magnitude at every lag where ``ref`` lies inside ``rx``."""
    n_lags = len(rx) - len(ref) + 1
    return np.abs(ccs_correlate(rx, ref).values[:n_lags])


def correlation_peak(rx: ComplexSignal, ref: ComplexSignal):
    """(lag, magnitude) of the strongest correlation peak, lag >= 0."""
    mags = lag_magnitudes(rx, ref)
    lag = int(np.argmax(mags))
    return lag, float(mags[lag])


def fluctuation_rate(
    envelope: ComplexSignal, decimate: int = 1, min_prominence: float = 8.0
) -> float:
    """Dominant nonzero-frequency peak of the magnitude envelope, in Hz.

    The magnitude is mean-removed and Hann-windowed before the FFT.  A flat
    envelope returns 0 Hz (the synchronized case), as does a spectrum whose
    strongest bin does not stand ``min_prominence`` times above the median
    (a noisy but beat-free envelope).  ``decimate`` trades lag resolution
    for speed; the beat of interest sits far below Nyquist.
    """
    env = np.abs(envelope.samples)
    fs = envelope.sample_rate_hz
    if decimate > 1:
        n = (env.size // decimate) * decimate
        env = env[:n].reshape(-1, decimate).mean(axis=1)
        fs = fs / decimate
    mean = env.mean()
    x = env - mean
    # Flat envelope: no fluctuation to measure.
    if np.max(np.abs(x)) <= 1e-9 * max(mean, 1e-300):
        return 0.0
    x = x * np.hanning(x.size)
    spec = np.abs(np.fft.rfft(x))
    spec[0] = 0.0
    peak = int(np.argmax(spec))
    if spec[peak] <= 0.0:
        return 0.0
    floor = float(np.median(spec))
    if floor > 0 and spec[peak] < min_prominence * floor:
        return 0.0
    return peak * fs / x.size


def fluctuation_bin_hz(n_samples: int, sample_rate_hz: float) -> float:
    """Frequency resolution of the envelope spectrum."""
    return sample_rate_hz / n_samples


def awgn(
    n: int,
    rng: np.random.Generator,
    noise_floor_dbm: float = -70.0,
    bandwidth_hz: float = 40e3,
    sample_rate_hz: float = 2.048e6,
) -> np.ndarray:
    """Complex white noise whose power within ``bandwidth_hz`` equals the floor.

    The total sample-domain power is the floor scaled by the oversampling
    ratio, i.e. a flat spectral density across the sampled band.
    """
    sigma = noise_sigma(noise_floor_dbm, bandwidth_hz, sample_rate_hz)
    return sigma * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def noise_sigma(
    noise_floor_dbm: float = -70.0,
    bandwidth_hz: float = 40e3,
    sample_rate_hz: float = 2.048e6,
) -> float:
    """Std deviation of each of the real and imaginary parts of :func:`awgn`."""
    floor_w = 10.0 ** (noise_floor_dbm / 10.0) * 1e-3
    total_power = floor_w * sample_rate_hz / bandwidth_hz
    return math.sqrt(total_power / 2.0)


def awgn_power(n: int, power: float, rng: np.random.Generator) -> np.ndarray:
    """Complex white noise with the given total sample-domain power."""
    sigma = math.sqrt(power / 2.0)
    return sigma * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def dump_signal(sig: ComplexSignal, path) -> None:
    """Columnar text dump (index, re, im) for offline plotting."""
    idx = np.arange(len(sig))
    data = np.column_stack([idx, sig.samples.real, sig.samples.imag])
    np.savetxt(path, data, header="index re im", comments="")
