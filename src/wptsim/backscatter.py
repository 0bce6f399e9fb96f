"""Behavioral model of the monotonic backscatter radio.

The node wakes on harvested power, and while awake reflects the superposed
carrier shifted by +/- f_s with a reflected power that increases strictly
monotonically with incident power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .channel import Position, dbm_to_watt, watt_to_dbm
from .chirp import ComplexSignal


class BackscatterError(ValueError):
    pass


@dataclass(frozen=True)
class TransferCurve:
    """Input power (dBm) -> reflected power ratio, smooth and increasing.

    The ratio follows a logistic in the dB domain between ``ratio_lo`` and
    ``ratio_hi``; reflected power = ratio * incident power is then strictly
    increasing and passive (ratio <= 1).  A ``monotonic=False`` legacy mode
    dips the ratio mid-range, mimicking a conventional RFID harvester whose
    matching network detunes with input power.
    """

    center_dbm: float = -25.0
    width_db: float = 8.0
    ratio_lo: float = 0.02
    ratio_hi: float = 0.5
    monotonic: bool = True

    def __post_init__(self):
        if not (0.0 < self.ratio_lo < self.ratio_hi <= 1.0):
            raise BackscatterError("require 0 < ratio_lo < ratio_hi <= 1")
        if self.width_db <= 0:
            raise BackscatterError("width_db must be positive")

    def power_ratio(self, p_in_dbm: float) -> float:
        z = (p_in_dbm - self.center_dbm) / self.width_db
        r = self.ratio_lo + (self.ratio_hi - self.ratio_lo) / (1.0 + math.exp(-z))
        if not self.monotonic:
            # Legacy non-monotonic dip around the curve center.
            r *= 1.0 - 0.6 * math.exp(-(z ** 2))
        return r

    def reflected_power_w(self, p_in_w: float) -> float:
        if p_in_w < 0:
            raise BackscatterError("incident power must be >= 0")
        if p_in_w == 0.0:
            return 0.0
        return self.power_ratio(watt_to_dbm(p_in_w)) * p_in_w

    def amplitude_ratio(self, p_in_w: float) -> float:
        if p_in_w <= 0:
            return 0.0
        return math.sqrt(self.reflected_power_w(p_in_w) / p_in_w)

    # The curve is frozen, so the check is cached per curve value.
    @lru_cache(maxsize=32)
    def is_monotone(self, lo_dbm: float = -60.0, hi_dbm: float = 10.0, n: int = 400) -> bool:
        p = np.linspace(lo_dbm, hi_dbm, n)
        out = np.array([self.reflected_power_w(dbm_to_watt(v)) for v in p])
        return bool(np.all(np.diff(out) > 0))

    def normalized_amplitude_map(self, y: float, n_max: float) -> float:
        """Apply the curve to a normalized beamforming amplitude y in [0, n_max].

        The amplitude fraction y/n_max is mapped onto the curve's upper
        operating range so that the coherent optimum is a fixed point; the
        output is the normalized reflected amplitude.  A monotone curve
        keeps the order of amplitudes, which is why the phase-bound
        schedule does not depend on the curve.
        """
        if y <= 0:
            return 0.0
        a = min(y / n_max, 1.0)
        top_dbm = self.center_dbm + 2.0 * self.width_db
        p_in = top_dbm + 20.0 * math.log10(a)
        rho = self.power_ratio(p_in) / self.power_ratio(top_dbm)
        return n_max * a * math.sqrt(rho)


@dataclass
class BackscatterNode:
    position: Position
    wake_threshold_dbm: float = -20.0
    shift_freq_hz: float = 100e3
    transfer_curve: TransferCurve = field(default_factory=TransferCurve)
    dynamic_power_draw_w: float = 42e-6
    awake: bool = False
    harvested_power_w: float = 0.0

    @property
    def wake_threshold_w(self) -> float:
        return dbm_to_watt(self.wake_threshold_dbm)

    def harvest_step(self, incident_power_w: float, dt_s: float = 1.0) -> None:
        """Update wake state from the incident RF power.

        Wake is instantaneous at the threshold; an awake node stays awake as
        long as the incident power covers its dynamic draw.
        """
        if incident_power_w < 0:
            raise BackscatterError("incident power must be >= 0")
        self.harvested_power_w = incident_power_w
        if not self.awake:
            if incident_power_w >= self.wake_threshold_w:
                self.awake = True
        else:
            if incident_power_w < self.dynamic_power_draw_w:
                self.awake = False

    def reflect(self, incident: ComplexSignal) -> ComplexSignal:
        """Reflect the incident signal mixed to +/- shift_freq_hz.

        An asleep node reflects nothing.  The reflected amplitude follows the
        monotone transfer curve; mixing with cos(2 pi f_s t) splits the power
        evenly between the two sidebands, keeping the radio passive.
        """
        if not self.awake:
            return ComplexSignal(
                np.zeros(len(incident), dtype=np.complex128), incident.sample_rate_hz
            )
        p_in = incident.power()
        a = self.transfer_curve.amplitude_ratio(p_in)
        mixer = self.mixer(len(incident), incident.sample_rate_hz)
        return ComplexSignal(a * incident.samples * mixer, incident.sample_rate_hz)

    def mixer(self, n: int, sample_rate_hz: float) -> np.ndarray:
        """The cos(2 pi f_s t) waveform that :meth:`reflect` multiplies in."""
        t = np.arange(n) / sample_rate_hz
        return np.cos(2.0 * np.pi * self.shift_freq_hz * t)
