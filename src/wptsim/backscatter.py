"""Behavioral model of the monotonic backscatter radio.

The node wakes on harvested power, and while awake reflects the superposed
carrier shifted by +/- f_s with a reflected power that increases strictly
monotonically with incident power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    increasing and passive (ratio <= 1).
    """

    center_dbm: float = -25.0
    width_db: float = 8.0
    ratio_lo: float = 0.02
    ratio_hi: float = 0.5

    def __post_init__(self):
        if not (0.0 < self.ratio_lo < self.ratio_hi <= 1.0):
            raise BackscatterError("require 0 < ratio_lo < ratio_hi <= 1")
        if self.width_db <= 0:
            raise BackscatterError("width_db must be positive")

    def power_ratio(self, p_in_dbm: float) -> float:
        z = (p_in_dbm - self.center_dbm) / self.width_db
        return self.ratio_lo + (self.ratio_hi - self.ratio_lo) / (1.0 + math.exp(-z))

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


@dataclass
class BackscatterNode:
    position: Position
    wake_threshold_dbm: float = -20.0
    shift_freq_hz: float = 100e3
    transfer_curve: TransferCurve = field(default_factory=TransferCurve)
    dynamic_power_draw_w: float = 42e-6
    awake: bool = False

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
