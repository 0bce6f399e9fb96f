"""Behavioral model of the monotonic backscatter radio.

The node wakes on harvested power, and while awake reflects the superposed
carrier shifted by +/- f_s with a reflected power that increases strictly
monotonically with incident power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import dbm_to_watt


class BackscatterError(ValueError):
    pass


# +/- shift of the reflected carrier, in Hz.
SHIFT_FREQ_HZ = 100e3

# Input power (dBm) -> reflected power ratio: a logistic in the dB domain,
# centered at CURVE_CENTER_DBM with width CURVE_WIDTH_DB, between RATIO_LO
# and RATIO_HI.  Reflected power = ratio * incident power is then strictly
# increasing and passive (ratio <= 1).
CURVE_CENTER_DBM = -25.0
CURVE_WIDTH_DB = 8.0
RATIO_LO = 0.02
RATIO_HI = 0.5


def amplitude_ratio(p_in_w: float) -> float:
    """Reflected over incident amplitude at incident power ``p_in_w`` (W):
    the square root of the curve's power ratio at ``p_in_w`` in dBm, 0 at no
    power."""
    if p_in_w <= 0:
        return 0.0
    z = (10.0 * math.log10(p_in_w / 1e-3) - CURVE_CENTER_DBM) / CURVE_WIDTH_DB
    ratio = RATIO_LO + (RATIO_HI - RATIO_LO) / (1.0 + math.exp(-z))
    # Reflected over incident power, rounded as each is, not ratio itself.
    return math.sqrt(ratio * p_in_w / p_in_w)


def mixer(n: int, sample_rate_hz: float) -> np.ndarray:
    """The cos(2 pi f_s t) waveform that a reflection multiplies in."""
    t = np.arange(n) / sample_rate_hz
    return np.cos(2.0 * np.pi * SHIFT_FREQ_HZ * t)


@dataclass
class BackscatterNode:
    wake_threshold_dbm: float = -20.0
    dynamic_power_draw_w: float = 42e-6
    awake: bool = False

    @property
    def wake_threshold_w(self) -> float:
        return dbm_to_watt(self.wake_threshold_dbm)

    def harvest_step(self, power_w: float, dt_s: float = 1.0) -> None:
        """Update wake state from the incident RF power.

        Wake is instantaneous at the threshold; an awake node stays awake as
        long as the incident power covers its dynamic draw.
        """
        if power_w < 0:
            raise BackscatterError("incident power must be >= 0")
        if not self.awake:
            if power_w >= self.wake_threshold_w:
                self.awake = True
        else:
            if power_w < self.dynamic_power_draw_w:
                self.awake = False

    def reflect(self, samples: np.ndarray, sample_rate_hz: float) -> np.ndarray:
        """Reflect the incident samples mixed to +/- ``SHIFT_FREQ_HZ``.

        An asleep node reflects nothing.  The reflected amplitude follows the
        monotone transfer curve of the mean incident power; mixing with
        cos(2 pi f_s t) splits the power evenly between the two sidebands,
        keeping the radio passive.
        """
        if not self.awake:
            return np.zeros(samples.size, dtype=np.complex128)
        a = amplitude_ratio(float(np.mean(np.abs(samples) ** 2)))
        return a * samples * mixer(samples.size, sample_rate_hz)
