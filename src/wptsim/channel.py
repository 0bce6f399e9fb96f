"""RF channel model: geometry, segment-wise path loss and complex coefficients.

The propagation path between a transmitter outside the body and a node
embedded in tissue is described as an ordered list of medium segments
(air, skin boundary, muscle, insertion point).  Losses are composed in dB;
a link is one complex number, gain times e^{j phase}.  :func:`channel` is
the one model every stage uses; it broadcasts over arrays of positions, so
a whole table of links (rounds x slaves, or grid points x slaves) is one
complex array.  It is two halves: :func:`link_geometry`, the gains and
geometric phases, which no seed enters, and :func:`link_coefficients`,
which adds a seed's static phases; the engine computes the first once per
geometry and reuses it for every seed.  :func:`incident_field` is the one
field sum that every stage reads: cold start, alignment, the baseline and,
through ``coldstart.field_power``, the heat map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

# Table-style link budgets in this domain conventionally use c = 3e8.
SPEED_OF_LIGHT = 3.0e8

DEFAULT_FREQ_HZ = 915e6
DEFAULT_TX_GAIN_DBI = 4.0
DEFAULT_TX_POWER_DBM = 30.0

SKIN_LOSS_IN_DB = 3.0
SKIN_LOSS_OUT_DB = 5.0
INSERTION_LOSS_DB = 30.0
MUSCLE_SLOPE_DB_PER_M = 460.0  # 9.2 dB @ 2 cm, 27.6 dB @ 6 cm


class ChannelError(ValueError):
    """Invalid geometry or medium description."""


@dataclass(frozen=True)
class Position:
    x: float
    y: float
    z: float

    def __post_init__(self):
        for v in (self.x, self.y, self.z):
            if not math.isfinite(v):
                raise ChannelError("position coordinates must be finite")

    def __array__(self, dtype=None, copy=None):
        """Coordinates as a (3,) array, so lists of positions stack to (N, 3)."""
        return np.array([self.x, self.y, self.z], dtype=dtype)


class SegmentKind(Enum):
    AIR = "air"
    SKIN_IN = "skin_in"
    SKIN_OUT = "skin_out"
    MUSCLE = "muscle"
    INSERTION = "insertion"


# Boundary-style segments whose loss does not depend on length.
_FIXED_LOSS = {
    SegmentKind.SKIN_IN: SKIN_LOSS_IN_DB,
    SegmentKind.SKIN_OUT: SKIN_LOSS_OUT_DB,
    SegmentKind.INSERTION: INSERTION_LOSS_DB,
}


@dataclass(frozen=True)
class MediumSegment:
    """One traversed medium.  ``length_m`` is a length in m, or an array of
    lengths, one per link, that every computation carries elementwise."""

    kind: SegmentKind
    length_m: float | np.ndarray = 0.0

    def __post_init__(self):
        # ndarray.any: np.any's dispatch costs more than the test itself.
        length = np.asarray(self.length_m)
        if self.kind in _FIXED_LOSS:
            if (length != 0.0).any():
                raise ChannelError(f"{self.kind.value} segments carry no length")
        elif (length < 0).any():
            raise ChannelError("segment length must be >= 0")

    def loss_db(self, freq_hz: float = DEFAULT_FREQ_HZ):
        if self.kind is SegmentKind.AIR:
            return air_loss(self.length_m, freq_hz)
        if self.kind is SegmentKind.MUSCLE:
            return muscle_loss(self.length_m)
        return _FIXED_LOSS[self.kind]


def air_loss(d_m, freq_hz: float = DEFAULT_FREQ_HZ):
    """Free-space path loss in dB, elementwise over ``d_m``.

    Reproduces the 31.67 dB (1 m) and 51.67 dB (10 m) endpoints at 915 MHz.
    """
    if (np.asarray(d_m) <= 0).any() or freq_hz <= 0:
        raise ChannelError("distance and frequency must be positive")
    return 20.0 * np.log10(4.0 * math.pi * d_m * freq_hz / SPEED_OF_LIGHT)


def muscle_loss(d_m):
    """Muscle path loss in dB, linear in depth (4.6 dB/cm), zero at d = 0."""
    if (np.asarray(d_m) < 0).any():
        raise ChannelError("muscle depth must be >= 0")
    return MUSCLE_SLOPE_DB_PER_M * d_m


@dataclass(frozen=True)
class LinkBudget:
    """A link's budget; array segment lengths give arrays of all three."""

    total_loss_db: float
    phase_rad: float  # geometric phase, in [0, 2*pi)
    path_length_m: float


def compose_budget(segments, freq_hz: float = DEFAULT_FREQ_HZ) -> LinkBudget:
    """Compose a link budget from an ordered segment list.

    Total loss is the dB sum of per-segment losses; the geometric phase is
    2*pi * path_length / lambda modulo 2*pi.
    """
    segments = tuple(segments)
    if not segments:
        raise ChannelError("segment list must be non-empty")
    total = sum(s.loss_db(freq_hz) for s in segments)
    wavelength = SPEED_OF_LIGHT / freq_hz
    path_len = sum(s.length_m for s in segments)
    phase = (2.0 * math.pi * path_len / wavelength) % (2.0 * math.pi)
    return LinkBudget(total_loss_db=total, phase_rad=phase, path_length_m=path_len)


def received_power_dbm(tx_power_dbm: float, budget: LinkBudget) -> float:
    return tx_power_dbm - budget.total_loss_db


@dataclass(frozen=True)
class MediumMap:
    """Tissue description for a link whose far end sits inside muscle.

    ``muscle_depth_m`` is the in-tissue depth of the embedded node; zero means
    an air-only link.  The skin boundary cost depends on direction: 3 dB going
    into the body, 5 dB coming out.
    """

    muscle_depth_m: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.muscle_depth_m) and self.muscle_depth_m >= 0):
            raise ChannelError(
                f"muscle_depth_m must be finite and >= 0, not {self.muscle_depth_m!r}")


def one_way_segments(distance_m, medium: MediumMap, inbound: bool):
    """Segments for one traversal of ``distance_m``, a link length or an
    array of them; ``inbound`` means air -> tissue."""
    depth = medium.muscle_depth_m
    if (depth >= np.asarray(distance_m)).any():
        raise ChannelError("muscle depth must be smaller than link distance")
    if depth == 0.0:
        return [MediumSegment(SegmentKind.AIR, distance_m)]
    air = MediumSegment(SegmentKind.AIR, distance_m - depth)
    muscle = MediumSegment(SegmentKind.MUSCLE, depth)
    if inbound:
        return [air, MediumSegment(SegmentKind.SKIN_IN), muscle]
    return [muscle, MediumSegment(SegmentKind.SKIN_OUT), air]


def link_geometry(
    tx,
    rx,
    medium: MediumMap = MediumMap(),
    freq_hz: float = DEFAULT_FREQ_HZ,
    tx_gain_dbi: float = DEFAULT_TX_GAIN_DBI,
    inbound: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """(gain, phase_rad) of the links between transmit and receive positions:
    the half of :func:`channel` that no seed enters, as read-only arrays.

    ``tx`` and ``rx`` are positions, lists of them or (..., 3) coordinate
    arrays; they broadcast against each other.  The loss and the geometric
    phase are the :func:`compose_budget` of :func:`one_way_segments` over the
    array of link distances; one pair of positions gives 0-d arrays.
    """
    tx, rx = np.asarray(tx, dtype=float), np.asarray(rx, dtype=float)
    # Raw coordinate arrays skip Position's check; NaN would pass every
    # range test below and come out as a NaN gain and phase.
    if not (np.isfinite(tx).all() and np.isfinite(rx).all()):
        raise ChannelError("position coordinates must be finite")
    # Coordinate by coordinate, so no (..., 3) temporary outlives its term.
    d = np.sqrt(sum((tx[..., k] - rx[..., k]) ** 2 for k in range(3)))
    if (d == 0.0).any():
        raise ChannelError("tx and rx positions must be distinct")
    budget = compose_budget(one_way_segments(d, medium, inbound), freq_hz)
    gain = np.asarray(10.0 ** (-budget.total_loss_db / 20.0) * 10.0 ** (tx_gain_dbi / 20.0))
    phase = np.asarray(budget.phase_rad)
    gain.flags.writeable = phase.flags.writeable = False
    return gain, phase


def link_coefficients(gain, phase_rad, static_phase_rad=0.0):
    """``gain * exp(1j * phase)`` with ``phase = (phase_rad + static_phase_rad)
    mod 2 pi``: the half of :func:`channel` that the seed enters through
    ``static_phase_rad``, which broadcasts against the links' shape."""
    phase = (phase_rad + static_phase_rad) % (2.0 * math.pi)
    return gain * np.exp(1j * phase)


def channel(
    tx,
    rx,
    medium: MediumMap = MediumMap(),
    freq_hz: float = DEFAULT_FREQ_HZ,
    tx_gain_dbi: float = DEFAULT_TX_GAIN_DBI,
    static_phase_rad=0.0,
    inbound: bool = True,
) -> np.ndarray:
    """Complex channel coefficients between transmit and receive positions:
    the :func:`link_coefficients` of the :func:`link_geometry` of ``tx`` and
    ``rx``.

    ``static_phase_rad`` models the unknown per-link hardware/propagation
    phase offset; the scenario draws it once per link from its seed, so the
    result is deterministic for a given scenario.  Each is
    ``gain * exp(1j * phase)``; one pair of positions gives a scalar.
    """
    return link_coefficients(*link_geometry(tx, rx, medium, freq_hz, tx_gain_dbi, inbound),
                             static_phase_rad)


def incident_field(coeffs, phases, amplitude: float):
    """The field at the receiver: ``amplitude`` times the sum over slaves,
    the last axis, of each link coefficient times ``exp(1j * phase)``."""
    return amplitude * np.add.reduce(coeffs * np.exp(1j * phases), axis=-1)


def dbm_to_watt(p_dbm: float) -> float:
    return 10.0 ** (p_dbm / 10.0) * 1e-3


def watt_to_dbm(p_w: float) -> float:
    if p_w <= 0:
        return -math.inf
    return 10.0 * math.log10(p_w / 1e-3)
