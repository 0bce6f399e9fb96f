"""Scenario orchestration: sync, cold start, alignment, mobility, metrics.

A scenario owns the geometry, medium, chirp parameters and seed; running it
executes the full pipeline and accumulates power-percentage, round-count and
heatmap metrics, optionally alongside a random-phase incoherent baseline.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, fields
from functools import lru_cache

import numpy as np

from . import coldstart as cs
from .backscatter import SHIFT_FREQ_HZ, BackscatterNode, amplitude_ratio, mixer
from .beamform import compute_bound_schedule
from .channel import (
    DEFAULT_FREQ_HZ,
    DEFAULT_TX_GAIN_DBI,
    DEFAULT_TX_POWER_DBM,
    SPEED_OF_LIGHT,
    MediumMap,
    Position,
    dbm_to_watt,
    incident_field,
    link_coefficients,
    link_geometry,
)
from .chirp import ChirpParams, generate_sweep, sample_noise_power
# The run path no longer calls channel, awgn or p_ccs0; perfbench/tracer.py
# patches these names in this namespace, so they stay importable from here.
from .channel import channel  # noqa: F401
from .chirp import awgn, p_ccs0  # noqa: F401
from .sync import COARSE_CAPTURE_SYMBOLS, SyncError, fine_sync_table_bytes, run_sync


class EngineError(ValueError):
    pass


def _is_finite(x) -> bool:
    """A finite real number, numpy's included; a bool is none."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)


def _is_whole(x, low: int) -> bool:
    """An integer, numpy's included, of at least ``low``; a bool is none."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool) and x >= low


@dataclass
class SyncSettings:
    enabled: bool = True
    offset_range: int = 8000          # initial clock offsets, samples
    residual_jitter: int = 60         # post-coarse processing-delay spread

    def __post_init__(self):
        for name in ("offset_range", "residual_jitter"):
            if not _is_whole(getattr(self, name), 0):
                raise EngineError(
                    f"{name} must be a whole number >= 0, not {getattr(self, name)!r}")


# Ranges of a scenario's power levels, antenna gain and carrier frequency.
# Each is wider than any radio link reaches, and narrow enough that every
# power, field and measurement a run derives from them stays finite: a
# power of 3,083 dBm or more already overflows its conversion to watts.
POWER_RANGE_DBM = (-200.0, 200.0)       # 1e-23 W to 1e17 W
TX_GAIN_RANGE_DBI = (-100.0, 100.0)
FREQ_RANGE_HZ = (3e3, 3e12)             # the ITU's radio spectrum, 3 kHz to 3 THz
_RANGES = {"tx_power_dbm": POWER_RANGE_DBM, "noise_floor_dbm": POWER_RANGE_DBM,
           "wake_threshold_dbm": POWER_RANGE_DBM, "tx_gain_dbi": TX_GAIN_RANGE_DBI,
           "freq_hz": FREQ_RANGE_HZ}
# Fine sync's envelope table, which a process keeps for the next run of the
# same chirp: 256 MiB allows residual jitter up to 503 samples on the README
# chirp with noise, 8x the README's 60 (36 MB).
MAX_FINE_SYNC_TABLE_BYTES = 256 << 20


def _check_range(name: str, v, low: float, high: float) -> None:
    """Refuse ``v``, naming ``name``, unless it is a finite number in [low, high]."""
    if not (_is_finite(v) and low <= v <= high):
        raise EngineError(f"{name} must be in [{low:g}, {high:g}], not {v!r}")


@dataclass
class Scenario:
    slave_positions: list
    leader_position: Position
    node_position: Position
    medium: MediumMap = field(default_factory=MediumMap)
    chirp: ChirpParams = field(default_factory=ChirpParams)
    seed: int = 0
    tx_power_dbm: float = DEFAULT_TX_POWER_DBM
    tx_gain_dbi: float = DEFAULT_TX_GAIN_DBI
    freq_hz: float = DEFAULT_FREQ_HZ
    noise_floor_dbm: float | None = -70.0
    rounds: int = 300
    bound: object = "adaptive"        # "adaptive", or a fixed bound in degrees
    baseline: str = "none"            # "none" | "random_phase"
    speed_m_per_s: float = 0.0        # node drift along +x from node_position
    feedback_latency_s: float = 1e-3
    sync: SyncSettings = field(default_factory=SyncSettings)
    sigma_deg: float = 55.0           # cold-start perturbation bound, degrees
    wake_threshold_dbm: float = -20.0
    cold_start_enabled: bool = True   # off: node starts awake (bench mode)

    def __post_init__(self):
        if len(self.slave_positions) < 1:
            raise EngineError("slave_positions needs at least one slave")
        if not _is_whole(self.rounds, 1):
            raise EngineError(f"rounds must be a whole number >= 1, not {self.rounds!r}")
        if not _is_whole(self.seed, 0):
            raise EngineError(f"seed must be a whole number >= 0, not {self.seed!r}")
        if self.baseline not in ("none", "random_phase"):
            raise EngineError(
                f"baseline must be 'none' or 'random_phase', not {self.baseline!r}")
        if self.bound != "adaptive" and not (
                _is_finite(self.bound) and 0.0 < self.bound <= 180.0):
            raise EngineError(
                f"bound must be 'adaptive' or in (0, 180] degrees, not {self.bound!r}")
        for name in ("feedback_latency_s", "speed_m_per_s"):
            v = getattr(self, name)
            if not (_is_finite(v) and v >= 0.0):
                raise EngineError(f"{name} must be finite and >= 0, not {v!r}")
        for name, (low, high) in _RANGES.items():
            if not (name == "noise_floor_dbm" and self.noise_floor_dbm is None):
                _check_range(name, getattr(self, name), low, high)
        if not (_is_finite(self.sigma_deg) and 0.0 <= self.sigma_deg < 180.0):
            raise EngineError(
                f"sigma_deg must lie in [0, 180) degrees, not {self.sigma_deg!r}")
        if self.sync.enabled and self.n_slaves >= 2:
            # Coarse sync needs each drawn offset to leave the whole preamble
            # inside its capture.
            limit = (COARSE_CAPTURE_SYMBOLS - 1) * self.chirp.n_samples
            if self.sync.offset_range >= limit:
                raise EngineError(f"offset_range must be below {limit} samples, two "
                                  f"symbols of the chirp, not {self.sync.offset_range!r}")
            # Fine sync allocates its whole envelope table before its walk.
            table = fine_sync_table_bytes(self.chirp, self.sync.residual_jitter,
                                          self.noise_floor_dbm is not None)
            if table > MAX_FINE_SYNC_TABLE_BYTES:
                raise EngineError(
                    f"residual_jitter must keep fine sync's table within "
                    f"{MAX_FINE_SYNC_TABLE_BYTES >> 20} MiB; {self.sync.residual_jitter!r} "
                    f"samples on this chirp need {table / 2**20:,.0f} MiB")

    @property
    def n_slaves(self) -> int:
        return len(self.slave_positions)

    @property
    def round_time_s(self) -> float:
        return self.chirp.symbol_time_s + self.feedback_latency_s

    @property
    def tx_amplitude(self) -> float:
        return math.sqrt(dbm_to_watt(self.tx_power_dbm))

    @property
    def trajectory(self) -> np.ndarray:
        """(K, 3) node position per alignment round; a static node has one row.

        Round n sits at time n * round_time_s on the node's drift along +x
        at ``speed_m_per_s`` from ``node_position``.  Cold start sees row 0.
        """
        return _track(self.node_position, self.speed_m_per_s, self.rounds, self.round_time_s)


@dataclass
class Metrics:
    power_percentage: float = 0.0
    baseline_power_percentage: float | None = None
    rounds_to_converge: int = -1
    sync_residuals: list = field(default_factory=list)
    sync_rounds: list = field(default_factory=list)
    sync_failed: bool = False
    cold_start_success: bool = False
    cold_start_rounds: int = -1
    power_trace: list = field(default_factory=list)       # achieved amplitude fraction
    baseline_trace: list = field(default_factory=list)
    metric_trace: list = field(default_factory=list)      # (round, y_raw, y_ref, phi_deg)
    stage_log: list = field(default_factory=list)
    final_phases: list = field(default_factory=list)
    optimal_amplitude_v: float = 0.0
    total_radiated_power_w: float = 0.0

    def as_dict(self) -> dict:
        """Field name -> value, the values shared, not copied.

        Every field is a number, a string, a list or None, so json encodes
        them as they are; dataclasses.asdict would deep-copy every trace.
        """
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_json(self) -> str:
        return document_json(self.as_dict())


# json's C encoder, which writes a value on one line, its dict keys sorted.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(", ", ": "))


def document_json(obj, nl: str = "\n") -> str:
    """The one writer of metrics documents.  A non-empty dict puts each key,
    sorted, on its own line, one space deeper than the dict's own line,
    whose break and indent ``nl`` holds; any other value, each list
    included, is one line of ``_ENCODER``.  The keys of those dicts must be
    strings; a dict inside a list keeps json's own key rules.
    """
    if not (isinstance(obj, dict) and obj):
        return _ENCODER.encode(obj)
    inner = nl + " "
    lines = []
    for key, value in sorted(obj.items()):
        if not isinstance(key, str):
            raise TypeError(f"document keys must be str, not {key!r}")
        lines.append(inner + _ENCODER.encode(key) + ": " + document_json(value, inner))
    return "{" + ",".join(lines) + nl + "}"


def _track(node: Position, speed_m_per_s: float, rounds: int, round_time_s: float):
    """:attr:`Scenario.trajectory` of a node that starts at ``node`` and
    drifts along +x at ``speed_m_per_s``, rounds ``round_time_s`` apart."""
    if speed_m_per_s == 0.0:
        return np.asarray([node], dtype=float)
    end_s = rounds * round_time_s
    start = np.asarray(node, dtype=float)
    end = np.asarray(Position(node.x + speed_m_per_s * end_s, node.y, node.z), dtype=float)
    a = np.arange(rounds)[:, None] * round_time_s / end_s
    return start + a * (end - start)


# What a run draws for.  Each name owns one child of the seed's SeedSequence,
# so one stage's draws never shift another's.  A name's position here fixes
# its child, so reordering the names changes every output.
_STREAM_NAMES = ("static_phases", "sync", "cold_start", "proposals", "noise", "baseline")


def _stream(seed: int, name: str) -> np.random.Generator:
    """The generator of ``name`` for ``seed``: the child that
    ``SeedSequence(seed).spawn(len(_STREAM_NAMES))`` gives at the name's
    position, built alone, so that a run builds only the generators it
    draws from.

    This is the only place that turns a seed into random draws.
    """
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(_STREAM_NAMES.index(name),)))


def _static_phases(scn: Scenario) -> np.ndarray:
    """The unknown static phase of each slave link, from its own stream."""
    return _stream(scn.seed, "static_phases").uniform(0.0, 2.0 * math.pi, scn.n_slaves)


def optimal_amplitude(scn: Scenario, node_coeffs) -> np.ndarray:
    """Sum of per-slave lone amplitudes at the node (the coherent optimum),
    one per row of the (K, N) slave -> node coefficients ``node_coeffs``."""
    return scn.tx_amplitude * np.abs(np.asarray(node_coeffs)).sum(axis=-1)


def _bounds(scn: Scenario) -> np.ndarray:
    """(rounds,) phase bound of each alignment round, in radians."""
    if scn.bound != "adaptive":
        return np.full(scn.rounds, math.radians(float(scn.bound)))
    if scn.n_slaves < 2:
        return np.full(scn.rounds, math.radians(30.0))
    return compute_bound_schedule(scn.n_slaves, horizon=scn.rounds)


def power_percentage(fractions: np.ndarray) -> float:
    """Average power over the last quarter of the rounds (at least one), as
    a fraction of the coherent optimum's: the mean of the squares of the
    per-round amplitude fractions ``fractions``."""
    window = max(1, fractions.size // 4)
    return float(np.mean(fractions[-window:] ** 2))


def _converged_at(y_ref: np.ndarray) -> int:
    """First round whose reference metric, which never falls, rose by under
    0.5% over the previous 20 rounds; ``len(y_ref)`` when none did."""
    old, new = y_ref[:-20], y_ref[20:]
    rise = np.divide(new - old, old, out=np.full(old.shape, np.inf), where=old > 0)
    hits = np.flatnonzero(rise < 0.005)
    return int(hits[0]) + 20 if hits.size else len(y_ref)


# Geometries whose seed-free link tables a process keeps, per table
# function.  Runs of one geometry, seed after seed, need one; bench_set
# alternates two (3 and 24 slaves).  A static node's entry takes a few
# hundred bytes; a moving node's holds float tables of its track, (K, N)
# and (K,): 120 KB at 300 rounds and 24 slaves, 8 MB at 20,000 rounds.
LINK_CACHE_SIZE = 2


@lru_cache(maxsize=LINK_CACHE_SIZE)
def _track_links(slaves: tuple, leader: Position, node: Position, medium: MediumMap,
                 freq_hz: float, tx_gain_dbi: float, speed_m_per_s: float, rounds: int,
                 round_time_s: float) -> tuple:
    """The read-only (gain, phase) pairs of :func:`channel.link_geometry`,
    slave -> node over the node's :func:`_track` and node -> leader, which
    no seed enters: a run looks them up by everything they depend on."""
    track = _track(node, speed_m_per_s, rounds, round_time_s)
    return (link_geometry(slaves, track[:, None, :], medium, freq_hz, tx_gain_dbi),
            link_geometry(track, leader, medium, freq_hz, tx_gain_dbi=0.0, inbound=False))


@lru_cache(maxsize=LINK_CACHE_SIZE)
def _air_links(slaves: tuple, leader: Position, freq_hz: float, tx_gain_dbi: float) -> tuple:
    """Cold start's slave -> leader (gain, phase) in air, as :func:`_track_links`."""
    return link_geometry(slaves, leader, MediumMap(), freq_hz, tx_gain_dbi)


def run_scenario(scn: Scenario) -> Metrics:
    """Run the pipeline (sync, cold start, alignment) and return its metrics.

    Each stage draws from its own stream of the seed (:func:`_stream`).
    Alignment is the one-bit walk of :func:`_align`.
    """
    static = _static_phases(scn)
    metrics = Metrics()
    noise_power = 0.0
    if scn.noise_floor_dbm is not None:
        noise_power = sample_noise_power(scn.noise_floor_dbm, scn.chirp.bandwidth_hz,
                                         scn.chirp.sample_rate_hz)

    # --- stage 1: chirp synchronization -----------------------------------
    if scn.sync.enabled and scn.n_slaves >= 2:
        metrics.stage_log.append("sync")
        rng = _stream(scn.seed, "sync")
        offsets = rng.integers(0, scn.sync.offset_range + 1, scn.n_slaves)
        try:
            res = run_sync(
                offsets, scn.chirp, rng,
                noise_power=noise_power,
                residual_jitter=scn.sync.residual_jitter,
            )
            metrics.sync_residuals = [int(r) for r in res.residual_offsets]
            metrics.sync_rounds = [int(r) for r in res.rounds_per_period]
        except SyncError:
            metrics.sync_failed = True
            return metrics

    # One (K, N) table of slave -> node links serves every stage: row k
    # holds the links of the node at row k of its track; cold start sees row 0.
    slaves = tuple(scn.slave_positions)
    node_links, leader_links = _track_links(
        slaves, scn.leader_position, scn.node_position, scn.medium, scn.freq_hz,
        scn.tx_gain_dbi, scn.speed_m_per_s, scn.rounds, scn.round_time_s)
    to_node = link_coefficients(*node_links, static_phase_rad=static)
    to_leader = link_coefficients(*leader_links)
    optimum = optimal_amplitude(scn, to_node)

    # --- stage 2: cold start ----------------------------------------------
    if scn.cold_start_enabled:
        metrics.stage_log.append("cold_start")
        node = BackscatterNode(wake_threshold_dbm=scn.wake_threshold_dbm)
        runner = cs.ColdStartRunner(
            node,
            leader_channels=link_coefficients(
                *_air_links(slaves, scn.leader_position, scn.freq_hz, scn.tx_gain_dbi),
                static_phase_rad=static),
            node_channels=to_node[0],
            tx_amplitude=scn.tx_amplitude,
            sigma_deg=scn.sigma_deg,
            rng=_stream(scn.seed, "cold_start"),
        )
        cs_res = runner.run()
        metrics.cold_start_success = cs_res.success
        metrics.cold_start_rounds = cs_res.rounds_used
        if not cs_res.success:
            return metrics
    else:
        # Bench mode: node is externally primed and never browns out.
        node = BackscatterNode(wake_threshold_dbm=scn.wake_threshold_dbm,
                               dynamic_power_draw_w=0.0, awake=True)
        metrics.cold_start_success = True
        metrics.cold_start_rounds = 0

    # --- stage 3: one-bit alignment ---------------------------------------
    metrics.stage_log.append("alignment")
    metrics.optimal_amplitude_v = float(optimum[0])
    # The sum of the slaves' powers, which n * a**2 can miss in the last bit.
    metrics.total_radiated_power_w = float(
        np.sum(np.full(scn.n_slaves, scn.tx_amplitude) ** 2))

    bounds = _bounds(scn)
    # Round n reads row n; a static node's single row serves every round.
    to_node = np.broadcast_to(to_node, (scn.rounds, scn.n_slaves))
    to_leader = np.broadcast_to(to_leader, (scn.rounds,))
    optimum = np.broadcast_to(optimum, (scn.rounds,))
    correlator = _correlator(scn.chirp, noise_power)
    raw, y_ref, achieved, phases = _align(
        scn, node, bounds, to_node, to_leader, optimum, correlator,
        _stream(scn.seed, "proposals"), _stream(scn.seed, "noise") if correlator[1] else None)

    metrics.power_trace = achieved
    metrics.metric_trace = list(zip(range(scn.rounds), raw, y_ref,
                                    np.degrees(bounds).tolist()))
    metrics.rounds_to_converge = _converged_at(np.asarray(y_ref))
    metrics.final_phases = phases.tolist()
    metrics.power_percentage = power_percentage(np.asarray(achieved))

    # --- optional incoherent baseline -------------------------------------
    if scn.baseline == "random_phase":
        phases = _stream(scn.seed, "baseline").uniform(0.0, 2.0 * math.pi,
                                                       (scn.rounds, scn.n_slaves))
        hb = np.abs(incident_field(to_node, phases, scn.tx_amplitude))
        btrace = np.divide(hb, optimum, out=np.zeros(scn.rounds), where=optimum > 0)
        metrics.baseline_trace = btrace.tolist()
        metrics.baseline_power_percentage = power_percentage(btrace)

    return metrics


# Rounds per speculative block of the alignment walk (see _align).  Over
# criterion 4's 200 bench scenarios a block runs 4.74 rounds on average,
# total rounds over blocks drawn: 6.70 with 3 slaves, 3.66 with 24, whose
# proposals are accepted more often.
BLOCK_ROUNDS = 8


def _align(scn, node, bounds, to_node, to_leader, optimum, correlator, proposals_rng,
           noise_rng):
    """(raw, y_ref, achieved, phases) of the one-bit alignment walk: lists of
    each round's raw measurement, ``y_ref`` after the round's decision and
    achieved amplitude fraction, then the final reference phases.

    The walk's state is the reference phases, first drawn uniform on
    [0, 2 pi), and ``y_ref``, the value measured when they last moved.
    Round n proposes them moved by a uniform draw within +/- ``bounds[n]``,
    wrapped to [0, 2 pi), and keeps the proposal iff its raw measurement
    beats ``y_ref`` (-inf before round 0, which is always kept): the rule
    ``y_ref' = max(y_ref, y)`` that :func:`beamform._step_over_grid`
    analyses.  A measurement that is not finite raises :class:`EngineError`.

    One ``uniform`` draw from ``proposals_rng`` gives every round's offsets
    and one ``standard_normal`` draw from ``noise_rng`` every round's noise
    pair ``z``, each equal to the per-round draws bit for bit.  The pairs
    become one table of the rounds' noise, ``sigma * (z0 + i z1)`` with
    ``(gain, sigma) = correlator``; a run without receiver noise passes no
    ``noise_rng`` and every round's noise is 0.  The rounds run in
    speculative blocks of up to ``BLOCK_ROUNDS``: every round up to the next
    accept starts from the same reference phases, so one vectorized pass
    gives a block's proposals and incident fields, and a scalar walk
    harvests, measures and decides each round in turn; the rest of a block
    after an accept is discarded.  Each value equals the per-round loop's
    bit for bit: each row's sum is the pairwise sum ``np.sum`` takes of that
    row alone, and ``p_in`` and ``achieved`` read the same magnitudes of
    ``h`` that the per-round loop read.  The walk reads every number as a
    Python float or complex (``tolist``), whose arithmetic rounds as numpy's
    scalars do; each :func:`_measure` call is one round.
    """
    rounds = scn.rounds
    ref_phases = proposals_rng.uniform(0.0, 2.0 * math.pi, scn.n_slaves)
    phi = bounds[:, None]
    offsets = proposals_rng.uniform(-phi, phi, (rounds, scn.n_slaves))
    gain, sigma = correlator
    noise = [0j] * rounds
    if noise_rng is not None:
        z = noise_rng.standard_normal((rounds, 2))
        noise = (sigma * (z[:, 0] + 1j * z[:, 1])).tolist()
    to_leader, optimum = to_leader.tolist(), optimum.tolist()
    amplitude, round_time_s = scn.tx_amplitude, scn.round_time_s
    ref_y = -math.inf
    raw, y_ref, achieved = [], [], []
    n = 0
    while n < rounds:
        stop = min(n + BLOCK_ROUNDS, rounds)
        proposals = (ref_phases + offsets[n:stop]) % (2.0 * math.pi)
        fields = incident_field(to_node[n:stop], proposals, amplitude)
        # numpy's vectorized |h| (np.abs of the block) and the scalar abs(h)
        # can differ in the last bit: p_in has always read the first and the
        # achieved fraction the second.  The square is the scalar power
        # ``mag ** 2``, which can differ from ``mag * mag``.
        for k, (h, mag) in enumerate(zip(fields.tolist(), np.abs(fields).tolist())):
            p_in = mag ** 2
            node.harvest_step(p_in, round_time_s)
            y_raw = _measure(node, h, p_in, to_leader[n], gain, noise[n])
            if not math.isfinite(y_raw):
                raise EngineError(f"round {n}: measurement must be finite, not {y_raw!r}")
            raw.append(y_raw)
            accepted = y_raw > ref_y
            if accepted:
                ref_phases, ref_y = proposals[k], y_raw
            y_ref.append(ref_y)
            achieved.append(abs(h) / optimum[n] if optimum[n] > 0 else 0.0)
            n += 1
            if accepted:
                break
    return raw, y_ref, achieved, ref_phases


@lru_cache(maxsize=16)
def _correlator(chirp: ChirpParams, noise_power: float) -> tuple[complex, float]:
    """(gain, sigma) of the leader's zero-lag correlator, which depend on the
    chirp and the noise only, so that a run does not rebuild its reference
    symbol.

    Each round the leader receives ``ret * a * h * ref * mixer`` plus white
    noise and correlates it at lag 0 against the reference shifted to the
    node's sideband.  The correlation is linear, so its output is
    ``a * h * ret * gain`` with ``gain = vdot(shifted, ref * mixer)``, plus a
    circular complex normal whose real and imaginary parts have std
    ``sigma = sqrt(noise_power / 2) * ||shifted||``, with ``noise_power``
    the receiver noise in the sample domain.
    """
    ref = generate_sweep(chirp, 1)
    fs = chirp.sample_rate_hz
    t = np.arange(chirp.n_samples) / fs
    shifted = ref * np.exp(1j * 2.0 * np.pi * SHIFT_FREQ_HZ * t)
    gain = complex(np.vdot(shifted, ref * mixer(ref.size, fs)))
    return gain, math.sqrt(noise_power / 2.0) * float(np.linalg.norm(shifted))


def _measure(node, h, p_in, ret_coeff, gain, noise):
    """One backscatter power-metric measurement at the leader.

    The exact zero-lag correlation of the round's received chirp, in closed
    form from :func:`_correlator`'s ``gain``, plus the round's complex
    ``noise``: one draw of its circular normal, 0 without receiver noise.
    """
    y = amplitude_ratio(p_in) * h * ret_coeff * gain if node.awake else 0.0
    return float(abs(y + noise))


# Voxels per heat-map block, to bound its (block, N) temporaries: the
# fastest of 170, 256, 512 and 1,024 on a 24-slave, 8,000-voxel map.
HEATMAP_BLOCK_VOXELS = 256


def heatmap(scn: Scenario, phases, grid_points: np.ndarray) -> np.ndarray:
    """Coherent field power per grid point for the given transmit phases;
    a voxel's power does not depend on the block it falls in."""
    phases = np.asarray(phases, dtype=float)
    if phases.shape != (scn.n_slaves,):
        raise EngineError(f"need {scn.n_slaves} phases, not shape {phases.shape}")
    slaves = np.asarray(scn.slave_positions, dtype=float)
    static = _static_phases(scn)
    power = np.empty(grid_points.shape[0])
    for lo in range(0, len(power), HEATMAP_BLOCK_VOXELS):
        block = slice(lo, lo + HEATMAP_BLOCK_VOXELS)
        m = cs.field_matrix(slaves, grid_points[block], scn.freq_hz,
                            scn.tx_gain_dbi, static_phases=static,
                            tx_amplitude=scn.tx_amplitude)
        power[block] = cs.field_power(m, phases)
    return power


# ---------------------------------------------------------------------------
# Geometry helpers for canonical testbeds.

def ring_positions(n: int, radius_m: float, height_m: float) -> list:
    """Slaves distributed on a ceiling ring, mirroring the testbed layout."""
    out = []
    for i in range(n):
        a = 2.0 * math.pi * i / n
        out.append(Position(radius_m * math.cos(a), radius_m * math.sin(a), height_m))
    return out


def linear_positions(n: int, freq_hz: float = DEFAULT_FREQ_HZ) -> list:
    """Co-located half-wavelength linear array along x at the origin."""
    _check_range("freq_hz", freq_hz, *FREQ_RANGE_HZ)
    spacing_m = SPEED_OF_LIGHT / freq_hz / 2.0
    x0 = -(n - 1) * spacing_m / 2.0
    return [Position(x0 + i * spacing_m, 0.0, 0.0) for i in range(n)]
