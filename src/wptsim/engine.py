"""Scenario orchestration: sync, cold start, alignment, mobility, metrics.

A scenario owns the geometry, medium, chirp parameters and seed; running it
executes the full pipeline and accumulates power-percentage, round-count and
heatmap metrics, optionally alongside a random-phase incoherent baseline.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from . import coldstart as cs
from .backscatter import BackscatterNode, TransferCurve
from .beamform import BoundSchedule, KalmanSmoother, OneBitAligner, compute_bound_schedule
from .channel import (
    DEFAULT_FREQ_HZ,
    DEFAULT_TX_GAIN_DBI,
    DEFAULT_TX_POWER_DBM,
    ChannelCoeff,
    MediumMap,
    Position,
    channel,
    dbm_to_watt,
)
from .chirp import ChirpParams, generate_chirp, noise_sigma
# The run path no longer calls awgn or p_ccs0; perfbench/tracer.py patches
# both names in this namespace, so they stay importable from here.
from .chirp import awgn, p_ccs0  # noqa: F401
from .sync import SyncError, run_sync


class EngineError(ValueError):
    pass


@dataclass
class SyncSettings:
    enabled: bool = True
    offset_range: int = 8000          # initial clock offsets, samples
    residual_jitter: int = 60         # post-coarse processing-delay spread
    fine_window_symbols: int = 64


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
    trajectory: list = field(default_factory=list)  # [(time_s, Position), ...]
    feedback_latency_s: float = 1e-3
    sync: SyncSettings = field(default_factory=SyncSettings)
    cold_start: cs.ColdStartConfig = field(default_factory=cs.ColdStartConfig)
    transfer_curve: TransferCurve = field(default_factory=TransferCurve)
    wake_threshold_dbm: float = -20.0
    measurement: str = "signal"       # "signal" | "ideal"
    deadband_frac: float = 0.001
    cold_start_enabled: bool = True   # off: node starts awake (bench mode)

    def __post_init__(self):
        if len(self.slave_positions) < 1:
            raise EngineError("need at least one slave")
        if self.rounds < 1:
            raise EngineError("need at least one alignment round")
        times = [t for t, _ in self.trajectory]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise EngineError("trajectory times must be strictly increasing")

    @property
    def n_slaves(self) -> int:
        return len(self.slave_positions)

    @property
    def round_time_s(self) -> float:
        return self.chirp.symbol_time_s + self.feedback_latency_s

    @property
    def tx_amplitude(self) -> float:
        return math.sqrt(dbm_to_watt(self.tx_power_dbm))


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
    metric_trace: list = field(default_factory=list)      # (round, y_raw, y_smoothed, phi_deg)
    stage_log: list = field(default_factory=list)
    final_phases: list = field(default_factory=list)
    optimal_amplitude_v: float = 0.0
    total_radiated_power_w: float = 0.0

    def to_json(self) -> str:
        doc = asdict(self)
        return json.dumps(doc, sort_keys=True, indent=1)


def node_position_at(trajectory, t: float) -> Position:
    """Piecewise-linear interpolation of the node trajectory."""
    if not trajectory:
        raise EngineError("empty trajectory")
    times = [w[0] for w in trajectory]
    if t < times[0] or t > times[-1]:
        raise EngineError("time outside trajectory span")
    for (t0, p0), (t1, p1) in zip(trajectory, trajectory[1:]):
        if t0 <= t <= t1:
            a = (t - t0) / (t1 - t0)
            return Position(
                p0.x + a * (p1.x - p0.x),
                p0.y + a * (p1.y - p0.y),
                p0.z + a * (p1.z - p0.z),
            )
    return trajectory[-1][1]


def node_track(scn: Scenario) -> np.ndarray:
    """(K, 3) node position per alignment round; a static node has one row.

    Round n sits at trajectory time n * round_time_s, held at the last
    waypoint once the trajectory ends.  Cold start sees row 0.
    """
    if len(scn.trajectory) < 2:
        return np.asarray([scn.node_position], dtype=float)
    end = scn.trajectory[-1][0]
    return np.asarray([node_position_at(scn.trajectory, min(n * scn.round_time_s, end))
                       for n in range(scn.rounds)], dtype=float)


def _run_rng(scn: Scenario):
    """The run's generator after its first draw, one static phase per slave link."""
    rng = np.random.default_rng(scn.seed)
    return rng, rng.uniform(0.0, 2.0 * math.pi, scn.n_slaves)


def _node_links(scn: Scenario, static: np.ndarray, track: np.ndarray) -> ChannelCoeff:
    """(K, N) slave -> node links, one row per row of ``track``."""
    return channel(scn.slave_positions, track[:, None, :], scn.medium,
                   scn.freq_hz, scn.tx_gain_dbi, static_phase_rad=static)


def optimal_amplitude(scn: Scenario, node_coeffs=None):
    """Sum of per-slave lone amplitudes at the node (the coherent optimum).

    ``node_coeffs`` defaults to the coefficients at the node's first
    position; a (K, N) table gives one optimum per row.
    """
    if node_coeffs is None:
        node_coeffs = _node_links(scn, _run_rng(scn)[1], node_track(scn))[0].complex
    return scn.tx_amplitude * np.abs(np.asarray(node_coeffs)).sum(axis=-1)


def _bound_for(scn: Scenario):
    if scn.bound == "adaptive":
        if scn.n_slaves < 2:
            return lambda n: math.radians(30.0)
        return compute_bound_schedule(scn.n_slaves, scn.transfer_curve, horizon=scn.rounds)
    return lambda n, b=math.radians(float(scn.bound)): b


def run_scenario(scn: Scenario) -> Metrics:
    rng, static = _run_rng(scn)
    metrics = Metrics()

    node = BackscatterNode(
        position=scn.node_position,
        wake_threshold_dbm=scn.wake_threshold_dbm,
        transfer_curve=scn.transfer_curve,
    )

    # --- stage 1: chirp synchronization -----------------------------------
    if scn.sync.enabled and scn.n_slaves >= 2:
        metrics.stage_log.append("sync")
        offsets = rng.integers(0, scn.sync.offset_range + 1, scn.n_slaves)
        noise_power = 0.0
        if scn.noise_floor_dbm is not None:
            noise_power = dbm_to_watt(scn.noise_floor_dbm) * (
                scn.chirp.sample_rate_hz / scn.chirp.bandwidth_hz
            )
        try:
            res = run_sync(
                offsets, scn.chirp, rng,
                noise_power=noise_power,
                residual_jitter=scn.sync.residual_jitter,
                fine_window_symbols=scn.sync.fine_window_symbols,
            )
            metrics.sync_residuals = [int(r) for r in res.residual_offsets]
            metrics.sync_rounds = [int(r) for r in res.rounds_per_period]
        except SyncError:
            metrics.sync_failed = True
            return metrics

    # One coefficient table serves every stage: row k holds the links of
    # the node at row k of its track; cold start sees row 0.
    track = node_track(scn)
    node_links = _node_links(scn, static, track)
    to_node = node_links.complex
    to_leader = channel(track, scn.leader_position, scn.medium, scn.freq_hz,
                        tx_gain_dbi=0.0, inbound=False).complex
    optimum = optimal_amplitude(scn, to_node)

    # --- stage 2: cold start ----------------------------------------------
    amps = np.full(scn.n_slaves, scn.tx_amplitude)
    if scn.cold_start_enabled:
        metrics.stage_log.append("cold_start")
        runner = cs.ColdStartRunner(
            node,
            leader_channels=channel(scn.slave_positions, scn.leader_position, MediumMap(),
                                    scn.freq_hz, scn.tx_gain_dbi, static_phase_rad=static),
            node_channels=node_links[0],
            tx_amplitudes=amps,
            config=scn.cold_start,
            rng=rng,
        )
        cs_res = runner.run()
        metrics.cold_start_success = cs_res.success
        metrics.cold_start_rounds = cs_res.rounds_used
        if not cs_res.success:
            return metrics
    else:
        # Bench mode: node is externally primed and never browns out.
        node.awake = True
        node.dynamic_power_draw_w = 0.0
        metrics.cold_start_success = True
        metrics.cold_start_rounds = 0

    # --- stage 3: one-bit alignment ---------------------------------------
    metrics.stage_log.append("alignment")
    metrics.optimal_amplitude_v = float(optimum[0])
    metrics.total_radiated_power_w = float(np.sum(amps ** 2))

    bound = _bound_for(scn)
    smoother = KalmanSmoother() if scn.measurement == "signal" else None
    aligner = OneBitAligner(scn.n_slaves, rng, bound, smoother=smoother,
                            deadband_frac=scn.deadband_frac)

    correlator = _correlator(scn, node)
    # Round n reads row n; a static node's single row serves every round.
    to_node = np.broadcast_to(to_node, (scn.rounds, scn.n_slaves))
    to_leader = np.broadcast_to(to_leader, (scn.rounds,))
    optimum = np.broadcast_to(optimum, (scn.rounds,))

    y_best_history = []
    converged_at = -1
    for n in range(scn.rounds):
        phases = aligner.propose()
        h = scn.tx_amplitude * np.sum(to_node[n] * np.exp(1j * phases))
        p_in = float(np.abs(h) ** 2)
        node.harvest_step(p_in, scn.round_time_s)

        y_raw = _measure(scn, node, h, p_in, to_leader[n], correlator, rng)
        aligner.record(y_raw)

        achieved = abs(h) / optimum[n] if optimum[n] > 0 else 0.0
        metrics.power_trace.append(achieved)
        rnd, raw, smoothed, phi, _ = aligner.trace[-1]
        metrics.metric_trace.append((rnd, raw, smoothed, math.degrees(phi)))

        y_best_history.append(aligner.y_best)
        if converged_at < 0 and len(y_best_history) > 20:
            old = y_best_history[-21]
            if old > 0 and (y_best_history[-1] - old) / old < 0.005:
                converged_at = n
    metrics.rounds_to_converge = converged_at if converged_at >= 0 else scn.rounds
    metrics.final_phases = [float(p) for p in aligner.ref_phases]

    window = max(1, scn.rounds // 4)
    tail = np.asarray(metrics.power_trace[-window:])
    metrics.power_percentage = float(np.mean(tail) ** 2)

    # --- optional incoherent baseline -------------------------------------
    if scn.baseline == "random_phase":
        brng = np.random.default_rng(scn.seed + 0x9E3779B9)
        phases = brng.uniform(0.0, 2.0 * math.pi, (scn.rounds, scn.n_slaves))
        hb = np.abs(scn.tx_amplitude * np.sum(to_node * np.exp(1j * phases), axis=1))
        btrace = np.divide(hb, optimum, out=np.zeros(scn.rounds), where=optimum > 0)
        metrics.baseline_trace = btrace.tolist()
        metrics.baseline_power_percentage = float(np.mean(btrace[-window:] ** 2))

    return metrics


def _correlator(scn: Scenario, node: BackscatterNode) -> tuple[complex, float]:
    """(gain, sigma) of the leader's zero-lag correlator, once per run.

    Each round the leader receives ``ret * a * h * ref * mixer`` plus white
    noise and correlates it at lag 0 against the reference shifted to the
    node's sideband.  The correlation is linear, so its output is
    ``a * h * ret * gain`` with ``gain = vdot(shifted, ref * mixer)``, plus a
    circular complex normal whose real and imaginary parts have std
    ``sigma = noise_sigma * ||shifted||``.
    """
    ref = generate_chirp(scn.chirp).samples
    fs = scn.chirp.sample_rate_hz
    t = np.arange(scn.chirp.n_samples) / fs
    shifted = ref * np.exp(1j * 2.0 * np.pi * node.shift_freq_hz * t)
    gain = complex(np.vdot(shifted, ref * node.mixer(ref.size, fs)))
    sigma = 0.0
    if scn.noise_floor_dbm is not None:
        sigma = noise_sigma(scn.noise_floor_dbm, scn.chirp.bandwidth_hz, fs) * float(
            np.linalg.norm(shifted))
    return gain, sigma


def _measure(scn, node, h, p_in, ret_coeff, correlator, rng):
    """One backscatter power-metric measurement at the leader.

    The exact zero-lag correlation of the round's received chirp, drawn in
    closed form from :func:`_correlator`: one complex normal per round.
    """
    if scn.measurement == "ideal":
        return node.transfer_curve.reflected_power_w(p_in) if node.awake else 0.0
    gain, sigma = correlator
    y = node.transfer_curve.amplitude_ratio(p_in) * h * ret_coeff * gain if node.awake else 0.0
    if scn.noise_floor_dbm is not None:
        z = rng.standard_normal(2)
        y += sigma * complex(z[0], z[1])
    return float(abs(y))


def heatmap(scn: Scenario, phases, grid_points: np.ndarray) -> np.ndarray:
    """Coherent field power per grid point for the given transmit phases."""
    if scn.n_slaves == 0 or len(phases) == 0:
        return np.zeros(grid_points.shape[0])
    m = cs.field_matrix(
        scn.slave_positions, grid_points, scn.freq_hz, scn.tx_gain_dbi,
        static_phases=_run_rng(scn)[1],
        tx_amplitudes=np.full(scn.n_slaves, scn.tx_amplitude),
    )
    return cs.field_power(m, np.asarray(phases))


def aligned_phases(scn: Scenario) -> np.ndarray:
    """Conjugate phases focusing the array on the node position (oracle)."""
    links = channel(scn.slave_positions, scn.node_position, scn.medium, scn.freq_hz,
                    scn.tx_gain_dbi, static_phase_rad=_run_rng(scn)[1])
    return (-links.phase_rad) % (2.0 * math.pi)


def region_axis_ratio(points: np.ndarray, power: np.ndarray, drop_db: float = 3.0) -> float:
    """Principal-axis length ratio of the region within ``drop_db`` of peak.

    On a regular voxel grid only the connected component holding the peak is
    measured, so detached side lobes that graze the threshold do not smear
    the shape estimate.
    """
    mask = power >= power.max() * 10.0 ** (-drop_db / 10.0)
    mask = _peak_component(points, power, mask)
    sel = points[mask]
    if sel.shape[0] < 2:
        return 1.0
    centered = sel - sel.mean(axis=0)
    cov = np.cov(centered.T)
    ev = np.sort(np.linalg.eigvalsh(cov))[::-1]
    ev = ev[ev > 1e-18]
    if ev.size < 2:
        return float("inf")
    return float(math.sqrt(ev[0] / ev[-1]))


def _peak_component(points: np.ndarray, power: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Restrict a voxel mask to the connected blob containing the power peak."""
    from scipy import ndimage

    axes = [np.unique(points[:, k]) for k in range(3)]
    shape = tuple(len(a) for a in axes)
    if int(np.prod(shape)) != points.shape[0]:
        return mask  # not a full regular grid; keep the raw threshold mask
    idx = [np.searchsorted(axes[k], points[:, k]) for k in range(3)]
    flat = np.ravel_multi_index(idx, shape)
    order = np.argsort(flat)
    grid_mask = np.zeros(shape, dtype=bool)
    grid_mask.ravel()[flat[order]] = mask[order]
    labels, _ = ndimage.label(grid_mask)
    peak = int(np.argmax(power))
    peak_label = labels[idx[0][peak], idx[1][peak], idx[2][peak]]
    if peak_label == 0:
        return mask
    keep = labels.ravel()[flat] == peak_label
    return mask & keep


# ---------------------------------------------------------------------------
# Geometry helpers for canonical testbeds.

def ring_positions(n: int, radius_m: float = 6.0, height_m: float = 3.0) -> list:
    """Slaves distributed on a ceiling ring, mirroring the testbed layout."""
    out = []
    for i in range(n):
        a = 2.0 * math.pi * i / n
        out.append(Position(radius_m * math.cos(a), radius_m * math.sin(a), height_m))
    return out


def linear_positions(n: int, spacing_m: float | None = None,
                     freq_hz: float = DEFAULT_FREQ_HZ) -> list:
    """Co-located half-wavelength linear array along x at the origin."""
    from .channel import SPEED_OF_LIGHT

    if spacing_m is None:
        spacing_m = SPEED_OF_LIGHT / freq_hz / 2.0
    x0 = -(n - 1) * spacing_m / 2.0
    return [Position(x0 + i * spacing_m, 0.0, 0.0) for i in range(n)]
