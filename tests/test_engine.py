import json
import math

import numpy as np
import pytest
from scipy.special import ive
from scipy.stats import ks_2samp

from test_golden import SCENARIOS, mismatches
from wptsim import coldstart as cs, engine
from wptsim.backscatter import BackscatterNode
from wptsim.beamform import OneBitAligner
from wptsim.channel import MediumMap, Position, SPEED_OF_LIGHT, channel
from wptsim.chirp import ChirpParams, ComplexSignal, awgn, generate_chirp, p_ccs0
from wptsim.cli import build_scenario, parse_config
from wptsim.engine import (
    EngineError,
    Scenario,
    SyncSettings,
    heatmap,
    aligned_phases,
    linear_positions,
    node_position_at,
    optimal_amplitude,
    region_axis_ratio,
    ring_positions,
    run_scenario,
)

FAST_CHIRP = ChirpParams(bandwidth_hz=40e3, symbol_time_s=1e-3,
                         sample_rate_hz=512e3)


def bench_scenario(n=4, seed=0, rounds=40, **kw):
    args = dict(
        slave_positions=ring_positions(n, radius_m=1.0, height_m=0.0),
        leader_position=Position(0, 0, 0),
        node_position=Position(0, 0, -0.1),
        medium=MediumMap(muscle_depth_m=0.05),
        chirp=FAST_CHIRP,
        seed=seed,
        rounds=rounds,
        sync=SyncSettings(enabled=False),
        cold_start_enabled=False,
    )
    args.update(kw)
    return Scenario(**args)


def test_scenario_validation():
    with pytest.raises(EngineError):
        Scenario(slave_positions=[], leader_position=Position(0, 0, 0),
                 node_position=Position(0, 0, -0.1))
    with pytest.raises(EngineError):
        bench_scenario(trajectory=[(0.0, Position(0, 0, 0)),
                                   (0.0, Position(1, 0, 0))])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_scenario_needs_a_round():
    # rounds=0 used to average an empty tail into a NaN power percentage.
    with pytest.raises(EngineError):
        bench_scenario(rounds=0)
    m = run_scenario(bench_scenario(rounds=1))
    assert math.isfinite(m.power_percentage) and len(m.power_trace) == 1


def test_run_is_deterministic():
    a = run_scenario(bench_scenario(seed=11)).to_json()
    b = run_scenario(bench_scenario(seed=11)).to_json()
    assert a == b


def test_different_seeds_differ():
    a = run_scenario(bench_scenario(seed=1)).to_json()
    b = run_scenario(bench_scenario(seed=2)).to_json()
    assert a != b


def test_power_percentage_cannot_beat_optimum():
    m = run_scenario(bench_scenario(rounds=120))
    assert 0.0 <= m.power_percentage <= 1.05
    assert max(m.power_trace) <= 1.0 + 1e-9


def test_stage_ordering_full_pipeline():
    scn = bench_scenario(rounds=20, sync=SyncSettings(enabled=True,
                                                      offset_range=300,
                                                      residual_jitter=10,
                                                      fine_window_symbols=32),
                         cold_start_enabled=True, wake_threshold_dbm=-35.0)
    m = run_scenario(scn)
    assert m.stage_log == ["sync", "cold_start", "alignment"]
    assert m.cold_start_success


def test_offset_beyond_coarse_window_sets_sync_failed():
    # Offsets up to 100 symbols: the first slave's preamble misses the
    # three-symbol coarse capture and run_sync raises SyncError.
    scn = bench_scenario(sync=SyncSettings(enabled=True,
                                           offset_range=100 * FAST_CHIRP.n_samples))
    m = run_scenario(scn)
    assert m.sync_failed
    assert m.stage_log == ["sync"]
    assert m.power_trace == []


def test_run_computes_each_link_table_once(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return channel(*args, **kwargs)

    monkeypatch.setattr(engine, "channel", counted)
    total = 40 * bench_scenario().round_time_s
    scn = bench_scenario(rounds=40, baseline="random_phase", cold_start_enabled=True,
                         wake_threshold_dbm=-35.0,
                         trajectory=[(0.0, Position(0, 0, -0.1)),
                                     (total, Position(0.05, 0, -0.1))])
    m = run_scenario(scn)
    assert m.cold_start_success and len(m.baseline_trace) == 40
    # slave -> node over every round, node -> leader, slave -> leader.
    assert len(calls) == 3


# ---------------------------------------------------------------------------
# The closed-form measurement against the sample-level chain it replaces.

def _measure_by_samples(scn, node, h, p_in, ret_coeff, correlator, rng):
    """Sample-level oracle for ``engine._measure``: the node reflects the
    incident chirp, the leader adds white noise and correlates at lag 0
    against the reference shifted to the node's sideband.  ``correlator``
    is ignored; everything is rebuilt from the samples."""
    fs = scn.chirp.sample_rate_hz
    ref_sym = generate_chirp(scn.chirp)
    t = np.arange(scn.chirp.n_samples) / fs
    shifted_ref = ComplexSignal(
        ref_sym.samples * np.exp(1j * 2.0 * np.pi * node.shift_freq_hz * t), fs)
    reflected = node.reflect(ComplexSignal(h * ref_sym.samples, fs))
    rx = reflected.samples * ret_coeff
    if scn.noise_floor_dbm is not None:
        rx = rx + awgn(rx.size, rng, noise_floor_dbm=scn.noise_floor_dbm,
                       bandwidth_hz=scn.chirp.bandwidth_hz, sample_rate_hz=fs)
    return p_ccs0(ComplexSignal(rx, fs), shifted_ref)


def _rician_mean(nu, sigma):
    """E|nu + sigma (z1 + i z2)| for standard normals z1, z2."""
    v = nu * nu / (2.0 * sigma * sigma)
    laguerre = (1.0 + v) * ive(0, v / 2.0) + v * ive(1, v / 2.0)
    return sigma * math.sqrt(math.pi / 2.0) * laguerre


@pytest.mark.parametrize("snr", [1.0, 4.0, None])   # None: the node sleeps
def test_closed_form_measurement_matches_samples_in_distribution(snr):
    draws = 2000
    scn = bench_scenario()
    node = BackscatterNode(position=scn.node_position, awake=snr is not None)
    h = 0.02 * np.exp(0.4j)
    p_in = abs(h) ** 2
    correlator = engine._correlator(scn, node)
    gain, sigma = correlator
    nu = 0.0
    ret = 1e-3 * np.exp(-1.1j)
    if snr is not None:
        # Scale the return link so the correlator output has |signal| = snr * sigma.
        nu = snr * sigma
        ret = nu / (node.transfer_curve.amplitude_ratio(p_in) * abs(h) * abs(gain)) \
            * np.exp(-1.1j)
    rng_closed, rng_samples = np.random.default_rng(1), np.random.default_rng(2)
    closed = np.array([engine._measure(scn, node, h, p_in, ret, correlator, rng_closed)
                       for _ in range(draws)])
    samples = np.array([_measure_by_samples(scn, node, h, p_in, ret, None, rng_samples)
                        for _ in range(draws)])
    # Two-sample KS critical value at alpha = 0.001: 1.95 * sqrt(2 / draws).
    assert ks_2samp(closed, samples).statistic < 1.95 * math.sqrt(2.0 / draws)
    want = _rician_mean(nu, sigma)
    for y in (closed, samples):
        assert abs(y.mean() - want) < 4.0 * y.std() / math.sqrt(draws)


def _run_with(measure, scn, monkeypatch):
    """The metrics document of ``scn`` and every accept decision of its
    aligner, with ``measure`` in place of ``engine._measure``."""
    decisions = []

    class Recording(OneBitAligner):
        def record(self, y_raw):
            decisions.append(super().record(y_raw))
            return decisions[-1]

    monkeypatch.setattr(engine, "OneBitAligner", Recording)
    monkeypatch.setattr(engine, "_measure", measure)
    return json.loads(run_scenario(scn).to_json()), decisions


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_closed_form_measurement_matches_samples_without_noise(name, monkeypatch):
    # Without receiver noise neither path draws from the run's generator, so
    # the two runs follow the same stream and must agree to rounding.
    scn_cfg, seed, _ = SCENARIOS[name]
    scn = build_scenario(parse_config(
        {"scenario": dict(scn_cfg, noise_floor_dbm=None)})["scenario"], seed)
    closed, closed_acc = _run_with(engine._measure, scn, monkeypatch)
    samples, samples_acc = _run_with(_measure_by_samples, scn, monkeypatch)
    assert closed_acc == samples_acc
    assert any(samples_acc) and not all(samples_acc)
    bad = mismatches(closed, samples)
    assert not bad, f"{len(bad)} mismatches, first: {bad[:5]}"


def test_cold_start_failure_skips_alignment():
    scn = bench_scenario(rounds=20, cold_start_enabled=True,
                         tx_power_dbm=-30.0)  # far too weak to wake the node
    m = run_scenario(scn)
    assert not m.cold_start_success
    assert "alignment" not in m.stage_log
    assert m.power_trace == []


def test_total_radiated_power_reported():
    scn = bench_scenario()
    m = run_scenario(scn)
    assert m.total_radiated_power_w == pytest.approx(
        scn.n_slaves * scn.tx_amplitude ** 2)


def test_metrics_json_is_valid():
    m = run_scenario(bench_scenario())
    doc = json.loads(m.to_json())
    assert set(doc) >= {"power_percentage", "rounds_to_converge", "stage_log",
                        "final_phases"}
    assert len(doc["final_phases"]) == 4


def test_optimal_amplitude_is_sum_of_path_amplitudes():
    scn = bench_scenario()
    rng = np.random.default_rng(scn.seed)
    rng.uniform(0, 2 * math.pi, scn.n_slaves)
    got = optimal_amplitude(scn)
    # The coherent optimum only depends on per-link gains, not phases.
    amps = [channel(sp, scn.node_position, scn.medium).gain
            for sp in scn.slave_positions]
    assert got == pytest.approx(scn.tx_amplitude * sum(amps), rel=1e-12)


def test_node_position_interpolation():
    traj = [(0.0, Position(0, 0, 0)), (10.0, Position(2.0, 0, 0))]
    p = node_position_at(traj, 2.5)
    assert p.x == pytest.approx(0.5)
    with pytest.raises(EngineError):
        node_position_at(traj, 11.0)
    with pytest.raises(EngineError):
        node_position_at([], 0.0)


def test_mobile_run_tracks_trajectory():
    scn = bench_scenario(rounds=40)
    total = 40 * scn.round_time_s
    scn = bench_scenario(rounds=40, trajectory=[
        (0.0, Position(0, 0, -0.1)), (total, Position(0.05, 0, -0.1))])
    m = run_scenario(scn)
    assert len(m.power_trace) == 40


def test_baseline_trace_present():
    m = run_scenario(bench_scenario(baseline="random_phase", rounds=60))
    assert m.baseline_power_percentage is not None
    assert len(m.baseline_trace) == 60
    assert m.baseline_power_percentage < m.power_percentage


def test_heatmap_peaks_at_focus():
    scn = bench_scenario(n=12)
    ph = aligned_phases(scn)
    grid = cs.cube_grid(scn.node_position, 0.8, 0.05)
    p = heatmap(scn, ph, grid)
    peak = grid[np.argmax(p)]
    # The hot spot sits on the node, give or take a voxel of pull toward the
    # array (the 1/d amplitude weighting skews the focus slightly upward).
    dist = np.linalg.norm(peak - [0, 0, -0.1])
    assert dist <= 0.1


def test_region_axis_ratio_on_synthetic_ellipsoid():
    # Gaussian blob with a 3:1 axis ratio on a regular grid.
    ax = np.arange(-1, 1.001, 0.05)
    gx, gy, gz = np.meshgrid(ax, ax, ax, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])
    power = np.exp(-(gx.ravel() / 0.9) ** 2 - (gy.ravel() / 0.3) ** 2
                   - (gz.ravel() / 0.3) ** 2)
    r = region_axis_ratio(pts, power)
    assert 2.0 <= r <= 4.0


def test_region_axis_ratio_ignores_detached_lobes():
    ax = np.arange(-1, 1.001, 0.1)
    gx, gy, gz = np.meshgrid(ax, ax, ax, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])
    blob = np.exp(-np.sum(pts ** 2, axis=1) / 0.02)
    lobe = 0.9 * np.exp(-np.sum((pts - [0.8, 0.8, 0.8]) ** 2, axis=1) / 0.02)
    with_lobe = region_axis_ratio(pts, blob + lobe)
    alone = region_axis_ratio(pts, blob)
    assert with_lobe == pytest.approx(alone, rel=0.05)


def test_ring_positions_lie_on_circle():
    pts = ring_positions(12, radius_m=5.0, height_m=2.0)
    for p in pts:
        assert math.hypot(p.x, p.y) == pytest.approx(5.0)
        assert p.z == 2.0


def test_linear_positions_half_wavelength():
    pts = linear_positions(8)
    spacing = pts[1].x - pts[0].x
    assert spacing == pytest.approx(SPEED_OF_LIGHT / 915e6 / 2)
    assert sum(p.x for p in pts) == pytest.approx(0.0, abs=1e-12)
