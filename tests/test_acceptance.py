"""End-to-end acceptance suite.

Each test covers one numbered claim about the system, from link-budget
arithmetic through protocol behavior to head-to-head baseline comparisons.
One test = one criterion; the assertion message carries the measured value.
"""

import math

import numpy as np
import pytest
from scipy.stats import spearmanr

from wptsim import coldstart as cs
from wptsim.backscatter import BackscatterNode
from oracles import (
    coherent_optimum_power,
    energy,
    expected_trajectory,
    region_axis_ratio,
    scanning_ratio,
    simulate_update_rule,
)
from wptsim.beamform import compute_bound_schedule
from wptsim.channel import MediumMap, Position, channel, dbm_to_watt, link_geometry
from wptsim.chirp import ChirpParams, awgn_power, generate_sweep, p_ccs0
from wptsim.engine import (
    Scenario,
    SyncSettings,
    linear_positions,
    ring_positions,
    run_scenario,
)
from wptsim.sync import run_sync


def test_criterion_01_link_budget_round_trip_extremes():
    """Best/worst round-trip received power at 30 dBm transmit: air, skin
    and muscle in to a node, the paper's 30 dB insertion loss, and muscle,
    skin and air back out, all at 0 dBi."""
    insertion_loss_db = 30.0

    def round_trip(air_m, depth_m):
        leader, node = Position(0.0, 0.0, 0.0), Position(0.0, 0.0, -(air_m + depth_m))
        medium = MediumMap(muscle_depth_m=depth_m)
        g_in, _ = link_geometry(leader, node, medium, tx_gain_dbi=0.0, inbound=True)
        g_out, _ = link_geometry(node, leader, medium, tx_gain_dbi=0.0, inbound=False)
        return 30.0 + 20.0 * math.log10(g_in) - insertion_loss_db + 20.0 * math.log10(g_out)

    best = round_trip(1.0, 0.02)
    worst = round_trip(10.0, 0.06)
    assert best == pytest.approx(-89.74, abs=0.01), f"best case {best:.3f} dBm"
    assert worst == pytest.approx(-166.54, abs=0.01), f"worst case {worst:.3f} dBm"


@pytest.mark.slow
def test_criterion_02_correlation_linearity_and_subnoise_detection():
    """Zero-lag correlation is rank-exact in amplitude; a long chirp train is
    detected 35 dB below the noise floor."""
    # Part 1: exact rank correlation over a 20-point amplitude sweep x 100
    # seeds, fixed noise per seed.
    params = ChirpParams()
    sig = generate_sweep(params, 1)
    amps = np.linspace(0.1, 2.0, 20)
    for seed in range(100):
        rng = np.random.default_rng(seed)
        noise = awgn_power(sig.size, 1.0, rng)
        stats = [p_ccs0(a * sig + noise, sig) for a in amps]
        rho = spearmanr(amps, stats).statistic
        assert rho == 1.0, f"seed {seed}: rank correlation {rho}"

    # Part 2: detection at -35 dB in-band SNR.  Critically sampled band
    # (fs = 2 * bw), 800-symbol train, so the correlator's deflection is
    # sqrt(2E / 10^3.5) ~ 12.7 noise sigmas; threshold at 4.5 sigma.
    det = ChirpParams(bandwidth_hz=40e3, symbol_time_s=4e-3, sample_rate_hz=80e3)
    # A tiled train of one symbol, not a sweep: the detector correlates
    # against the repeated chirp.
    ref = np.tile(generate_sweep(det, 1), 800)
    n = ref.size
    sigma2 = 10 ** 3.5                       # unit-power signal at -35 dB SNR
    rayleigh_scale = math.sqrt(sigma2 * energy(ref) / 2.0)
    threshold = 4.5 * rayleigh_scale
    tp = fp = 0
    seeds = 1000
    for seed in range(seeds):
        rng = np.random.default_rng(seed)
        noise = awgn_power(n, sigma2, rng)
        h0 = p_ccs0(noise, ref)
        h1 = p_ccs0(ref + noise, ref)
        fp += h0 > threshold
        tp += h1 > threshold
    assert tp / seeds >= 0.99, f"true positive rate {tp / seeds:.3f}"
    assert fp / seeds <= 0.01, f"false positive rate {fp / seeds:.3f}"


def test_criterion_03_two_step_sync_residuals_and_rounds():
    """24 slaves with clock offsets up to 8192 samples align to within one
    sample, in at most initial-residual + 3 feedback rounds each."""
    rng = np.random.default_rng(7)
    offsets = rng.integers(0, 8193, 24)
    res = run_sync(offsets, ChirpParams(), rng, residual_jitter=100)
    worst = max(abs(r) for r in res.residual_offsets)
    assert worst <= 1, f"worst residual {worst} samples"
    start = {p: off for p, rnd, off, _, _ in reversed(res.transcript) if rnd == 1}
    for period, rounds in enumerate(res.rounds_per_period, start=1):
        assert rounds <= abs(start[period]) + 3, (
            f"period {period}: {rounds} rounds for initial offset "
            f"{start[period]}")


def _bench_scenario(n, seed):
    return Scenario(
        slave_positions=ring_positions(n, radius_m=1.0, height_m=0.0),
        leader_position=Position(0, 0, 0),
        node_position=Position(0, 0, -0.1),
        medium=MediumMap(muscle_depth_m=0.05),
        seed=seed,
        rounds=300,
        sync=SyncSettings(enabled=False),
        cold_start_enabled=False,
    )


def test_criterion_04_one_bit_convergence_in_tissue():
    """Mean power percentage over 100 seeds: >= 0.93 with 3 slaves and
    >= 0.80 with 24 slaves, through the full backscatter signal chain."""
    for n, floor in ((3, 0.93), (24, 0.80)):
        pcts = [run_scenario(_bench_scenario(n, seed)).power_percentage
                for seed in range(100)]
        mean = float(np.mean(pcts))
        assert mean >= floor, f"{n} slaves: mean power percentage {mean:.3f}"


@pytest.mark.slow
def test_criterion_05_expected_step_matches_monte_carlo():
    """Closed-form expected amplitude trajectory vs. Monte-Carlo mean of the
    bare update rule, 3% relative, N in {2,5,10}, bound in {15,30,60} deg."""
    failures = []
    for n in (2, 5, 10):
        for deg in (15, 30, 60):
            phi = math.radians(deg)
            rng = np.random.default_rng(42)
            mc = simulate_update_rule(n, phi, 100, 100000, rng)
            exp = expected_trajectory(n, phi, 100, float(mc[0]))
            rel = float(np.max(np.abs(exp - mc) / mc))
            if rel > 0.03:
                failures.append(f"N={n} phi={deg}deg: {rel:.3f}")
    assert not failures, "max relative error above 3%: " + "; ".join(failures)


def test_criterion_06_adaptive_bound_dominates_fixed():
    """The scheduled bound beats every fixed bound at equal round budget, and
    the schedule itself decays from wide to narrow."""
    n, rounds, trials = 24, 300, 2000
    sched = compute_bound_schedule(n, horizon=rounds)
    assert sched[0] > sched[150] > sched[rounds - 1]
    assert sched[0] >= math.radians(45)
    assert sched[rounds - 1] <= math.radians(15)

    _, adaptive = simulate_update_rule(n, sched, rounds, trials,
                                       np.random.default_rng(5),
                                       return_finals=True)
    for deg in (10, 30, 60, 90):
        _, fixed = simulate_update_rule(n, math.radians(deg), rounds, trials,
                                        np.random.default_rng(5),
                                        return_finals=True)
        diff = adaptive - fixed          # paired: same seed, same start
        margin = float(diff.mean() + 1.645 * diff.std(ddof=1)
                       / math.sqrt(trials))
        assert margin >= 0.0, (
            f"fixed {deg} deg beats adaptive: paired mean diff "
            f"{diff.mean():.3f}")


@pytest.mark.slow
def test_criterion_07_cold_start_behavior():
    """Scanning-ratio peak in sigma, side-lobe strength near the optimum, and
    wake success falling off with leader-node distance."""
    # Part 1: sigma sweep of the scanning ratio, 24-slave ceiling ring,
    # 100 perturbation rounds, 30 static-phase seeds.
    sigmas = (10, 20, 30, 40, 50, 60, 70, 80, 90)
    slaves = ring_positions(24, radius_m=6.0, height_m=3.0)
    leader = Position(0.3, 0.2, 0.0)
    acc = np.zeros(len(sigmas))
    n_seeds = 30
    grid = cs.cube_grid(leader, 2.0, 0.1)
    for seed in range(n_seeds):
        rng = np.random.default_rng(seed)
        static = rng.uniform(0, 2 * np.pi, 24)
        m = cs.field_matrix(slaves, grid, static_phases=static)
        ml = cs.field_matrix(
            slaves, np.array([[leader.x, leader.y, leader.z]]),
            static_phases=static)
        base = (-np.angle(ml[0])) % (2 * np.pi)
        for k, sig in enumerate(sigmas):
            acc[k] += scanning_ratio(
                m, base, sig, 100,
                np.random.default_rng(1000 + 97 * seed + k)).scanning_ratio
    best_sigma = sigmas[int(np.argmax(acc))]
    assert 45 <= best_sigma <= 65, f"scanning ratio peaks at sigma={best_sigma}"

    # Part 2: strongest side lobe within 3.6 +/- 1.5 dB of the per-voxel
    # coherent optimum, median over 100 random room layouts.
    drops = []
    for seed in range(100):
        rng = np.random.default_rng(seed)
        pts = rng.uniform([-6, -6, 2.0], [6, 6, 3.0], (24, 3))
        room = [Position(*p) for p in pts]
        static = rng.uniform(0, 2 * np.pi, 24)
        fine = cs.cube_grid(leader, 2.0, 0.05)
        m = cs.field_matrix(room, fine, static_phases=static)
        opt = coherent_optimum_power(m)
        ml = cs.field_matrix(
            room, np.array([[leader.x, leader.y, leader.z]]),
            static_phases=static)
        base = (-np.angle(ml[0])) % (2 * np.pi)
        p = cs.field_power(m, base)
        d = np.linalg.norm(fine - [leader.x, leader.y, leader.z], axis=1)
        rel = (p / opt)[d > 0.25]
        drops.append(-10 * math.log10(rel.max()))
    med = float(np.median(drops))
    assert 2.1 <= med <= 5.1, f"median side-lobe drop {med:.2f} dB"

    # Part 3: cold-start success rate vs. leader-node distance, slaves
    # clustered around the leader at 23 dBm transmit.
    cluster = ring_positions(10, radius_m=1.0, height_m=0.5)
    medium = MediumMap(muscle_depth_m=0.05)
    amp = math.sqrt(dbm_to_watt(23.0))
    rates = []
    for dist in (0.5, 1.0, 2.0, 3.0):
        succ = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            static = rng.uniform(0, 2 * np.pi, 10)
            node_pos = Position(dist, 0, -0.1)
            lead_ch = channel(cluster, Position(0, 0, 0), MediumMap(),
                              static_phase_rad=static)
            node_ch = channel(cluster, node_pos, medium, static_phase_rad=static)
            node = BackscatterNode()
            runner = cs.ColdStartRunner(node, lead_ch, node_ch, amp, 55.0, rng)
            succ += runner.run().success
        rates.append(succ / 40)
    assert rates[0] >= 0.97, f"success at 0.5 m only {rates[0]:.2f}"
    assert all(a >= b for a, b in zip(rates, rates[1:])), (
        f"success rates not non-increasing: {rates}")
    assert rates[-1] < rates[0], f"no distance falloff: {rates}"


def test_criterion_08_energy_spot_vs_beam():
    """A distributed array focuses a compact hot spot well above background;
    a co-located linear array smears an elongated beam instead."""
    rng = np.random.default_rng(0)
    target = Position(0.4, 0.1, 0.0)
    tp = np.array([[target.x, target.y, target.z]])

    # Distributed irregular room layout: hot spot vs background.
    pts = rng.uniform([-6, -6, 2.0], [6, 6, 3.0], (24, 3))
    room = [Position(*p) for p in pts]
    static = rng.uniform(0, 2 * np.pi, 24)
    grid = cs.cube_grid(target, 2.0, 0.05)
    m = cs.field_matrix(room, grid, static_phases=static)
    mt = cs.field_matrix(room, tp, static_phases=static)
    phases = (-np.angle(mt[0])) % (2 * np.pi)
    p = cs.field_power(m, phases)
    d = np.linalg.norm(grid - tp[0], axis=1)
    hot = d <= 0.075
    ratio = float(p[hot].mean() / p[~hot].mean())
    assert ratio >= 8.0, f"hot/background mean power ratio {ratio:.1f}"
    assert hot[np.argmax(p)], "field peak lies outside the hot spot"

    # Distributed array surrounding the target: compact spot.
    v = rng.standard_normal((24, 3))
    v /= np.linalg.norm(v, axis=1)[:, None]
    sphere = [Position(*(6.0 * w)) for w in v]
    static_s = rng.uniform(0, 2 * np.pi, 24)
    fine = cs.cube_grid(target, 0.8, 0.02)
    mt_s = cs.field_matrix(sphere, tp, static_phases=static_s)
    ph_s = (-np.angle(mt_s[0])) % (2 * np.pi)
    pf = cs.field_power(cs.field_matrix(sphere, fine, static_phases=static_s),
                        ph_s)
    spot = region_axis_ratio(fine, pf)
    assert spot <= 2.0, f"distributed spot axis ratio {spot:.2f}"

    # Co-located half-wavelength linear array, target 6 m broadside.
    lin = linear_positions(24)
    target2 = Position(0.0, 6.0, 0.0)
    tp2 = np.array([[target2.x, target2.y, target2.z]])
    static_l = rng.uniform(0, 2 * np.pi, 24)
    mt2 = cs.field_matrix(lin, tp2, static_phases=static_l)
    ph2 = (-np.angle(mt2[0])) % (2 * np.pi)
    big = cs.cube_grid(target2, 4.0, 0.05)
    pb = cs.field_power(cs.field_matrix(lin, big, static_phases=static_l), ph2)
    beam = region_axis_ratio(big, pb)
    assert beam >= 5.0, f"co-located beam axis ratio {beam:.2f}"


def _mobile_scenario(speed, seed, rounds=300):
    return Scenario(
        slave_positions=ring_positions(24, radius_m=1.0, height_m=0.0),
        leader_position=Position(0, 0, 0),
        node_position=Position(0, 0, -0.1),
        medium=MediumMap(muscle_depth_m=0.05),
        seed=seed,
        rounds=rounds,
        sync=SyncSettings(enabled=False),
        cold_start_enabled=False,
        baseline="random_phase",
        speed_m_per_s=speed,
    )


def test_criterion_09_baseline_head_to_head():
    """Aligned beamforming vs the random-phase baseline: large stationary
    gain, distributional dominance while walking, parity at running speed."""
    for seed in range(3):
        m = run_scenario(_mobile_scenario(0.0, seed))
        ratio = m.power_percentage / m.baseline_power_percentage
        assert ratio >= 5.0, f"stationary seed {seed}: ratio {ratio:.2f}"

    for seed in range(12):
        m = run_scenario(_mobile_scenario(0.05, seed))
        a = np.sort(np.asarray(m.power_trace) ** 2)
        b = np.sort(np.asarray(m.baseline_trace) ** 2)
        dom = float(np.mean(a >= b))
        assert dom >= 0.99, f"5 cm/s seed {seed}: CDF dominance only {dom:.2f}"
        ratio = m.power_percentage / m.baseline_power_percentage
        assert ratio > 1.0, f"5 cm/s seed {seed}: ratio {ratio:.2f}"

    ratios = []
    for seed in range(12):
        m = run_scenario(_mobile_scenario(1.0, seed))
        ratios.append(m.power_percentage / m.baseline_power_percentage)
    mean = float(np.mean(ratios))
    assert 0.7 <= mean <= 1.3, f"1 m/s mean ratio {mean:.2f}"


def test_criterion_10_bit_identical_reruns():
    """Identical scenario and seed give byte-identical metrics documents."""
    fast = ChirpParams(bandwidth_hz=40e3, symbol_time_s=1e-3,
                       sample_rate_hz=512e3)
    scn = dict(
        slave_positions=ring_positions(5, radius_m=1.0, height_m=0.0),
        leader_position=Position(0, 0, 0),
        node_position=Position(0, 0, -0.1),
        medium=MediumMap(muscle_depth_m=0.05),
        chirp=fast,
        seed=123,
        rounds=50,
        wake_threshold_dbm=-35.0,
        sync=SyncSettings(enabled=True, offset_range=300, residual_jitter=10),
        baseline="random_phase",
    )
    first = run_scenario(Scenario(**scn)).to_json()
    second = run_scenario(Scenario(**scn)).to_json()
    assert first == second
