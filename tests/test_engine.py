import dataclasses
import json
import math
import re
from functools import partial

import numpy as np
import pytest
from scipy.special import ive
from scipy.stats import ks_2samp

from oracles import aligned_phases, propose, region_axis_ratio
from test_golden import SCENARIOS, mismatches
from wptsim import coldstart as cs, engine
from wptsim.backscatter import SHIFT_FREQ_HZ, BackscatterNode, amplitude_ratio
from wptsim.channel import (
    SPEED_OF_LIGHT, ChannelError, MediumMap, Position, channel, incident_field, link_geometry,
)
from wptsim.chirp import (
    ChirpParams,
    awgn,
    generate_sweep,
    p_ccs0,
    sample_noise_power,
)
from wptsim.cli import apply_axis, build_scenario, parse_config, run_one
from wptsim.engine import (
    EngineError,
    Scenario,
    SyncSettings,
    heatmap,
    linear_positions,
    optimal_amplitude,
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


@pytest.mark.parametrize("kw", [
    {"baseline": "random"},              # used to run no baseline at all
    {"bound": -5.0},                     # used to fail inside numpy
    {"bound": 0.0},
    {"bound": 181.0},
    {"bound": math.nan},                 # used to raise OverflowError
    {"bound": math.inf},
    {"bound": "15"},
])
def test_scenario_rejects_bad_baseline_and_bound(kw):
    with pytest.raises(EngineError):
        bench_scenario(**kw)


@pytest.mark.parametrize("kw", [{"baseline": "none"}, {"baseline": "random_phase"},
                                {"bound": "adaptive"}, {"bound": 180.0}, {"bound": 15}])
def test_scenario_accepts_valid_baseline_and_bound(kw):
    bench_scenario(**kw)


@pytest.mark.parametrize("kw, field_name", [
    ({"feedback_latency_s": math.nan}, "feedback_latency_s"),
    ({"feedback_latency_s": -1e-3}, "feedback_latency_s"),
    ({"feedback_latency_s": math.inf}, "feedback_latency_s"),
    # NaN used to fail later as "measurement must be finite", or with sync
    # on to run a noise-free sync.
    ({"noise_floor_dbm": math.nan}, "noise_floor_dbm"),
    ({"noise_floor_dbm": math.inf}, "noise_floor_dbm"),
    ({"noise_floor_dbm": "-70"}, "noise_floor_dbm"),
    ({"sigma_deg": 200.0}, "sigma_deg"),
    ({"sigma_deg": math.nan}, "sigma_deg"),
    # An offset of two symbols or more used to end in a silent sync failure.
    ({"sync": SyncSettings(offset_range=2 * FAST_CHIRP.n_samples)}, "offset_range"),
    ({"speed_m_per_s": -1.0}, "speed_m_per_s"),
    ({"speed_m_per_s": math.nan}, "speed_m_per_s"),
    ({"speed_m_per_s": math.inf}, "speed_m_per_s"),
    # Each used to overflow: an OverflowError in the conversion to watts or
    # in the channel, or a measurement that is not finite.
    ({"tx_power_dbm": 4000.0}, "tx_power_dbm"),
    ({"noise_floor_dbm": 4000.0}, "noise_floor_dbm"),
    ({"wake_threshold_dbm": 4000.0}, "wake_threshold_dbm"),
    ({"tx_gain_dbi": 7000.0}, "tx_gain_dbi"),
    ({"freq_hz": 1.0e-300}, "freq_hz"),
    ({"tx_power_dbm": 200.5}, "tx_power_dbm"),
    ({"noise_floor_dbm": -200.5}, "noise_floor_dbm"),
    ({"tx_gain_dbi": -100.5}, "tx_gain_dbi"),
    ({"freq_hz": 2999.0}, "freq_hz"),
    ({"freq_hz": 3.1e12}, "freq_hz"),
])
def test_scenario_rejects_bad_numbers(kw, field_name):
    with pytest.raises(EngineError, match=field_name):
        bench_scenario(**kw)


@pytest.mark.parametrize("kw", [{"feedback_latency_s": 0.0}, {"speed_m_per_s": 0.5},
                                {"noise_floor_dbm": None}, {"noise_floor_dbm": -90},
                                {"sigma_deg": 0.0},
                                {"sync": SyncSettings(offset_range=2 * FAST_CHIRP.n_samples - 1)},
                                # Sync that does not run draws no offset.
                                {"sync": SyncSettings(enabled=False, offset_range=10**6)},
                                # The ends of the power, gain and frequency ranges.
                                {"tx_power_dbm": 200.0}, {"tx_power_dbm": -200.0},
                                {"noise_floor_dbm": 200.0}, {"wake_threshold_dbm": -200.0},
                                {"tx_gain_dbi": 100.0}, {"tx_gain_dbi": -100.0},
                                {"freq_hz": 3e3}, {"freq_hz": 3e12}])
def test_scenario_accepts_valid_numbers(kw):
    bench_scenario(**kw)


@pytest.mark.parametrize("kw, field_name", [
    ({"offset_range": -1}, "offset_range"),            # used to end as "low >= high"
    ({"residual_jitter": -1}, "residual_jitter"),
])
def test_sync_settings_reject_bad_values(kw, field_name):
    with pytest.raises(EngineError, match=field_name):
        SyncSettings(**kw)
    SyncSettings(**{field_name: 0})


@pytest.mark.parametrize("build, field_name, bad, good", [
    # A float jitter used to fail in coarse sync ("slice indices must be
    # integers"), and a float offset range was accepted silently.
    (SyncSettings, "residual_jitter", 2.5, np.int64(20)),
    (SyncSettings, "offset_range", 100.5, np.int32(100)),
    (SyncSettings, "offset_range", True, 1),
    # A float round count used to raise numpy's TypeError, a negative seed
    # SeedSequence's ValueError and a float seed its TypeError.
    (bench_scenario, "rounds", 2.5, np.int64(3)),
    (bench_scenario, "rounds", True, 1),
    (bench_scenario, "seed", -1, np.uint32(7)),
    (bench_scenario, "seed", 1.5, np.int64(7)),
    (bench_scenario, "seed", np.float64(3.0), 3),
])
def test_whole_number_fields_are_checked(build, field_name, bad, good):
    with pytest.raises(EngineError, match=field_name):
        build(**{field_name: bad})
    build(**{field_name: good})


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


@pytest.mark.parametrize("rounds", [1, 7, 40])
def test_aligned_and_baseline_power_percentage_share_one_definition(rounds):
    # Both are average power over the last quarter of the rounds: the mean of
    # squared amplitude fractions, so criterion 9 divides power by power.
    m = run_scenario(bench_scenario(rounds=rounds, baseline="random_phase",
                                    speed_m_per_s=0.5))
    window = max(1, rounds // 4)
    for value, trace in ((m.power_percentage, m.power_trace),
                         (m.baseline_power_percentage, m.baseline_trace)):
        assert value == float(np.mean(np.square(trace[-window:])))


def test_stage_ordering_full_pipeline():
    scn = bench_scenario(rounds=20, sync=SyncSettings(enabled=True,
                                                      offset_range=300,
                                                      residual_jitter=10),
                         cold_start_enabled=True, wake_threshold_dbm=-35.0)
    m = run_scenario(scn)
    assert m.stage_log == ["sync", "cold_start", "alignment"]
    assert m.cold_start_success


def test_undetected_preamble_sets_sync_failed():
    # A noise floor of +40 dBm drowns the preamble: coarse sync finds no
    # correlation peak and run_sync raises SyncError.
    scn = bench_scenario(noise_floor_dbm=40.0,
                         sync=SyncSettings(enabled=True, offset_range=300))
    m = run_scenario(scn)
    assert m.sync_failed
    assert m.stage_log == ["sync"]
    assert m.power_trace == []


def _clear_link_caches():
    engine._track_links.cache_clear()
    engine._air_links.cache_clear()


def test_run_computes_each_link_table_once(monkeypatch):
    # The seed-free half of every link table is computed once per geometry
    # and process, read-only: a second seed of the geometry computes none,
    # and writes the document that a run from an empty cache writes.
    tables = []

    def recording(*args, **kwargs):
        tables.append(link_geometry(*args, **kwargs))
        return tables[-1]

    monkeypatch.setattr(engine, "link_geometry", recording)
    _clear_link_caches()
    scn = bench_scenario(rounds=40, baseline="random_phase", cold_start_enabled=True,
                         wake_threshold_dbm=-35.0, speed_m_per_s=0.625)
    m = run_scenario(scn)
    assert m.cold_start_success and len(m.baseline_trace) == 40
    # slave -> node over every round, node -> leader, slave -> leader.
    assert len(tables) == 3
    for table in (t for pair in tables for t in pair):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[...] = 0.0
    second = dataclasses.replace(scn, seed=1)
    warm = run_scenario(second)
    assert len(tables) == 3
    assert warm.stage_log == ["cold_start", "alignment"]
    _clear_link_caches()
    assert run_scenario(second).to_json() == warm.to_json()
    assert len(tables) == 6


@pytest.mark.parametrize("kw", [
    {"slave_positions": ring_positions(4, radius_m=1.5, height_m=0.0)},
    {"leader_position": Position(0.3, 0.2, 0.0)},
    {"node_position": Position(0.0, 0.05, -0.1)},
    {"medium": MediumMap(muscle_depth_m=0.02)},
    {"freq_hz": 868e6},
    {"tx_gain_dbi": 6.0},
    {"speed_m_per_s": 0.5},
    {"speed_m_per_s": 0.25, "rounds": 30},
    {"speed_m_per_s": 0.25, "feedback_latency_s": 2e-3},
])
def test_link_cache_key_holds_the_geometry(kw):
    # A scenario that changes anything its links depend on gets its own
    # tables: run after it, the base scenario writes what it writes from an
    # empty cache.
    base = bench_scenario(rounds=40, speed_m_per_s=0.25, cold_start_enabled=True,
                          wake_threshold_dbm=-35.0)
    _clear_link_caches()
    want = run_scenario(base).to_json()
    _clear_link_caches()
    run_scenario(dataclasses.replace(base, seed=9, **kw))
    assert run_scenario(base).to_json() == want
    assert engine._track_links.cache_info().misses == 2


def test_link_caches_hold_at_most_their_size():
    _clear_link_caches()
    for k in range(engine.LINK_CACHE_SIZE + 2):
        run_scenario(bench_scenario(freq_hz=900e6 + k * 1e6, cold_start_enabled=True))
    for cached in (engine._track_links, engine._air_links):
        info = cached.cache_info()
        assert info.maxsize == engine.LINK_CACHE_SIZE
        assert info.currsize == engine.LINK_CACHE_SIZE


# ---------------------------------------------------------------------------
# The closed-form measurement against the sample-level chain it replaces.

def _measure_by_samples(scn, node, h, p_in, ret_coeff, correlator, z, rng=None):
    """Sample-level oracle for ``engine._measure`` in scenario ``scn``
    (bound with ``partial`` to take ``_measure``'s place): the node reflects
    the incident chirp, the leader adds white noise drawn sample by sample
    from ``rng`` and correlates at lag 0 against the reference shifted to
    the node's sideband.  ``correlator`` and the closed form's normal pair
    ``z`` are ignored; everything is rebuilt from the samples."""
    fs = scn.chirp.sample_rate_hz
    ref_sym = generate_sweep(scn.chirp, 1)
    t = np.arange(scn.chirp.n_samples) / fs
    shifted_ref = ref_sym * np.exp(1j * 2.0 * np.pi * SHIFT_FREQ_HZ * t)
    rx = node.reflect(h * ref_sym, fs) * ret_coeff
    if scn.noise_floor_dbm is not None:
        rx = rx + awgn(rx.size, rng, noise_floor_dbm=scn.noise_floor_dbm,
                       bandwidth_hz=scn.chirp.bandwidth_hz, sample_rate_hz=fs)
    return p_ccs0(rx, shifted_ref)


def _rician_mean(nu, sigma):
    """E|nu + sigma (z1 + i z2)| for standard normals z1, z2."""
    v = nu * nu / (2.0 * sigma * sigma)
    laguerre = (1.0 + v) * ive(0, v / 2.0) + v * ive(1, v / 2.0)
    return sigma * math.sqrt(math.pi / 2.0) * laguerre


@pytest.mark.parametrize("snr", [1.0, 4.0, None])   # None: the node sleeps
def test_closed_form_measurement_matches_samples_in_distribution(snr):
    draws = 2000
    scn = bench_scenario()
    node = BackscatterNode(awake=snr is not None)
    h = 0.02 * np.exp(0.4j)
    p_in = abs(h) ** 2
    noise_power = sample_noise_power(scn.noise_floor_dbm, scn.chirp.bandwidth_hz,
                                     scn.chirp.sample_rate_hz)
    correlator = engine._correlator(scn, noise_power)
    gain, sigma = correlator
    nu = 0.0
    ret = 1e-3 * np.exp(-1.1j)
    if snr is not None:
        # Scale the return link so the correlator output has |signal| = snr * sigma.
        nu = snr * sigma
        ret = nu / (amplitude_ratio(p_in) * abs(h) * abs(gain)) \
            * np.exp(-1.1j)
    rng_closed, rng_samples = np.random.default_rng(1), np.random.default_rng(2)
    closed = np.array([engine._measure(node, h, p_in, ret, correlator,
                                       rng_closed.standard_normal(2))
                       for _ in range(draws)])
    samples = np.array([_measure_by_samples(scn, node, h, p_in, ret, None, None, rng_samples)
                        for _ in range(draws)])
    # Two-sample KS critical value at alpha = 0.001: 1.95 * sqrt(2 / draws).
    assert ks_2samp(closed, samples).statistic < 1.95 * math.sqrt(2.0 / draws)
    want = _rician_mean(nu, sigma)
    for y in (closed, samples):
        assert abs(y.mean() - want) < 4.0 * y.std() / math.sqrt(draws)


def _decisions(metric_trace) -> list:
    """Each round's accept decision, read from the ``y_ref`` column: round 0
    is always kept, and a later round is kept iff ``y_ref`` rose."""
    y_ref = [row[2] for row in metric_trace]
    return [True] + [new > old for old, new in zip(y_ref, y_ref[1:])]


def _run_with(measure, scn, monkeypatch):
    """The metrics document of ``scn`` and every accept decision of its
    alignment, with ``measure`` in place of ``engine._measure``."""
    monkeypatch.setattr(engine, "_measure", measure)
    doc = json.loads(run_scenario(scn).to_json())
    return doc, _decisions(doc["metric_trace"])


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_closed_form_measurement_matches_samples_without_noise(name, monkeypatch):
    # Without receiver noise the closed form adds 0 times its normal pair and
    # the samples add no noise, so the two runs must agree to rounding.
    scn_cfg, seed, _ = SCENARIOS[name]
    scn = build_scenario(parse_config(
        {"scenario": dict(scn_cfg, noise_floor_dbm=None)})["scenario"], seed)
    closed, closed_acc = _run_with(engine._measure, scn, monkeypatch)
    samples, samples_acc = _run_with(partial(_measure_by_samples, scn), scn, monkeypatch)
    assert closed_acc == samples_acc
    assert any(samples_acc) and not all(samples_acc)
    bad = mismatches(closed, samples)
    assert not bad, f"{len(bad)} mismatches, first: {bad[:5]}"


# ---------------------------------------------------------------------------
# The block alignment loop against the per-round loop it replaces.

def _align_per_round(scn, node, bounds, to_node, to_leader, optimum, correlator,
                     proposals_rng, noise_rng):
    """Oracle for ``engine._align``: the alignment walk one round at a time,
    with one proposal draw and one noise pair per round, on numpy's arrays
    and scalars."""
    ref_phases = proposals_rng.uniform(0.0, 2.0 * math.pi, scn.n_slaves)
    ref_y = -math.inf
    raw = np.empty(scn.rounds)
    y_ref = np.empty(scn.rounds)
    achieved = np.zeros(scn.rounds)     # amplitude fraction of the optimum
    for n in range(scn.rounds):
        phases = propose(proposals_rng, ref_phases, bounds[n])
        h = scn.tx_amplitude * np.sum(to_node[n] * np.exp(1j * phases))
        p_in = float(np.abs(h) ** 2)
        node.harvest_step(p_in, scn.round_time_s)
        z = noise_rng.standard_normal(2)
        y_raw = engine._measure(node, h, p_in, to_leader[n], correlator, z)
        raw[n] = y_raw
        if y_raw > ref_y:
            ref_phases, ref_y = phases, y_raw
        y_ref[n] = ref_y
        if optimum[n] > 0:
            achieved[n] = abs(h) / optimum[n]
    return raw.tolist(), y_ref.tolist(), achieved.tolist(), ref_phases


_B3, _B24 = SCENARIOS["bench_3"][0], SCENARIOS["bench_24"][0]
# name -> (scenario config, seed)
BLOCK_CASES = {
    "bench_3": (_B3, 5),
    "bench_3_noiseless": (dict(_B3, noise_floor_dbm=None), 5),
    "bench_24": (_B24, 6),
    "bench_24_noiseless": (dict(_B24, noise_floor_dbm=None), 6),
    "fixed_bound": (dict(_B3, slave_count=6, bound_deg=20.0), 1),
    "one_slave": (dict(_B3, slave_count=1), 2),
    "one_round": (dict(_B24, rounds=1), 3),
    # Receiver noise high enough that it decides many accepts.
    "floor_50": (dict(_B3, slave_count=8, noise_floor_dbm=-50.0), 4),
    "moving": SCENARIOS["mobile_1mps"][:2],
    # Cold start on: the node browns out and sleeps through alignment rounds.
    "readme_cold_start": (dict(SCENARIOS["readme_fast"][0], sync_enabled=False), 0),
    # Runs of the same-outputs corpus whose documents move when the walk
    # squares |h| as mag * mag instead of mag ** 2.
    "n2_nofloor_seed12": (dict(_B3, slave_count=2, noise_floor_dbm=None), 12),
    "n24_nofloor_seed19": (dict(_B24, noise_floor_dbm=None), 19),
    "n24_bound1_seed3": (dict(_B24, bound_deg=1.0), 3),
    "n3_speed1_seed2": (dict(_B3, speed_m_per_s=1.0), 2),
}


def _block_case(name):
    cfg, seed = BLOCK_CASES[name]
    return build_scenario(parse_config({"scenario": cfg})["scenario"], seed)


@pytest.mark.parametrize("name", sorted(BLOCK_CASES))
def test_block_loop_writes_the_per_round_documents(name, monkeypatch):
    scn = _block_case(name)
    block = run_scenario(scn).to_json()
    monkeypatch.setattr(engine, "_align", _align_per_round)
    assert run_scenario(scn).to_json() == block


def test_block_cases_accept_at_both_ends_of_a_block_and_sleep(monkeypatch):
    # The byte-identity cases must cover an accept at a block's first round
    # (the next block starts one round later) and at its last round, and
    # rounds in which the node sleeps.
    awake = []
    measure = engine._measure

    def recording_measure(node, *args):
        awake[-1].append(node.awake)
        return measure(node, *args)

    monkeypatch.setattr(engine, "_measure", recording_measure)
    positions = set()
    for name in BLOCK_CASES:
        awake.append([])
        at = 0      # rounds since the block started
        for accepted in _decisions(run_scenario(_block_case(name)).metric_trace):
            if accepted:
                positions.add(at)
            at = 0 if accepted or at == engine.BLOCK_ROUNDS - 1 else at + 1
    assert {0, engine.BLOCK_ROUNDS - 1} <= positions
    asleep = dict(zip(BLOCK_CASES, (not all(a) for a in awake)))
    assert asleep["readme_cold_start"]


@pytest.mark.parametrize("name", ["bench_3", "bench_24"])
@pytest.mark.parametrize("seed", range(5))
def test_alignment_keeps_a_proposal_iff_its_incident_field_rises(name, seed):
    # The rule that the bound schedule and the density evolution analyse:
    # keep a proposal iff it beats the reference, with nothing in between.
    # Without noise the leader's metric rises strictly with the node's
    # incident power, so a loop over |incident_field| alone must reproduce
    # the run.
    scn = build_scenario(parse_config(
        {"scenario": dict(SCENARIOS[name][0], noise_floor_dbm=None)})["scenario"], seed)
    m = run_scenario(scn)
    static = engine._static_phases(scn)
    links = channel(scn.slave_positions, scn.node_position, scn.medium, scn.freq_hz,
                    scn.tx_gain_dbi, static_phase_rad=static)
    optimum = optimal_amplitude(scn, links)
    rng = engine._stream(scn.seed, "proposals")
    ref_phases = rng.uniform(0.0, 2.0 * math.pi, scn.n_slaves)
    best, achieved = -math.inf, []
    for phi in engine._bounds(scn):
        phases = propose(rng, ref_phases, phi)
        mag = abs(incident_field(links, phases, scn.tx_amplitude))
        if mag > best:
            best, ref_phases = mag, phases
        achieved.append(mag / optimum)
    assert m.final_phases == ref_phases.tolist()
    assert np.allclose(m.power_trace, achieved, rtol=1e-12, atol=0.0)


def test_bulk_normals_equal_per_round_pairs():
    rounds = 257
    bulk = np.random.default_rng(11).standard_normal((rounds, 2))
    rng = np.random.default_rng(11)
    per_round = np.array([rng.standard_normal(2) for _ in range(rounds)])
    assert bulk.tobytes() == per_round.tobytes()


@pytest.mark.parametrize("n", [1, 3, 24])
@pytest.mark.parametrize("moving", [False, True])
def test_block_fields_equal_per_round_sums(n, moving):
    # A static node's links are one row broadcast over the rounds, a moving
    # node's a contiguous table; either way each row of the block's reduce
    # is the pairwise sum np.sum takes of that row alone.
    rng = np.random.default_rng(n)
    rounds = engine.BLOCK_ROUNDS
    links = (rng.standard_normal((rounds, n)) + 1j * rng.standard_normal((rounds, n))) * 1e-3
    if not moving:
        links = np.broadcast_to(links[0], (rounds, n))
    phases = rng.uniform(0.0, 2.0 * math.pi, (rounds, n))
    amp = 0.7071067811865476
    block = amp * np.add.reduce(links * np.exp(1j * phases), axis=1)
    for k in range(rounds):
        h = amp * np.sum(links[k] * np.exp(1j * phases[k]))
        assert block[k] == h and np.abs(block)[k] == np.abs(h)


def test_sync_draws_leave_later_stages_unchanged():
    # Every stage draws from its own stream of the seed, so running sync,
    # which draws fresh noise for every fine round, moves no draw of cold
    # start, alignment or the baseline.
    scn_cfg, seed, _ = SCENARIOS["readme_fast"]
    runs = []
    for sync_on in (True, False):
        cfg = dict(scn_cfg, baseline="random_phase", sync_enabled=sync_on)
        runs.append(run_scenario(build_scenario(parse_config({"scenario": cfg})["scenario"],
                                                seed)))
    on, off = runs
    assert on.stage_log == ["sync", "cold_start", "alignment"]
    assert off.stage_log == ["cold_start", "alignment"]
    for name in ("power_trace", "metric_trace", "final_phases", "baseline_trace"):
        assert getattr(on, name) == getattr(off, name), name


@pytest.mark.parametrize("seed", [0, 7, 123456789, 2 ** 31 - 1])
def test_streams_are_the_seeds_spawned_children(seed):
    # Each stream, built alone and in any order, draws what the child at its
    # name's position of SeedSequence(seed).spawn draws.
    children = np.random.SeedSequence(seed).spawn(len(engine._STREAM_NAMES))
    for name, child in reversed(list(zip(engine._STREAM_NAMES, children))):
        want = np.random.default_rng(child).random(5)
        assert engine._stream(seed, name).random(5).tobytes() == want.tobytes()
    with pytest.raises(ValueError):
        engine._stream(seed, "sink")


def test_a_bench_run_builds_only_the_streams_it_draws_from(monkeypatch):
    stream, built = engine._stream, []

    def recording(seed, name):
        built.append(name)
        return stream(seed, name)

    monkeypatch.setattr(engine, "_stream", recording)
    run_scenario(bench_scenario())
    assert built == ["static_phases", "proposals", "noise"]


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


def _converged_at_by_loop(trace):
    """The convergence rule as the alignment loop once applied it, round by
    round on a running-max history: the first round past the 20th whose
    best-so-far metric rose by under 0.5% over the last 20 rounds."""
    history, best = [], None
    for n, y in enumerate(trace):
        best = y if best is None else max(y, best)
        history.append(best)
        if len(history) > 20:
            old = history[-21]
            if old > 0 and (history[-1] - old) / old < 0.005:
                return n
    return len(trace)


def _convergence_traces():
    """Series that never fall, as the alignment walk's y_ref never does."""
    rng = np.random.default_rng(11)
    yield "constant", np.full(40, 3.0)            # converges at round 20 exactly
    yield "short", np.full(20, 3.0)               # never has 20 rounds of history
    yield "one", np.array([1.0])
    yield "zeros", np.zeros(60)
    yield "at_threshold", np.concatenate((np.full(20, 1000.0), np.full(30, 1005.0)))
    yield "zeros_then_growth", np.concatenate((np.zeros(15), np.linspace(1.0, 2.0, 45)))
    yield "steady_growth", np.linspace(1.0, 10.0, 80)   # never slows to 0.5%
    yield "plateau", np.minimum(np.linspace(1.0, 5.0, 100), 4.0)
    for k in range(20):
        steps = rng.exponential(rng.uniform(0.0, 0.0005), 120)
        noise = rng.normal(0.0, rng.uniform(0.0, 0.01), 120)
        yield f"random_{k}", np.maximum.accumulate(
            np.maximum(np.cumsum(steps) + 1.0 + noise, 0.0))


@pytest.mark.parametrize("name,trace", list(_convergence_traces()))
def test_converged_at_matches_the_running_max_loop(name, trace):
    # On a series that never falls the running max is the series itself,
    # so the rule applied to it directly must give the loop's round.
    assert np.all(np.diff(trace) >= 0.0)
    assert engine._converged_at(trace) == _converged_at_by_loop(trace.tolist())


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_reference_metric_never_falls_and_gives_convergence(name):
    scn_cfg, seed, _ = SCENARIOS[name]
    m = run_scenario(build_scenario(parse_config({"scenario": scn_cfg})["scenario"], seed))
    _, raw, y_ref, _ = (np.array(c) for c in zip(*m.metric_trace))
    assert np.all(np.diff(y_ref) >= 0.0)
    # The reference holds the raw value of the last accepted round: the
    # first round is always accepted, and each rise is an accept.
    rises = np.flatnonzero(np.diff(y_ref) > 0.0) + 1
    assert y_ref[0] == raw[0] and np.array_equal(y_ref[rises], raw[rises])
    assert rises.size > 0
    assert m.rounds_to_converge == _converged_at_by_loop(y_ref.tolist())


def test_converged_at_cases():
    assert engine._converged_at(np.full(40, 3.0)) == 20
    assert engine._converged_at(np.full(20, 3.0)) == 20
    assert engine._converged_at(np.zeros(60)) == 60
    # A rise of exactly 0.5% is not convergence.
    at_threshold = np.concatenate((np.full(20, 1000.0), np.full(30, 1005.0)))
    assert engine._converged_at(at_threshold) == 40


def test_metrics_json_is_valid():
    m = run_scenario(bench_scenario())
    doc = json.loads(m.to_json())
    assert set(doc) >= {"power_percentage", "rounds_to_converge", "stage_log",
                        "final_phases"}
    assert len(doc["final_phases"]) == 4


# name -> (scenario config, seed, sweep point or None).  A case with a point
# is the document cli.run_one writes, its scenario moved to that point.
JSON_CASES = {name: (scn_cfg, seed, None) for name, (scn_cfg, seed, _) in SCENARIOS.items()}
JSON_CASES.update({
    "run_one": (SCENARIOS["bench_3"][0], 5, {}),
    "run_one_sweep_point": (SCENARIOS["mobile_1mps"][0], 7, {"speed_m_per_s": 0.05}),
    "sync_failed": (dict(SCENARIOS["readme_fast"][0], noise_floor_dbm=30.0), 3, None),
    "one_round": (dict(SCENARIOS["bench_24"][0], rounds=1), 6, None),
})


@pytest.mark.parametrize("name", sorted(JSON_CASES))
def test_metrics_json_matches_asdict(name, tmp_path):
    scn_cfg, seed, point = JSON_CASES[name]
    cfg = parse_config({"scenario": scn_cfg})
    for axis, value in (point or {}).items():
        cfg["scenario"] = apply_axis(cfg["scenario"], axis, value)
    m = run_scenario(build_scenario(cfg["scenario"], seed))
    if point is None:
        assert m.to_json() == json.dumps(dataclasses.asdict(m), sort_keys=True, indent=1)
        return
    run_one(cfg, cfg["scenario"], seed, str(tmp_path), "", point)
    want = {"point": point, "seed": seed, "metrics": dataclasses.asdict(m)}
    assert ((tmp_path / f"run_seed{seed}.json").read_text()
            == json.dumps(want, sort_keys=True, indent=1))


def test_optimal_amplitude_is_sum_of_path_amplitudes():
    scn = bench_scenario()
    static = engine._static_phases(scn)
    to_node = channel(scn.slave_positions, engine.node_track(scn)[:, None, :], scn.medium,
                      scn.freq_hz, scn.tx_gain_dbi, static_phase_rad=static)
    got = optimal_amplitude(scn, to_node[0])
    # The coherent optimum only depends on per-link gains, not phases.
    amps = [abs(channel(sp, scn.node_position, scn.medium)) for sp in scn.slave_positions]
    assert got == pytest.approx(scn.tx_amplitude * sum(amps), rel=1e-12)


@pytest.mark.parametrize("speed", [0.01, 0.625, 3.7])
@pytest.mark.parametrize("rounds", [1, 40, 1000])
def test_node_track_drifts_along_x_at_speed(speed, rounds):
    scn = bench_scenario(rounds=rounds, speed_m_per_s=speed,
                         node_position=Position(0.3, -0.2, -0.1))
    track = engine.node_track(scn)
    assert track.shape == (rounds, 3)
    n = np.arange(rounds)
    np.testing.assert_allclose(track[:, 0], 0.3 + speed * n * scn.round_time_s,
                               rtol=1e-12, atol=0.0)
    assert (track[:, 1:] == [-0.2, -0.1]).all()


def test_static_node_track_has_one_row():
    scn = bench_scenario(rounds=40)
    assert scn.trajectory == []
    assert engine.node_track(scn).tolist() == [[0.0, 0.0, -0.1]]


def test_mobile_run_tracks_trajectory():
    # 0.625 m/s over 40 rounds of 2 ms ends 0.05 m along +x.
    scn = bench_scenario(rounds=40, speed_m_per_s=0.625)
    (_, start), (end_s, end) = scn.trajectory
    assert start == scn.node_position and end_s == 40 * scn.round_time_s
    assert end.x == pytest.approx(0.05, rel=1e-12)
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


def _unblocked_heatmap(scn, phases, grid):
    """The whole grid as one field matrix: the reference for the blocks."""
    m = cs.field_matrix(
        scn.slave_positions, grid, scn.freq_hz, scn.tx_gain_dbi,
        static_phases=engine._static_phases(scn),
        tx_amplitude=scn.tx_amplitude)
    return cs.field_power(m, np.asarray(phases))


@pytest.mark.parametrize("n", [1, 3, 24, 2100])
def test_blocked_heatmap_equals_one_matrix(monkeypatch, n):
    # Each voxel's power is the sum over its own row, so neither the block
    # size nor the voxel's place in its block moves a bit of it.
    scn = bench_scenario(n=n, seed=n)
    phases = np.random.default_rng(n).uniform(0.0, 2.0 * math.pi, n)
    grid = cs.cube_grid(scn.node_position, 1.0, 0.05)     # 8000 voxels
    if n > 24:
        grid = grid[:300]       # one 8000 x 2100 matrix would take 270 MB
    whole = _unblocked_heatmap(scn, phases, grid)
    assert np.array_equal(heatmap(scn, phases, grid), whole)
    for v in (0, len(grid) // 3, len(grid) - 1):
        assert heatmap(scn, phases, grid[v:v + 1])[0] == whole[v], v
    for block in (1, 2, 7):
        monkeypatch.setattr(engine, "HEATMAP_BLOCK_VOXELS", block)
        assert np.array_equal(heatmap(scn, phases, grid[:300]), whole[:300]), block


def test_heatmap_at_the_node_is_the_node_field_in_air():
    # In air the heat map and alignment see one link model and one field
    # sum, so the voxel on the node reads the power of the final phases.
    scn = bench_scenario(n=24, medium=MediumMap(muscle_depth_m=0.0))
    phases = run_scenario(scn).final_phases
    grid = cs.cube_grid(scn.node_position, 0.3, 0.1)
    at_node = np.linalg.norm(grid - np.asarray(scn.node_position), axis=1).argmin()
    assert np.allclose(grid[at_node], scn.node_position, rtol=0.0, atol=1e-15)
    to_node = channel(scn.slave_positions, scn.node_position, scn.medium, scn.freq_hz,
                      scn.tx_gain_dbi,
                      static_phase_rad=engine._static_phases(scn))
    node_power = abs(incident_field(to_node, np.asarray(phases), scn.tx_amplitude)) ** 2
    assert heatmap(scn, phases, grid)[at_node] == pytest.approx(node_power, rel=1e-12)


def test_heatmap_needs_one_phase_per_slave():
    scn = bench_scenario(n=4)
    grid = cs.cube_grid(scn.node_position, 0.2, 0.1)
    for phases in ([], [0.0] * 3, [0.0] * 5, [[0.0] * 4], [[0.0]] * 4):
        shape = np.shape(phases)
        with pytest.raises(EngineError, match=re.escape(f"need 4 phases, not shape {shape}")):
            heatmap(scn, phases, grid)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_heatmap_rejects_non_finite_grid_points(bad):
    scn = bench_scenario(n=4)
    grid = cs.cube_grid(scn.node_position, 0.2, 0.1)
    grid[3, 1] = bad
    with pytest.raises(ChannelError, match="finite"):
        heatmap(scn, np.zeros(4), grid)


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
