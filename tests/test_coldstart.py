import math
import re

import numpy as np
import pytest

from oracles import coherent_optimum_power, scanning_ratio
from wptsim import coldstart as cs, engine
from wptsim.backscatter import BackscatterNode
from wptsim.channel import ChannelError, MediumMap, Position, channel, incident_field
from wptsim.cli import build_scenario, parse_config
from wptsim.engine import ring_positions


def _setup(n=8, seed=0, voxel=0.2):
    rng = np.random.default_rng(seed)
    slaves = ring_positions(n, radius_m=4.0, height_m=2.0)
    leader = Position(0.3, 0.1, 0.0)
    static = rng.uniform(0, 2 * np.pi, n)
    grid = cs.cube_grid(leader, 2.0, voxel)
    m = cs.field_matrix(slaves, grid, static_phases=static)
    ml = cs.field_matrix(slaves, np.array([[leader.x, leader.y, leader.z]]),
                         static_phases=static)
    base = (-np.angle(ml[0])) % (2 * np.pi)
    return m, base, grid, leader


def test_cube_grid_shape_and_center():
    c = Position(1.0, -2.0, 0.5)
    g = cs.cube_grid(c, 1.0, 0.25)
    assert g.shape == (64, 3)
    assert np.allclose(g.mean(axis=0), [c.x, c.y, c.z])
    # A partial voxel would move the cube off its centre: 1.0 / 0.3 used to
    # centre on -0.05 m, 0.5 / 0.2 on -0.05 m too.
    for edge, voxel in ((1.0, 0.3), (0.5, 0.2)):
        with pytest.raises(ValueError, match="whole number"):
            cs.cube_grid(c, edge, voxel)
    # 0.3 / 0.1 reads 2.9999999999999996 and 0.7 / 0.1 6.999999999999999.
    for edge, voxel, count in ((0.3, 0.1, 3), (0.7, 0.1, 7)):
        g = cs.cube_grid(c, edge, voxel)
        assert g.shape == (count ** 3, 3)
        assert np.allclose(g.mean(axis=0), [c.x, c.y, c.z], rtol=0.0, atol=1e-12)


def test_field_matrix_inverse_distance_amplitude():
    slaves = [Position(0, 0, 1.0)]
    pts = np.array([[0, 0, 0.0], [0, 0, -1.0]])  # distances 1 m and 2 m
    m = cs.field_matrix(slaves, pts, tx_gain_dbi=0.0)
    assert abs(m[0, 0]) / abs(m[1, 0]) == pytest.approx(2.0)


def test_field_matrix_rejects_coincident_point():
    slaves = [Position(0, 0, 1.0)]
    with pytest.raises(ChannelError):
        cs.field_matrix(slaves, np.array([[0, 0, 1.0]]))


@pytest.mark.parametrize("points", [np.zeros(3), np.zeros((2, 2)), np.zeros((1, 3, 1))])
def test_field_matrix_rejects_points_that_are_not_rows_of_three(points):
    with pytest.raises(ChannelError, match=re.escape("(V, 3)")):
        cs.field_matrix([Position(0, 0, 1.0)], points)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_field_matrix_rejects_non_finite_point(bad):
    slaves = [Position(0, 0, 1.0), Position(1.0, 0, 1.0)]
    with pytest.raises(ChannelError, match="finite"):
        cs.field_matrix(slaves, np.array([[0, 0, 0.0], [0, 0, bad]]))


def test_leader_focused_phases_combine_coherently():
    rng = np.random.default_rng(1)
    slaves = ring_positions(6, radius_m=3.0, height_m=1.5)
    leader = Position(0, 0, 0)
    static = rng.uniform(0, 2 * np.pi, 6)
    chans = channel(slaves, leader, MediumMap(), static_phase_rad=static)
    phases = cs.leader_focused_phases(chans)
    field = incident_field(chans, phases, 1.0)
    assert abs(field) == pytest.approx(np.abs(chans).sum(), rel=1e-9)


def test_coherent_optimum_upper_bounds_any_phasing():
    m, base, _, _ = _setup()
    opt = coherent_optimum_power(m)
    rng = np.random.default_rng(2)
    for _ in range(5):
        p = cs.field_power(m, rng.uniform(0, 2 * np.pi, m.shape[1]))
        assert np.all(p <= opt * (1 + 1e-9))


def test_perturbation_round_within_sigma():
    rng = np.random.default_rng(4)
    base = np.zeros(500)
    out = cs.perturbation_round(base, 30.0, rng)
    dev = np.angle(np.exp(1j * out))
    assert np.max(np.abs(dev)) <= math.radians(30) + 1e-9


def test_scanning_ratio_basic_properties():
    m, base, _, _ = _setup()
    res = scanning_ratio(m, base, 55.0, 60, np.random.default_rng(5))
    assert 0.0 <= res.scanning_ratio <= 1.0
    # Scanned set only grows with rounds.
    assert np.all(np.diff(res.ratio_by_round) >= 0)
    assert res.ratio_by_round[-1] == res.scanning_ratio


def test_scanning_ratio_zero_sigma_never_grows():
    m, base, grid, leader = _setup(voxel=0.1)
    res = scanning_ratio(m, base, 0.0, 30, np.random.default_rng(6))
    # Without perturbations the beam never moves, so whatever is covered
    # after the first full measurement cycle is all that ever will be.
    assert res.ratio_by_round[1] == res.scanning_ratio
    perturbed = scanning_ratio(m, base, 55.0, 30, np.random.default_rng(6))
    assert perturbed.scanning_ratio > res.scanning_ratio


def test_scanning_ratio_rejects_empty_grid():
    with pytest.raises(ValueError):
        scanning_ratio(np.empty((0, 3)), np.zeros(3), 55.0, 10,
                       np.random.default_rng(0))


def _runner(node_pos, tx_amp, seed=0, n=6):
    rng = np.random.default_rng(seed)
    slaves = ring_positions(n, radius_m=1.0, height_m=0.5)
    static = rng.uniform(0, 2 * np.pi, n)
    leader = Position(0, 0, 0)
    medium = MediumMap(muscle_depth_m=0.05)
    lead_ch = channel(slaves, leader, MediumMap(), static_phase_rad=static)
    node_ch = channel(slaves, node_pos, medium, static_phase_rad=static)
    node = BackscatterNode()
    return cs.ColdStartRunner(node, lead_ch, node_ch, tx_amp, 55.0, rng), node


def _readme_round_zero(seed: int, leader_m: list):
    """(incident field of the leader-focused beam, coherent optimum, runner)
    at the node of the README scenario with its leader at ``leader_m``."""
    cfg = parse_config({"scenario": {"leader_position_m": leader_m}})["scenario"]
    scn = build_scenario(cfg, seed)
    static = engine._static_phases(scn)
    to_node = channel(scn.slave_positions, scn.node_position, scn.medium, scn.freq_hz,
                      scn.tx_gain_dbi, static_phase_rad=static)
    to_leader = channel(scn.slave_positions, scn.leader_position, MediumMap(), scn.freq_hz,
                        scn.tx_gain_dbi, static_phase_rad=static)
    field = incident_field(to_node, cs.leader_focused_phases(to_leader), scn.tx_amplitude)
    runner = cs.ColdStartRunner(BackscatterNode(wake_threshold_dbm=scn.wake_threshold_dbm),
                                to_leader, to_node, scn.tx_amplitude, scn.sigma_deg,
                                engine._stream(seed, "cold_start"))
    return field, engine.optimal_amplitude(scn, to_node), runner


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_leader_focused_beam_on_the_readme_axis_is_the_optimum(seed):
    # The README leader sits on the ring's axis, above the node, so the beam
    # that focuses on it is coherent at the node too, and wakes it at once.
    field, optimum, runner = _readme_round_zero(seed, [0.0, 0.0, 0.0])
    assert abs(field) == pytest.approx(optimum, rel=1e-12)
    res = runner.run()
    assert res.success and res.rounds_used == 0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_leader_focused_beam_off_the_axis_misses_the_node(seed):
    field, optimum, _ = _readme_round_zero(seed, [0.3, 0.2, 0.0])
    assert abs(field) ** 2 < 0.25 * optimum ** 2


def test_cold_start_succeeds_with_strong_field():
    runner, node = _runner(Position(0.5, 0, -0.1), tx_amp=1.0)
    res = runner.run()
    assert res.success
    assert node.awake


def test_cold_start_fails_without_power():
    runner, node = _runner(Position(0.5, 0, -0.1), tx_amp=1e-6)
    res = runner.run()
    assert not res.success
    assert res.rounds_used == cs.MAX_PERTURBATIONS
    assert not node.awake


def test_export_heatmap_schema(tmp_path):
    pts = cs.cube_grid(Position(0, 0, 0), 0.4, 0.2)
    power = np.ones(pts.shape[0])
    path = tmp_path / "heat.csv"
    cs.export_heatmap(pts, power, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x_m,y_m,z_m,power_w"
    assert len(lines) == 1 + pts.shape[0]


def _savetxt_bytes(points, power, path):
    """The export as ``np.savetxt`` wrote it: the byte-for-byte reference."""
    np.savetxt(path, np.column_stack([points, power]), delimiter=",",
               header="x_m,y_m,z_m,power_w", comments="")
    return path.read_bytes()


def _export_cases():
    rng = np.random.default_rng(4)
    grid = cs.cube_grid(Position(0.3, -0.2, -0.1), 1.0, 0.05)
    scattered = rng.standard_normal((500, 3)) * 10.0 ** rng.uniform(-300, 300, (500, 3))
    scattered[:5] = [[-0.0, 0.0, -0.0], [0.0, -0.0, 5e-324], [-5e-324, 1e308, -1e308],
                     [1e-5, -1e-5, 123456789.0], [np.pi, -np.e, 1.0]]
    return {
        "cube": (grid, rng.uniform(0.0, 1e-3, len(grid))),
        "scattered": (scattered, 10.0 ** rng.uniform(-320, 300, 500)),
        "one_voxel": (cs.cube_grid(Position(0, 0, 0), 0.1, 0.1), np.array([0.25])),
        "zero_power": (grid[:64], np.zeros(64)),
        "empty": (np.empty((0, 3)), np.empty(0)),
    }


@pytest.mark.parametrize("name", sorted(_export_cases()))
def test_export_heatmap_matches_savetxt_bytes(tmp_path, name):
    points, power = _export_cases()[name]
    cs.export_heatmap(points, power, tmp_path / "fast.csv")
    want = _savetxt_bytes(points, power, tmp_path / "savetxt.csv")
    assert (tmp_path / "fast.csv").read_bytes() == want


def test_export_heatmap_rejects_mismatched_shapes(tmp_path):
    with pytest.raises(ValueError):
        cs.export_heatmap(np.zeros((4, 3)), np.zeros(3), tmp_path / "h.csv")
    with pytest.raises(ValueError):
        cs.export_heatmap(np.zeros((4, 2)), np.zeros(4), tmp_path / "h.csv")
