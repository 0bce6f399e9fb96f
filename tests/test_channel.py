import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wptsim.channel import (
    ChannelError,
    MediumMap,
    MediumSegment,
    Position,
    SegmentKind,
    air_loss,
    channel,
    compose_budget,
    dbm_to_watt,
    muscle_loss,
    one_way_segments,
    received_power_dbm,
    watt_to_dbm,
)


def test_air_loss_reference_points():
    # 915 MHz free-space endpoints: 31.67 dB at 1 m, 51.67 dB at 10 m.
    assert air_loss(1.0) == pytest.approx(31.67, abs=0.01)
    assert air_loss(10.0) == pytest.approx(51.67, abs=0.01)


def test_air_loss_inverse_square():
    # Doubling the distance adds exactly 20*log10(2) dB.
    assert air_loss(2.0) - air_loss(1.0) == pytest.approx(20 * math.log10(2), abs=1e-9)


def test_muscle_loss_slope():
    assert muscle_loss(0.02) == pytest.approx(9.2, abs=1e-9)
    assert muscle_loss(0.06) == pytest.approx(27.6, abs=1e-9)
    assert muscle_loss(0.0) == 0.0
    with pytest.raises(ChannelError, match="muscle depth"):
        muscle_loss(-0.01)


def test_boundary_losses_are_asymmetric():
    assert MediumSegment(SegmentKind.SKIN_IN).loss_db() == 3.0
    assert MediumSegment(SegmentKind.SKIN_OUT).loss_db() == 5.0
    assert MediumSegment(SegmentKind.INSERTION).loss_db() == 30.0


def test_boundary_segments_reject_length():
    with pytest.raises(ChannelError):
        MediumSegment(SegmentKind.SKIN_IN, 0.1)


def test_compose_budget_is_additive():
    segs = [
        MediumSegment(SegmentKind.AIR, 1.0),
        MediumSegment(SegmentKind.SKIN_IN),
        MediumSegment(SegmentKind.MUSCLE, 0.02),
    ]
    b = compose_budget(segs)
    assert b.total_loss_db == pytest.approx(air_loss(1.0) + 3.0 + 9.2)
    assert b.path_length_m == pytest.approx(1.02)
    with pytest.raises(ChannelError, match="non-empty"):
        compose_budget([])


def test_budget_phase_matches_path_length():
    segs = [MediumSegment(SegmentKind.AIR, 1.25)]
    b = compose_budget(segs, freq_hz=915e6)
    lam = 3.0e8 / 915e6
    assert b.phase_rad == pytest.approx((2 * math.pi * 1.25 / lam) % (2 * math.pi))


def test_received_power_subtracts_loss():
    b = compose_budget([MediumSegment(SegmentKind.AIR, 1.0)])
    assert received_power_dbm(30.0, b) == pytest.approx(30.0 - air_loss(1.0))


def test_one_way_segment_order_depends_on_direction():
    m = MediumMap(muscle_depth_m=0.02)
    inn = one_way_segments(1.0, m, inbound=True)
    out = one_way_segments(1.0, m, inbound=False)
    assert [s.kind for s in inn] == [
        SegmentKind.AIR, SegmentKind.SKIN_IN, SegmentKind.MUSCLE]
    assert [s.kind for s in out] == [
        SegmentKind.MUSCLE, SegmentKind.SKIN_OUT, SegmentKind.AIR]


def test_one_way_segments_air_only():
    segs = one_way_segments(2.0, MediumMap(), inbound=True)
    assert len(segs) == 1 and segs[0].kind is SegmentKind.AIR


def test_depth_must_not_exceed_distance():
    with pytest.raises(ChannelError):
        one_way_segments(0.04, MediumMap(muscle_depth_m=0.05), inbound=True)


@pytest.mark.parametrize("depth", [0.0, 0.05])
@pytest.mark.parametrize("inbound", [True, False])
def test_array_segments_equal_per_link_budgets(depth, inbound):
    # One budget over an array of link lengths is the per-link budgets,
    # bit for bit, in loss, phase and path length.
    d = np.random.default_rng(3).uniform(0.06, 12.0, 50)
    medium = MediumMap(muscle_depth_m=depth)
    table = compose_budget(one_way_segments(d, medium, inbound))
    for k, dk in enumerate(d):
        one = compose_budget(one_way_segments(float(dk), medium, inbound))
        assert table.total_loss_db[k] == one.total_loss_db
        assert table.phase_rad[k] == one.phase_rad
        assert table.path_length_m[k] == one.path_length_m


def test_array_segments_reject_any_bad_entry():
    with pytest.raises(ChannelError):
        MediumSegment(SegmentKind.AIR, np.array([1.0, -0.1, 2.0]))
    with pytest.raises(ChannelError):
        MediumSegment(SegmentKind.MUSCLE, np.array([0.01, -1e-9]))
    with pytest.raises(ChannelError):
        MediumSegment(SegmentKind.SKIN_IN, np.array([0.0, 0.1]))
    with pytest.raises(ChannelError):
        one_way_segments(np.array([1.0, 0.05, 2.0]), MediumMap(muscle_depth_m=0.05), True)
    with pytest.raises(ChannelError):
        compose_budget([MediumSegment(SegmentKind.AIR, np.array([1.0, 0.0]))])
    seg = MediumSegment(SegmentKind.MUSCLE, np.array([0.0, 0.02]))
    assert np.array_equal(seg.loss_db(), [0.0, muscle_loss(0.02)])


@pytest.mark.parametrize("depth", [math.nan, -0.01, math.inf])
def test_medium_map_rejects_bad_depth(depth):
    # NaN used to pass the "< 0" check and fail later in the aligner.
    with pytest.raises(ChannelError, match="muscle_depth_m"):
        MediumMap(muscle_depth_m=depth)


def test_channel_gain_matches_budget():
    tx, rx = Position(0, 0, 0), Position(1.0, 0, 0)
    m = MediumMap(muscle_depth_m=0.02)
    c = channel(tx, rx, m, tx_gain_dbi=4.0, inbound=True)
    loss = air_loss(0.98) + 3.0 + 9.2
    assert abs(c) == pytest.approx(10 ** (-loss / 20) * 10 ** (4.0 / 20), rel=1e-12)


def test_channel_static_phase_offset():
    tx, rx = Position(0, 0, 0), Position(0, 0, 1.0)
    c0 = channel(tx, rx, static_phase_rad=0.0)
    c1 = channel(tx, rx, static_phase_rad=1.0)
    assert np.angle(c1 / c0) == pytest.approx(1.0)


@pytest.mark.parametrize("depth", [0.0, 0.05])
@pytest.mark.parametrize("inbound", [True, False])
def test_broadcast_channel_matches_per_link_calls_and_budget(depth, inbound):
    rng = np.random.default_rng(8)
    slaves = [Position(*p) for p in rng.uniform([-3, -3, 1], [3, 3, 3], (5, 3))]
    track = [Position(*p) for p in rng.uniform([-0.5, -0.5, -0.2], [0.5, 0.5, 0], (4, 3))]
    static = rng.uniform(0, 2 * np.pi, 5)
    medium = MediumMap(muscle_depth_m=depth)
    table = channel(slaves, np.asarray(track)[:, None, :], medium,
                    tx_gain_dbi=4.0, static_phase_rad=static, inbound=inbound)
    assert table.shape == (4, 5) and table.dtype == complex
    for r, node in enumerate(track):
        for i, sp in enumerate(slaves):
            one = channel(sp, node, medium, tx_gain_dbi=4.0,
                          static_phase_rad=static[i], inbound=inbound)
            assert np.ndim(one) == 0
            assert table[r, i] == one
            d = math.dist(np.array(sp), np.array(node))
            budget = compose_budget(one_way_segments(d, medium, inbound))
            want = 10 ** (-budget.total_loss_db / 20) * 10 ** (4.0 / 20)
            assert abs(table[r, i]) == pytest.approx(want, rel=1e-12)
            assert np.angle(table[r, i]) % (2 * math.pi) == pytest.approx(
                (budget.phase_rad + static[i]) % (2 * math.pi), rel=1e-12)


def test_outbound_channel_pays_the_skin_exit():
    node, leader = Position(0, 0, -0.1), Position(0, 0, 1.0)
    m = MediumMap(muscle_depth_m=0.05)
    out = channel(node, leader, m, tx_gain_dbi=0.0, inbound=False)
    loss = muscle_loss(0.05) + 5.0 + air_loss(1.05)
    assert abs(out) == pytest.approx(10 ** (-loss / 20), rel=1e-12)
    inn = channel(leader, node, m, tx_gain_dbi=0.0, inbound=True)
    assert 20 * math.log10(abs(inn) / abs(out)) == pytest.approx(2.0, abs=1e-9)


def test_channel_rejects_depth_beyond_link():
    with pytest.raises(ChannelError):
        channel(Position(0, 0, 0), Position(0, 0, 0.04), MediumMap(muscle_depth_m=0.05))


def test_channel_rejects_coincident_positions():
    p = Position(1, 2, 3)
    with pytest.raises(ChannelError):
        channel(p, p)
    with pytest.raises(ChannelError):
        channel([Position(0, 0, 1), p], p)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_channel_rejects_non_finite_coordinates(bad):
    # Raw arrays skip Position's check: a NaN coordinate used to come out as
    # a NaN gain and phase.
    for tx, rx in ((np.array([bad, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])),
                   (np.zeros((2, 3)), np.array([[0.0, bad, 1.0]]))):
        with pytest.raises(ChannelError, match="finite"):
            channel(tx, rx)
        with pytest.raises(ChannelError, match="finite"):
            channel(rx, tx, MediumMap(muscle_depth_m=0.05))


@pytest.mark.parametrize("flag", [True, False, np.True_, np.False_])
def test_medium_and_position_refuse_a_bool(flag):
    # Each used to build: a bool read as 1 or 0 m.
    with pytest.raises(ChannelError, match="muscle_depth_m"):
        MediumMap(muscle_depth_m=flag)
    for k, name in enumerate("xyz"):
        coords = [0.5, -0.5, 1.0]
        coords[k] = flag
        with pytest.raises(ChannelError, match=f"position {name} "):
            Position(*coords)


def test_position_rejects_non_finite():
    with pytest.raises(ChannelError):
        Position(math.nan, 0, 0)


@given(st.floats(min_value=-120, max_value=40))
def test_dbm_watt_round_trip(p_dbm):
    assert watt_to_dbm(dbm_to_watt(p_dbm)) == pytest.approx(p_dbm, abs=1e-9)


def test_watt_to_dbm_of_zero():
    assert watt_to_dbm(0.0) == -math.inf


@given(st.floats(min_value=0.01, max_value=50), st.floats(min_value=1.01, max_value=4))
def test_air_loss_monotone_in_distance(d, factor):
    assert air_loss(d * factor) > air_loss(d)
