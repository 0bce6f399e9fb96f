import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wptsim.channel import (
    SKIN_LOSS_IN_DB,
    SKIN_LOSS_OUT_DB,
    SPEED_OF_LIGHT,
    ChannelError,
    MediumMap,
    Position,
    air_loss,
    channel,
    dbm_to_watt,
    link_geometry,
    muscle_loss,
)


def per_term(d, depth, inbound, freq_hz=915e6):
    """(loss_db, path_m) of links of length ``d``, summed term by term in
    crossing order: air, skin, muscle inbound and the reverse outbound."""
    if depth == 0.0:
        return air_loss(d, freq_hz), d
    if inbound:
        return (air_loss(d - depth, freq_hz) + SKIN_LOSS_IN_DB + muscle_loss(depth),
                (d - depth) + depth)
    return (muscle_loss(depth) + SKIN_LOSS_OUT_DB + air_loss(d - depth, freq_hz),
            depth + (d - depth))


def want_geometry(d, depth, inbound, tx_gain_dbi=4.0, freq_hz=915e6):
    """(gain, phase) that :func:`link_geometry` must return, bit for bit."""
    loss, path = per_term(d, depth, inbound, freq_hz)
    gain = 10.0 ** (-loss / 20.0) * 10.0 ** (tx_gain_dbi / 20.0)
    wavelength = SPEED_OF_LIGHT / freq_hz
    return gain, (2.0 * math.pi * path / wavelength) % (2.0 * math.pi)


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
    # Entering the body costs 3 dB at the skin, leaving it 5 dB: over the
    # same geometry the outbound gain is 2 dB below the inbound one.
    assert (SKIN_LOSS_IN_DB, SKIN_LOSS_OUT_DB) == (3.0, 5.0)
    leader, node = Position(0, 0, 0.5), Position(0, 0, -0.1)
    m = MediumMap(muscle_depth_m=0.02)
    g_in, _ = link_geometry(leader, node, m, tx_gain_dbi=0.0, inbound=True)
    g_out, _ = link_geometry(node, leader, m, tx_gain_dbi=0.0, inbound=False)
    assert 20 * math.log10(g_in / g_out) == pytest.approx(2.0, abs=1e-9)


def test_budget_phase_matches_path_length():
    _, phase = link_geometry(Position(0, 0, 0), Position(1.25, 0, 0), freq_hz=915e6)
    lam = 3.0e8 / 915e6
    assert phase == pytest.approx((2 * math.pi * 1.25 / lam) % (2 * math.pi))
    # In tissue the path is the air and the muscle: the same straight line.
    _, inside = link_geometry(Position(0, 0, 0), Position(1.25, 0, 0),
                              MediumMap(muscle_depth_m=0.05), freq_hz=915e6)
    assert inside == pytest.approx(phase, rel=1e-12)


def test_received_power_subtracts_loss():
    # At a 0 dBi antenna the gain is the loss alone, so 30 dBm sent arrives
    # as 30 dBm less the loss.
    gain, _ = link_geometry(Position(0, 0, 0), Position(0, 1.0, 0), tx_gain_dbi=0.0)
    assert 30.0 + 20 * math.log10(gain) == pytest.approx(30.0 - air_loss(1.0), abs=1e-9)


def test_depth_must_not_exceed_distance():
    for inbound in (True, False):
        for depth in (0.05, 0.04):
            with pytest.raises(ChannelError, match="smaller than link distance"):
                link_geometry(Position(0, 0, 0), Position(0, 0.04, 0),
                              MediumMap(muscle_depth_m=depth), inbound=inbound)


@pytest.mark.parametrize("depth", [0.0, 0.013, 0.05])
@pytest.mark.parametrize("inbound", [True, False])
def test_array_segments_equal_per_link_budgets(depth, inbound):
    # The gain and phase of a table of links, and of each link as a 0-d
    # pair, are the per-term sums in crossing order, bit for bit.  The links
    # run from 6 cm to 12 m, so their air losses span several binades, and
    # at 13 mm the muscle loss, 460 * 0.013 dB, is inexact: a sum in another
    # order rounds differently for some links.
    rng = np.random.default_rng(3)
    rx = rng.uniform(-0.1, 0.1, 3)
    ray = rng.normal(size=(200, 3))
    tx = rx + rng.uniform(0.06, 12.0, (200, 1)) * ray / np.linalg.norm(ray, axis=1, keepdims=True)
    d = np.sqrt(sum((tx[:, k] - rx[k]) ** 2 for k in range(3)))
    medium = MediumMap(muscle_depth_m=depth)
    gain, phase = link_geometry(tx, rx, medium, tx_gain_dbi=4.0, inbound=inbound)
    want_gain, want_phase = want_geometry(d, depth, inbound)
    assert np.array_equal(gain, want_gain) and np.array_equal(phase, want_phase)
    assert not (gain.flags.writeable or phase.flags.writeable)
    for k in range(d.size):
        one = link_geometry(tx[k], rx, medium, tx_gain_dbi=4.0, inbound=inbound)
        assert [np.ndim(v) for v in one] == [0, 0]
        # A scalar's ** 2 is libm's pow, which can round the distance 1 ulp
        # away from the table's.
        dk = np.sqrt(sum((tx[k, j] - rx[j]) ** 2 for j in range(3)))
        assert one == want_geometry(dk, depth, inbound)


def test_array_segments_reject_any_bad_entry():
    # One link of a table that the muscle layer reaches past refuses the
    # whole table, in either direction.
    tx = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.05], [2.0, 0.0, 0.0]])
    for inbound in (True, False):
        with pytest.raises(ChannelError, match="smaller than link distance"):
            link_geometry(tx, np.zeros(3), MediumMap(muscle_depth_m=0.05), inbound=inbound)
    gain, _ = link_geometry(tx, np.zeros(3), MediumMap(muscle_depth_m=0.049))
    assert gain.shape == (3,)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["freq_hz", "tx_gain_dbi"])
def test_link_geometry_refuses_a_non_finite_frequency_or_gain(name, value):
    # A NaN frequency used to give a NaN link, an infinite one gain 0 with a
    # NaN phase, and a NaN gain a NaN link.
    for medium in (MediumMap(), MediumMap(muscle_depth_m=0.05)):
        with pytest.raises(ChannelError, match=f"^{name} must be finite"):
            link_geometry(Position(0, 0, 0), Position(1, 0, 0), medium, **{name: value})
        with pytest.raises(ChannelError, match=f"^{name} must be finite"):
            channel(Position(0, 0, 0), Position(1, 0, 0), medium, **{name: value})


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
            want, phase = want_geometry(d, depth, inbound)
            assert abs(table[r, i]) == pytest.approx(want, rel=1e-12)
            assert np.angle(table[r, i]) % (2 * math.pi) == pytest.approx(
                (phase + static[i]) % (2 * math.pi), rel=1e-12)


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
    assert 10.0 * math.log10(dbm_to_watt(p_dbm) / 1e-3) == pytest.approx(p_dbm, abs=1e-9)


@given(st.floats(min_value=0.01, max_value=50), st.floats(min_value=1.01, max_value=4))
def test_air_loss_monotone_in_distance(d, factor):
    assert air_loss(d * factor) > air_loss(d)
