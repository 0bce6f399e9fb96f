import hashlib
import math
import warnings
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import ive

from wptsim import engine
from wptsim.backscatter import BackscatterNode
from wptsim.beamform import (
    _SERIES_MAX_X,
    BeamformError,
    _build_bound_schedule,
    bessel_ratio,
    compute_bound_schedule,
    solve_concentration,
)
from wptsim.channel import Position
from wptsim.engine import EngineError, Scenario, SyncSettings, ring_positions
from oracles import (
    amplitude_distributions,
    amplitude_transition,
    expected_amplitude_step,
    expected_trajectory,
    propose,
    simulate_update_rule,
    uniform_cos_moment,
)


# ---------------------------------------------------------------------------
# Special functions against the scipy oracle.

def _bessel_scaled_by_quadrature(k, x):
    """I_k(x) * exp(-x) by adaptive quadrature of the integral definition
    (1/pi) * integral over [0, pi] of cos(k phi) exp(x (cos phi - 1)) dphi;
    the scaling keeps the integrand bounded for large x."""
    val, _ = quad(lambda phi: math.cos(k * phi) * math.exp(x * (math.cos(phi) - 1.0)),
                  0.0, math.pi, limit=200)
    return val / math.pi


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("x", [0.0, 0.5, 3.0, 25.0, 400.0])
def test_bessel_quadrature_matches_scipy(k, x):
    assert _bessel_scaled_by_quadrature(k, x) == pytest.approx(ive(k, x), rel=1e-9,
                                                               abs=1e-12)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("x", [0.0, 1e-3, 0.5, 3.0, 25.0, 400.0, 5e3, 9e4])
def test_bessel_ratio_matches_quadrature(k, x):
    want = (_bessel_scaled_by_quadrature(k, x) / _bessel_scaled_by_quadrature(0, x)
            if x > 0 else 0.0)
    assert bessel_ratio(k, x) == pytest.approx(want, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("k", [1, 2])
def test_bessel_ratio_at_numeric_extremes(k):
    # ive returns NaN from about x = 1e10; the asymptotic branch above 1e5
    # must keep the ratio finite and continuous across its seam.
    for x in (1e5 - 1, 1e5 + 1, 1e9, 1e10, 1e12, 1e13):
        r = bessel_ratio(k, x)
        assert math.isfinite(r) and 0.0 <= r <= 1.0
    assert abs(bessel_ratio(k, 1e5) - bessel_ratio(k, math.nextafter(1e5, 2e5))) < 1e-9
    assert math.isfinite(solve_concentration(1.0))


@pytest.mark.parametrize("x", [5e-324, 1e-310, 1e-200])
def test_bessel_ratio_at_subnormal_and_tiny_arguments(x):
    # Leading terms I1/I0 = x/2 and I2/I0 = x^2/8; the x^3 corrections
    # underflow here.  One subnormal step of slack for the halving.
    assert bessel_ratio(1, x) == pytest.approx(x / 2.0, rel=1e-12, abs=5e-324)
    assert bessel_ratio(2, x) == pytest.approx(x * x / 8.0, rel=1e-12, abs=5e-324)
    assert bessel_ratio(0, x) == 1.0


@pytest.mark.parametrize("k", [1, 2])
def test_bessel_ratio_continuous_across_series_seam(k):
    below = bessel_ratio(k, math.nextafter(_SERIES_MAX_X, 0.0))
    assert abs(bessel_ratio(k, _SERIES_MAX_X) - below) < 1e-12


@pytest.mark.parametrize("k", [1, 2])
def test_bessel_ratio_matches_scipy_ive(k):
    # ive itself returns NaN from about x = 1e9.
    xs = np.concatenate([np.logspace(-100, 8.0, 400), np.linspace(0.05, 100.0, 400)])
    want = ive(k, xs) / ive(0, xs)
    got = np.array([bessel_ratio(k, float(x)) for x in xs])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_bessel_ratio_rejects_negative_argument():
    with pytest.raises(BeamformError):
        bessel_ratio(1, -0.5)


@given(st.floats(min_value=0.0, max_value=300.0))
@settings(max_examples=30, deadline=None)
def test_bessel_ratio_matches_quadrature_property(x):
    for k in (1, 2):
        want = (_bessel_scaled_by_quadrature(k, x) / _bessel_scaled_by_quadrature(0, x)
                if x > 0 else 0.0)
        assert bessel_ratio(k, x) == pytest.approx(want, rel=1e-8, abs=1e-10)


@given(st.floats(min_value=0.0, max_value=0.995))
@settings(max_examples=30, deadline=None)
def test_concentration_solver_inverts_ratio(t):
    eta = solve_concentration(t)
    assert bessel_ratio(1, eta) == pytest.approx(t, abs=1e-7)


def test_uniform_cos_moment():
    assert uniform_cos_moment(0.0) == 1.0
    phi = 0.7
    grid = np.linspace(-phi, phi, 20001)
    numeric = np.trapezoid(np.cos(grid), grid) / (2 * phi)
    assert uniform_cos_moment(phi) == pytest.approx(numeric, abs=1e-9)


# ---------------------------------------------------------------------------
# Expected amplitude step.

def test_expected_step_validation():
    with pytest.raises(BeamformError):
        expected_amplitude_step(-0.1, 5, 0.3)
    with pytest.raises(BeamformError):
        expected_amplitude_step(1.0, 5, 0.0)
    with pytest.raises(BeamformError):
        expected_amplitude_step(1.0, 5, 4.0)


def test_expected_step_never_decreases():
    # Keep-if-improved can only help in expectation.
    for y in (0.5, 2.0, 4.5):
        for deg in (5, 15, 45, 90):
            assert expected_amplitude_step(y, 5, math.radians(deg)) >= y - 1e-12


def test_expected_step_never_exceeds_n():
    # The amplitude of N unit phasors cannot exceed N, whatever the model.
    assert expected_amplitude_step(2.0, 2, math.radians(60)) <= 2.0
    for n in (2, 5, 24):
        for y in np.linspace(0.0, n, 11):
            for phi in np.linspace(math.pi / 36, math.pi, 12):
                assert expected_amplitude_step(float(y), n, float(phi)) <= n


@lru_cache(maxsize=None)
def _brute_force_single_round(n, phi, target):
    """Mean amplitude after one round of the update rule from random phase
    states conditioned on amplitude ``target``."""
    rng = np.random.default_rng(0)
    trials = 400000
    phases = rng.uniform(0, 2 * math.pi, size=(4 * trials, n))
    amp = np.abs(np.exp(1j * phases).sum(axis=1))
    sel = np.abs(amp - target) < 0.01
    phases, amp = phases[sel], amp[sel]
    cand = phases + rng.uniform(-phi, phi, size=phases.shape)
    cand_amp = np.abs(np.exp(1j * cand).sum(axis=1))
    stepped = np.where(cand_amp > amp, cand_amp, amp)
    return float(stepped.mean())


def test_expected_step_single_round_monte_carlo():
    # One-round cross-check against a brute-force simulation at N=4.
    n, phi, target = 4, math.radians(20), 2.2
    assert expected_amplitude_step(target, n, phi) == pytest.approx(
        _brute_force_single_round(n, phi, target), rel=0.01)


# ---------------------------------------------------------------------------
# Bound schedule.

def test_schedule_is_large_then_small():
    s = compute_bound_schedule(24, horizon=300)
    assert s[0] > s[100] > s[299]
    assert s[0] >= math.radians(45)
    assert s[299] <= math.radians(15)


# sha256 of the per-round grid optima and of the schedule, horizon 300,
# captured while bessel_ratio was scipy's ive(k, x) / ive(0, x) and the
# schedule evaluated the polynomial on every call.
PINNED_SCHEDULES = {
    3: ("00c8bb131be60cd789a95b6280604fbd407dde542f61765d7f094cfe025980c6",
        "6f56d9caeab4ae28ee4acc134a920989cfde852375aa8f0f9d4c2dd447c2d20c"),
    24: ("60cda9f20e1306e8efe39d3443e1e6823e0d87d4a524417e4466faff6a5ac284",
         "da1a203b929ed55d2bb5216a6cf21b018a1150ed7ca17c9454ed5093981ee9fa"),
}


@pytest.mark.parametrize("n", sorted(PINNED_SCHEDULES))
def test_schedule_is_pinned(n):
    s = compute_bound_schedule(n, horizon=300)
    optima = _build_bound_schedule(n, 300, None)[1]
    assert (hashlib.sha256(optima.tobytes()).hexdigest(),
            hashlib.sha256(s.tobytes()).hexdigest()) == PINNED_SCHEDULES[n]


def test_schedule_table_is_the_clipped_polynomial():
    s, _, coeffs = _build_bound_schedule(24, 300, None)
    for k in (0, 1, 150, 298, 299):
        want = np.clip(np.polyval(coeffs, k), math.radians(1.0), math.radians(180.0))
        assert s[k] == float(want)


@pytest.mark.parametrize("horizon", [1, 2, 7, 8])
def test_short_horizon_schedule_interpolates_its_optima(horizon):
    # Fewer rounds than polynomial coefficients: the fit drops to degree
    # horizon - 1 instead of an ill-posed degree-7 least squares.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        s = compute_bound_schedule(5, horizon=horizon)
    np.testing.assert_allclose(s, _build_bound_schedule(5, horizon, None)[1],
                               rtol=0.0, atol=1e-9)
    with pytest.raises(BeamformError):
        compute_bound_schedule(5, horizon=0)


def test_schedule_has_one_bound_per_round_in_range():
    s = compute_bound_schedule(10, horizon=100)
    assert s.shape == (100,) and s.dtype == float
    assert np.all((s > 0) & (s <= math.pi))


def test_schedule_needs_two_slaves():
    with pytest.raises(BeamformError):
        compute_bound_schedule(1)


def test_schedule_is_shared_and_read_only():
    s = compute_bound_schedule(10, horizon=100)
    assert compute_bound_schedule(10, horizon=100) is s
    for arr in _build_bound_schedule(10, 100, None):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_schedule_cache_keys_on_horizon_and_start():
    s, optima, coeffs = _build_bound_schedule(10, 100, None)
    longer, longer_optima, longer_coeffs = _build_bound_schedule(10, 120, None)
    assert longer.shape == longer_optima.shape == (120,)
    assert not np.array_equal(longer_coeffs, coeffs)
    near_optimum = _build_bound_schedule(10, 100, 9.5)[1]
    assert near_optimum[0] < optima[0]
    assert not np.array_equal(near_optimum, optima)


# ---------------------------------------------------------------------------
# Density evolution of the amplitude.

def test_transition_single_round_monte_carlo():
    # One round from a point mass, same brute-force reference as the
    # closed-form step above.
    n, phi, target = 4, math.radians(20), 2.2
    grid, dists = amplitude_distributions(n, phi, 1, target)
    assert float(dists[0] @ grid) == pytest.approx(target, abs=1e-12)
    assert float(dists[1] @ grid) == pytest.approx(
        _brute_force_single_round(n, phi, target), rel=0.01)


@pytest.mark.parametrize("n,bound", [
    (2, math.radians(60)),
    (5, math.radians(15)),
    (10, math.radians(180)),
    pytest.param(24, np.radians(90.0 / (1 + np.arange(20))), id="24-decaying"),
])
def test_amplitude_distributions_are_probabilities(n, bound):
    for y0 in (0.0, math.sqrt(n), float(n)):
        grid, dists = amplitude_distributions(n, bound, 20, y0)
        assert grid[0] == 0.0 and grid[-1] == n
        assert np.all(np.diff(grid) > 0)
        assert np.all(dists >= 0.0)
        assert np.allclose(dists.sum(axis=1), 1.0, rtol=0.0, atol=1e-9)


def test_transition_only_moves_up():
    t = amplitude_transition(5, math.radians(30))
    assert np.all(np.tril(t, -1) == 0.0)
    assert np.allclose(t.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)


def test_density_evolution_validation():
    with pytest.raises(BeamformError):
        amplitude_transition(5, 0.0)
    with pytest.raises(BeamformError):
        amplitude_transition(5, 4.0)
    with pytest.raises(BeamformError):
        amplitude_distributions(5, 0.3, 10, 5.5)
    with pytest.raises(BeamformError):
        amplitude_distributions(5, 0.3, -1, 1.0)
    with pytest.raises(BeamformError):
        amplitude_distributions(0, 0.3, 10, 0.0)


def test_expected_trajectory_monotone_under_schedule():
    s = compute_bound_schedule(10, horizon=200)
    traj = expected_trajectory(10, s, 200, math.sqrt(10))
    assert np.all(np.diff(traj) >= -1e-9)
    assert traj[-1] <= 10.0 + 1e-9
    assert traj[-1] > 9.0


# ---------------------------------------------------------------------------
# The one-bit rule, as engine._align walks it.

def _walk(measure, monkeypatch, n=4, rounds=5, bound=30.0):
    """(``engine._align``'s result, its bounds) over ``rounds`` rounds of
    unit links and an awake node, with ``measure`` in place of
    ``engine._measure`` and the proposals stream seeded with 3."""
    scn = Scenario(slave_positions=ring_positions(n, 1.0, 0.0),
                   leader_position=Position(0.0, 0.0, 0.0),
                   node_position=Position(0.0, 0.0, -0.1), rounds=rounds, bound=bound,
                   sync=SyncSettings(enabled=False), cold_start_enabled=False)
    node = BackscatterNode(dynamic_power_draw_w=0.0, awake=True)
    bounds = engine._bounds(scn)
    monkeypatch.setattr(engine, "_measure", measure)
    out = engine._align(scn, node, bounds, np.ones((rounds, n), complex), np.ones(rounds),
                        np.ones(rounds), (1.0, 0.0), np.random.default_rng(3),
                        np.random.default_rng(0))
    return out, bounds


def _scripted(values):
    """A stand-in for ``engine._measure`` that returns ``values`` in turn."""
    values = iter(values)
    return lambda *args: next(values)


def test_aligner_accepts_only_strict_gains(monkeypatch):
    # Round 0 is kept at any value, a tie is rejected, any rise is kept, a
    # rejected proposal leaves the reference phases where they were, and a
    # measurement that is not finite is refused by name.
    rise = 100.0 * (1 + 1e-12)
    script = [0.0, 100.0, 100.0, rise, 5.0]
    (raw, y_ref, _, phases), bounds = _walk(_scripted(script), monkeypatch)
    assert raw == script
    assert y_ref == [0.0, 100.0, 100.0, rise, rise]
    rng = np.random.default_rng(3)
    ref_phases = rng.uniform(0.0, 2.0 * math.pi, 4)
    for phi, keep in zip(bounds, [True, True, False, True, False]):
        proposal = propose(rng, ref_phases, phi)
        if keep:
            ref_phases = proposal
    assert phases.tolist() == ref_phases.tolist()
    for bad in (math.nan, math.inf):
        with pytest.raises(EngineError, match="round 1: measurement must be finite"):
            _walk(_scripted([1.0, bad]), monkeypatch)


def test_aligner_improves_ideal_metric(monkeypatch):
    # With unit links and the noise-free metric |h|, 200 rounds at a
    # 25-degree bound bring 8 slaves within 10% of coherence.
    (_, y_ref, _, phases), _ = _walk(lambda node, h, *args: abs(h), monkeypatch,
                                     n=8, rounds=200, bound=25.0)
    start = np.random.default_rng(3).uniform(0.0, 2.0 * math.pi, 8)
    amplitude = abs(np.exp(1j * phases).sum())
    assert amplitude > max(abs(np.exp(1j * start).sum()), 0.9 * 8)
    assert y_ref[-1] == pytest.approx(amplitude, rel=1e-12)


@pytest.mark.parametrize("n", [1, 3, 24])
def test_bulk_offsets_equal_per_round_uniform_draws(n):
    # engine._align draws every round's offsets in one uniform call with a
    # (R, 1) column of bounds; row n must equal the n-th of R calls of
    # uniform(-phi, phi, N), bound by bound.
    bounds = np.concatenate(([math.pi, math.radians(1.0)],
                             np.radians(np.linspace(180.0, 1.0, 97)),
                             compute_bound_schedule(24, horizon=300)))
    phi = bounds[:, None]
    offsets = np.random.default_rng(n).uniform(-phi, phi, (bounds.size, n))
    assert offsets.shape == (bounds.size, n)
    per_round = np.random.default_rng(n)
    for phi, row in zip(bounds, offsets):
        assert row.tobytes() == per_round.uniform(-phi, phi, n).tobytes()


def test_simulate_update_rule_mean_never_decreases():
    rng = np.random.default_rng(0)
    means = simulate_update_rule(6, math.radians(30), 60, 2000, rng)
    assert np.all(np.diff(means) >= -1e-9)


def test_simulate_update_rule_return_finals():
    rng = np.random.default_rng(0)
    means, finals = simulate_update_rule(6, math.radians(30), 60, 500, rng,
                                         return_finals=True)
    assert finals.shape == (500,)
    assert means[-1] == pytest.approx(finals.mean())
