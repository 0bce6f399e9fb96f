"""One-bit phase alignment and its expected-gain analysis.

The alignment loop perturbs every slave's phase by a uniform draw within
+/- Phi each round and keeps the new phases only when the smoothed power
metric improved.  The expected one-round amplitude gain has a closed form
built on modified Bessel function ratios; optimizing that gain round by
round yields the adaptive large-then-small phase-bound schedule.  The
expected amplitude over many rounds is computed by density evolution: the
distribution of the amplitude on [0, N] is pushed through the one-round
transition and its mean is read off each round.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np


class BeamformError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Ratios of modified Bessel functions of the first kind.

# Below this argument the power series is summed, above it the Hankel
# asymptotic series; both are accurate to a few 1e-14 relative at the seam.
_SERIES_MAX_X = 40.0
_SERIES_TOL = 1e-17


def bessel_ratio(k: int, x: float) -> float:
    """I_k(x) / I_0(x), stable for any x >= 0."""
    if x < 0:
        raise BeamformError("argument must be >= 0")
    if x == 0.0:
        return 1.0 if k == 0 else 0.0
    if x < _SERIES_MAX_X:
        return _ratio_by_power_series(k, x)
    return _ratio_by_hankel_series(k, x)


def _ratio_by_power_series(k: int, x: float) -> float:
    """I_k(x) = (x/2)^k / k! * sum_m (k! / (m! (m + k)!)) (x^2/4)^m.

    Every term is positive, so the running sums carry no cancellation; for a
    tiny x the sums are 1 and the ratio is the leading (x/2)^k / k!.  The
    k-series falls off faster than the 0-series (tk / t0 decreases in m), so
    the 0-series alone decides when both have converged.
    """
    q = 0.25 * x * x
    t0 = tk = s0 = sk = 1.0
    m = 0
    while t0 > _SERIES_TOL * s0:
        m += 1
        t0 *= q / (m * m)
        tk *= q / (m * (m + k))
        s0 += t0
        sk += tk
    return (0.5 * x) ** k / math.factorial(k) * sk / s0


def _ratio_by_hankel_series(k: int, x: float) -> float:
    """Ratio of the Hankel expansions of exp(-x) I_nu(x) sqrt(2 pi x),
    sum_j prod_{i <= j} ((2i - 1)^2 - 4 nu^2) / (8 i x), for nu = k and 0."""
    t0 = tk = s0 = sk = 1.0
    nu2 = 4 * k * k
    j = 0
    while abs(t0) > _SERIES_TOL * abs(s0) or abs(tk) > _SERIES_TOL * abs(sk):
        j += 1
        odd2 = (2 * j - 1) ** 2
        t0 *= odd2 / (8.0 * j * x)
        tk *= (odd2 - nu2) / (8.0 * j * x)
        s0 += t0
        sk += tk
    return sk / s0


def solve_concentration(mean_resultant: float, tol: float = 1e-10) -> float:
    """Solve I_1(eta)/I_0(eta) = mean_resultant for eta by bisection."""
    t = mean_resultant
    if not 0.0 <= t <= 1.0:
        raise BeamformError("mean resultant must lie in [0, 1]")
    if t <= 0.0:
        return 0.0
    t = min(t, 1.0 - 1e-12)
    lo, hi = 0.0, 1.0
    while bessel_ratio(1, hi) < t:
        hi *= 2.0
        if hi > 1e13:
            break
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if bessel_ratio(1, mid) < t:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Expected amplitude step of the one-bit update rule.

def uniform_cos_moment(phi_rad: float) -> float:
    """E[cos d] for d uniform on [-phi, phi]: sin(phi)/phi."""
    if phi_rad == 0.0:
        return 1.0
    return math.sin(phi_rad) / phi_rad

def _q_function(x: float) -> float:
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def perturbation_std(y_n: float, n_slaves: int, phi_rad: float,
                     i2i0: float | None = None) -> float:
    """Std deviation sigma_1 of the perturbed amplitude about its mean."""
    c1 = uniform_cos_moment(phi_rad)
    c2 = uniform_cos_moment(2.0 * phi_rad)
    if i2i0 is None:
        eta = solve_concentration(y_n / n_slaves)
        i2i0 = bessel_ratio(2, eta)
    var = (n_slaves / 2.0) * ((1.0 - c1 * c1) - i2i0 * (c1 * c1 - c2))
    return math.sqrt(max(var, 0.0))


def expected_amplitude_step(y_n: float, n_slaves: int, phi_rad: float) -> float:
    """Expected beamforming amplitude after one keep-if-improved round.

    ``y_n`` is the current resultant amplitude of ``n_slaves`` unit phasors
    (0 <= y_n <= N); ``phi_rad`` the half-width of the uniform perturbation.
    """
    if not 0.0 <= y_n <= n_slaves * (1.0 + 1e-12):
        raise BeamformError("amplitude must lie in [0, n_slaves]")
    if not 0.0 < phi_rad <= math.pi:
        raise BeamformError("phase bound must lie in (0, pi]")
    y_n = min(y_n, float(n_slaves))
    c1 = uniform_cos_moment(phi_rad)
    sigma1 = perturbation_std(y_n, n_slaves, phi_rad)
    if sigma1 <= 0.0:
        return y_n
    z = y_n * (1.0 - c1) / sigma1
    p = _q_function(z)
    step = y_n * (1.0 - p * (1.0 - c1)) + sigma1 / math.sqrt(2.0 * math.pi) * math.exp(-0.5 * z * z)
    # The 1-D Gaussian puts mass above the coherent optimum; the physical
    # amplitude cannot exceed N.
    return min(step, float(n_slaves))


def _step_over_grid(y_n: float, n_slaves: int, phi_grid: np.ndarray) -> np.ndarray:
    """Vectorized expected step across a grid of phase bounds."""
    eta = solve_concentration(y_n / n_slaves)
    i2i0 = bessel_ratio(2, eta)
    c1 = np.sinc(phi_grid / np.pi)          # sin(phi)/phi
    c2 = np.sinc(2.0 * phi_grid / np.pi)
    var = (n_slaves / 2.0) * ((1.0 - c1 * c1) - i2i0 * (c1 * c1 - c2))
    sigma1 = np.sqrt(np.clip(var, 0.0, None))
    out = np.full(phi_grid.shape, y_n, dtype=float)
    ok = sigma1 > 0
    z = np.zeros_like(sigma1)
    z[ok] = y_n * (1.0 - c1[ok]) / sigma1[ok]
    p = 0.5 * np.array([math.erfc(v) for v in (z / math.sqrt(2.0)).tolist()])
    gauss = sigma1 / math.sqrt(2.0 * math.pi) * np.exp(-0.5 * z * z)
    out[ok] = (y_n * (1.0 - p[ok] * (1.0 - c1[ok])) + gauss[ok])
    return out


# ---------------------------------------------------------------------------
# Adaptive phase-bound schedule.

@dataclass(frozen=True)
class BoundSchedule:
    coefficients: np.ndarray      # polynomial in the round index, degree <= poly_degree
    phi_min_rad: float
    phi_max_rad: float
    horizon: int
    optimal_rad: np.ndarray       # the per-round grid optima that were fitted
    table: np.ndarray             # the clipped polynomial at rounds 0..horizon-1

    def phi(self, n: int) -> float:
        return float(self.table[min(max(n, 0), self.horizon - 1)])

    def __call__(self, n: int) -> float:
        return self.phi(n)


def compute_bound_schedule(
    n_slaves: int,
    transfer_curve=None,
    horizon: int = 300,
    grid_step_deg: float = 1.0,
    y0: float | None = None,
    poly_degree: int = 7,
) -> BoundSchedule:
    """Per-round optimal phase bound, polynomial-fitted over the horizon.

    Each round picks the bound maximizing the expected amplitude after the
    one-round step by a grid search over (0, 180] degrees, then moves the
    amplitude to that step.  The backscatter transfer curve, when given,
    must be monotone; a monotone curve preserves the order of the expected
    amplitudes, so the chosen bounds do not depend on it.

    Schedules are cached per (n_slaves, horizon, grid_step_deg, y0,
    poly_degree) and shared by every caller, so the returned schedule and
    its arrays are read-only.
    """
    if n_slaves < 2:
        raise BeamformError("need at least two slaves")
    if horizon < 1:
        raise BeamformError("horizon must be >= 1")
    if transfer_curve is not None and not transfer_curve.is_monotone():
        raise BeamformError("transfer curve must be monotone")
    return _build_bound_schedule(n_slaves, horizon, grid_step_deg, y0, poly_degree)


@lru_cache(maxsize=64)
def _build_bound_schedule(n_slaves: int, horizon: int, grid_step_deg: float,
                          y0: float | None, poly_degree: int) -> BoundSchedule:
    grid = np.deg2rad(np.arange(grid_step_deg, 180.0 + grid_step_deg / 2, grid_step_deg))
    y = math.sqrt(n_slaves) if y0 is None else y0
    optima = np.empty(horizon)
    for n in range(horizon):
        # The closed form can overshoot the coherent optimum; clamp so the
        # argmax near convergence falls to the smallest bound, not to the
        # spurious gain of wild perturbations.
        steps = np.minimum(_step_over_grid(y, n_slaves, grid), float(n_slaves))
        best = int(np.argmax(steps))
        optima[n] = grid[best]
        y = float(steps[best])
    rounds = np.arange(horizon)
    # A horizon shorter than the polynomial is fitted exactly by a lower degree.
    coeffs = np.polyfit(rounds, optima, min(poly_degree, horizon - 1))
    table = np.clip(np.polyval(coeffs, rounds), grid[0], grid[-1])
    for arr in (coeffs, optima, table):
        arr.setflags(write=False)
    return BoundSchedule(
        coefficients=coeffs,
        phi_min_rad=float(grid[0]),
        phi_max_rad=float(grid[-1]),
        horizon=horizon,
        optimal_rad=optima,
        table=table,
    )


# ---------------------------------------------------------------------------
# Scalar Kalman smoother with adaptive measurement noise.

class KalmanSmoother:
    """Random-walk Kalman filter whose measurement noise is re-estimated
    from the innovation variance over a sliding window."""

    def __init__(self, q_ratio: float = 2.0, window: int = 30):
        self.q_ratio = q_ratio
        self.x = None
        self.p = 0.0
        self._innovations = deque(maxlen=window)

    def update(self, z: float) -> float:
        if not math.isfinite(z):
            raise BeamformError("measurement must be finite")
        if self.x is None:
            self.x = z
            self.p = (0.5 * abs(z)) ** 2 + 1e-300
            return self.x
        innov = z - self.x
        self._innovations.append(innov)
        r = self._measurement_noise()
        q = self.q_ratio * r
        p_pred = self.p + q
        k = p_pred / (p_pred + r)
        self.x = self.x + k * innov
        self.p = (1.0 - k) * p_pred
        return self.x

    def _measurement_noise(self) -> float:
        if len(self._innovations) < 3:
            return max(self._innovations[-1] ** 2, self.p, 1e-300)
        var = float(np.var(np.asarray(self._innovations)))
        return max(var - self.p, 0.1 * var, 1e-300)

    @property
    def variance(self) -> float:
        return self.p


# ---------------------------------------------------------------------------
# The alignment loop driver.

class OneBitAligner:
    """Keep-if-improved phase alignment over a smoothed power metric.

    Each round :meth:`propose` draws fresh per-slave perturbations around the
    reference phases; :meth:`record` feeds back the measured metric, accepts
    the proposal when the smoothed value beats the reference metric by more than the
    dead band, and reverts to the reference otherwise.
    """

    def __init__(
        self,
        n_slaves: int,
        rng: np.random.Generator,
        bound,
        smoother: KalmanSmoother | None = None,
        deadband_frac: float = 0.001,
        init_phases=None,
    ):
        if n_slaves < 1:
            raise BeamformError("need at least one slave")
        self.n_slaves = n_slaves
        self.rng = rng
        self.bound = bound if callable(bound) else (lambda n, b=float(bound): b)
        self.smoother = smoother
        self.deadband_frac = deadband_frac
        if init_phases is None:
            self.ref_phases = rng.uniform(0.0, 2.0 * math.pi, n_slaves)
        else:
            self.ref_phases = np.asarray(init_phases, dtype=float) % (2.0 * math.pi)
        self.pending = self.ref_phases.copy()
        self.y_ref = None   # smoothed metric of the current reference phases
        self.y_best = None  # running max, for reporting and convergence checks
        self.round = 0
        self.trace = []  # (round, y_raw, y_smoothed, phi_rad, accepted)

    def current_bound(self) -> float:
        return float(self.bound(self.round))

    def propose(self) -> np.ndarray:
        phi = self.current_bound()
        delta = self.rng.uniform(-phi, phi, self.n_slaves)
        self.pending = (self.ref_phases + delta) % (2.0 * math.pi)
        return self.pending

    def record(self, y_raw: float) -> bool:
        if not math.isfinite(y_raw):
            raise BeamformError("measurement must be finite")
        y = self.smoother.update(y_raw) if self.smoother else y_raw
        # Compare against the metric recorded when the reference last moved;
        # a global max would let one noise spike freeze the loop for good.
        if self.y_ref is None:
            accepted = True
        else:
            accepted = y > self.y_ref + self.deadband_frac * abs(self.y_ref)
        if accepted:
            self.ref_phases = self.pending.copy()
            self.y_ref = y
        self.y_best = y if self.y_best is None else max(y, self.y_best)
        self.trace.append((self.round, y_raw, y, self.current_bound(), accepted))
        self.round += 1
        return accepted

    def export_trace(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("round y_raw y_smoothed phi_deg accepted\n")
            for rnd, raw, smoothed, phi, acc in self.trace:
                fh.write(f"{rnd} {raw:.6e} {smoothed:.6e} "
                         f"{math.degrees(phi):.3f} {int(acc)}\n")


def simulate_update_rule(
    n_slaves: int,
    bound,
    rounds: int,
    trials: int,
    rng: np.random.Generator,
    return_finals: bool = False,
):
    """Monte-Carlo mean amplitude trajectory of the bare update rule.

    Ideal unit-gain channel, no noise, no smoothing, no dead band; used as
    the cross-check against :func:`expected_amplitude_step`.  Returns the
    mean reference amplitude for rounds 0..rounds (inclusive of the start),
    plus the per-trial final amplitudes when ``return_finals`` is set.
    """
    phi_fn = bound if callable(bound) else (lambda n, b=float(bound): b)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=(trials, n_slaves))
    amp = np.abs(np.exp(1j * phases).sum(axis=1))
    means = np.empty(rounds + 1)
    means[0] = amp.mean()
    for n in range(rounds):
        phi = phi_fn(n)
        delta = rng.uniform(-phi, phi, size=(trials, n_slaves))
        cand = phases + delta
        cand_amp = np.abs(np.exp(1j * cand).sum(axis=1))
        better = cand_amp > amp
        phases[better] = cand[better]
        amp[better] = cand_amp[better]
        means[n + 1] = amp.mean()
    if return_finals:
        return means, amp
    return means


# ---------------------------------------------------------------------------
# Density evolution of the amplitude under the update rule.

AMPLITUDE_GRID_POINTS = 200
# Midpoints over a quarter period of the projection angle in Cauchy's
# formula |z| = (1/4) * integral over [0, 2 pi) of |Re(z exp(-ia))| da.
_PROJECTION_ANGLES = (np.arange(64) + 0.5) * (0.5 * math.pi / 64)


@lru_cache(maxsize=16)
def _amplitude_grid(n_slaves: int):
    """Grid over [0, N], I2/I0 of the von Mises phase spread at each node,
    and the (row, edge) pairs of the upper triangle of the CDF table."""
    if n_slaves < 1:
        raise BeamformError("need at least one slave")
    points = AMPLITUDE_GRID_POINTS
    grid = np.linspace(0.0, float(n_slaves), points)
    i2i0 = np.array([bessel_ratio(2, solve_concentration(min(y / n_slaves, 1.0)))
                     for y in grid])
    edges = np.concatenate(([0.0], 0.5 * (grid[1:] + grid[:-1]), [float(n_slaves)]))
    rows, cols = np.triu_indices(points, 1, points + 1)
    for arr in (grid, i2i0, edges, rows, cols):
        arr.setflags(write=False)
    return grid, i2i0, edges, rows, cols


def _resultant_moments(grid: np.ndarray, n_slaves: int, phi_rad: float,
                       i2i0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and variance of the perturbed resultant R' from each amplitude.

    The in-phase and quadrature components of the perturbed phasor sum are
    taken as independent Gaussians with means (c1*y, 0) and the variances of
    :func:`perturbation_std`, split by I2/I0.  E[R'] follows from Cauchy's
    formula, each projection being a folded normal; E[R'^2] is exact.
    """
    from scipy.special import erf

    c1 = uniform_cos_moment(phi_rad)
    c2 = uniform_cos_moment(2.0 * phi_rad)
    spread = i2i0 * (c1 * c1 - c2)
    var_i = np.clip(0.5 * n_slaves * ((1.0 - c1 * c1) - spread), 0.0, None)
    var_q = np.clip(0.5 * n_slaves * ((1.0 - c1 * c1) + spread), 0.0, None)
    cos_a = np.cos(_PROJECTION_ANGLES)
    sin_a = np.sin(_PROJECTION_ANGLES)
    m = (c1 * grid)[:, None] * cos_a
    s = np.sqrt(var_i[:, None] * cos_a ** 2 + var_q[:, None] * sin_a ** 2)
    # A floor far below any amplitude scale keeps m / s finite at phi -> 0.
    s = np.maximum(s, 1e-12 * n_slaves)
    folded = (s * math.sqrt(2.0 / math.pi) * np.exp(-0.5 * (m / s) ** 2)
              + m * erf(m / (s * math.sqrt(2.0))))
    mean = folded.mean(axis=1) * (0.5 * math.pi)
    second = c1 * c1 * grid * grid + n_slaves * (1.0 - c1 * c1)
    return mean, np.clip(second - mean * mean, 0.0, None)


def amplitude_transition(n_slaves: int, phi_rad: float) -> np.ndarray:
    """One keep-if-improved round as a row-stochastic matrix on the grid.

    ``T[j, k]`` is the probability that the amplitude moves from node j to
    node k of the grid of ``AMPLITUDE_GRID_POINTS`` even steps over [0, N]:
    y' = max(y, R'), with R' an N * Beta variable matching the moments of
    :func:`_resultant_moments`.
    Mass of R' below node j's upper cell edge stays at node j, so T is upper
    triangular and the amplitude never decreases.
    """
    from scipy.special import betainc

    if not 0.0 < phi_rad <= math.pi:
        raise BeamformError("phase bound must lie in (0, pi]")
    grid, i2i0, edges, rows, cols = _amplitude_grid(n_slaves)
    mean, var = _resultant_moments(grid, n_slaves, phi_rad, i2i0)
    mu = np.clip(mean / n_slaves, 1e-12, 1.0 - 1e-12)
    # Beta(mu * nu, (1 - mu) * nu) has mean mu and variance mu(1 - mu)/(nu + 1).
    spread = mu * (1.0 - mu)
    nu = np.maximum(spread / np.maximum(var / n_slaves ** 2, 1e-300) - 1.0, 1e-9)
    cdf = np.zeros((grid.size, grid.size + 1))
    cdf[rows, cols] = betainc((mu * nu)[rows], ((1.0 - mu) * nu)[rows],
                              edges[cols] / n_slaves)
    # cdf[j, :j + 1] == 0, so the differences put P(R' <= upper edge of
    # cell j) on the diagonal and nothing below it.  The running maximum
    # removes rounding dips of betainc, which would give negative entries.
    return np.diff(np.maximum.accumulate(cdf, axis=1), axis=1)


def amplitude_distributions(n_slaves: int, bound, rounds: int, y0: float):
    """Distribution of the amplitude on [0, N] for rounds 0..rounds.

    Starts from a point mass at y0, split between its two neighbouring grid
    nodes so that its mean is y0.  Returns ``(grid, dists)``, one row of
    ``dists`` per round; each distinct bound's transition is built once.
    """
    if not 0.0 <= y0 <= n_slaves * (1.0 + 1e-12):
        raise BeamformError("amplitude must lie in [0, n_slaves]")
    if rounds < 0:
        raise BeamformError("rounds must be >= 0")
    phi_fn = bound if callable(bound) else (lambda n, b=float(bound): b)
    grid = _amplitude_grid(n_slaves)[0]
    pos = min(y0, float(n_slaves)) / (grid[1] - grid[0])
    k = min(int(pos), grid.size - 2)
    dists = np.zeros((rounds + 1, grid.size))
    dists[0, k] = 1.0 - (pos - k)
    dists[0, k + 1] = pos - k
    transitions = {}
    for n in range(rounds):
        phi = float(phi_fn(n))
        if phi not in transitions:
            transitions[phi] = amplitude_transition(n_slaves, phi)
        dists[n + 1] = dists[n] @ transitions[phi]
    return grid, dists


def expected_trajectory(n_slaves: int, bound, rounds: int, y0: float) -> np.ndarray:
    """Expected amplitude for rounds 0..rounds, starting at y0.

    The mean of :func:`amplitude_distributions`; tracking the whole
    distribution avoids the Jensen gap of iterating a one-step mean.
    """
    grid, dists = amplitude_distributions(n_slaves, bound, rounds, y0)
    return dists @ grid
