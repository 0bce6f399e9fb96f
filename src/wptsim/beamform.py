"""One-bit phase alignment and its adaptive phase-bound schedule.

The alignment loop perturbs every slave's phase by a uniform draw within
+/- Phi each round and keeps the new phases only when the raw power metric
measured for them beats the one measured for the current phases.  The
expected one-round amplitude gain has a closed form built on modified
Bessel function ratios; optimizing that gain round by round yields the
adaptive large-then-small phase-bound schedule.  The density evolution
that the tests check this analysis against lives in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
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


def solve_concentration(mean_resultant: float) -> float:
    """Solve I_1(eta)/I_0(eta) = mean_resultant for eta by bisection, to a
    relative width of 1e-10."""
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
        if hi - lo <= 1e-10 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Expected amplitude step of the one-bit update rule.

def _step_over_grid(y_n: float, n_slaves: int, phi_grid: np.ndarray) -> np.ndarray:
    """Expected one-round step from amplitude ``y_n``, per phase bound.

    The perturbed amplitude is taken as Gaussian about c1 * y_n, with the
    in-phase variance sigma_1^2 of the perturbed phasor sum; keeping the
    better of the two gives the folded mean below.
    """
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
    # The 1-D Gaussian puts mass above the coherent optimum; the physical
    # amplitude cannot exceed N.  Near convergence the clamp also makes the
    # schedule's argmax fall to the smallest bound, not to the spurious gain
    # of wild perturbations.
    return np.minimum(out, float(n_slaves))


# ---------------------------------------------------------------------------
# Adaptive phase-bound schedule.

# The bounds searched each round: 1, 2, ..., 180 degrees.
_BOUND_GRID_RAD = np.deg2rad(np.arange(1.0, 180.5, 1.0))
_BOUND_GRID_RAD.setflags(write=False)
# Degree of the polynomial fitted to the per-round optima.
_SCHEDULE_POLY_DEGREE = 7


def compute_bound_schedule(n_slaves: int, horizon: int = 300,
                           y0: float | None = None) -> np.ndarray:
    """Per-round phase bound for rounds 0..horizon-1, in radians.

    Each round picks the bound maximizing the expected amplitude after the
    one-round step by a grid search over (0, 180] degrees in 1-degree steps,
    then moves the amplitude to that step.  The amplitude starts at
    ``y0``, or at sqrt(N), the mean resultant of N random phasors.  The
    per-round optima are fitted by a polynomial in the round index, and the
    schedule is that polynomial clipped to the grid.

    Schedules are cached per (n_slaves, horizon, y0) and shared by every
    caller, so the returned array is read-only.
    """
    if n_slaves < 2:
        raise BeamformError("need at least two slaves")
    if horizon < 1:
        raise BeamformError("horizon must be >= 1")
    return _build_bound_schedule(n_slaves, horizon, y0)[0]


@lru_cache(maxsize=64)
def _build_bound_schedule(n_slaves: int, horizon: int, y0: float | None):
    """(schedule, per-round grid optima, polynomial coefficients), read-only."""
    grid = _BOUND_GRID_RAD
    y = math.sqrt(n_slaves) if y0 is None else y0
    optima = np.empty(horizon)
    for n in range(horizon):
        steps = _step_over_grid(y, n_slaves, grid)
        best = int(np.argmax(steps))
        optima[n] = grid[best]
        y = float(steps[best])
    rounds = np.arange(horizon)
    # A horizon shorter than the polynomial is fitted exactly by a lower degree.
    coeffs = np.polyfit(rounds, optima, min(_SCHEDULE_POLY_DEGREE, horizon - 1))
    table = np.clip(np.polyval(coeffs, rounds), grid[0], grid[-1])
    for arr in (coeffs, optima, table):
        arr.setflags(write=False)
    return table, optima, coeffs


# ---------------------------------------------------------------------------
# The alignment loop driver.

class OneBitAligner:
    """Keep-if-improved phase alignment on the raw power metric.

    :meth:`offsets` draws every round's per-slave perturbations within the
    round's phase bound at once; :meth:`candidates` turns a run of them into
    proposals around the current reference phases; :meth:`record` feeds
    back the metric measured for one proposal, accepts it when that value
    beats ``y_ref``, the value measured when the reference last moved, and
    keeps the reference otherwise: the rule ``y_ref' = max(y_ref, y)`` that
    :func:`_step_over_grid` analyses.  So ``y_ref`` never falls.
    """

    def __init__(self, n_slaves: int, rng: np.random.Generator, *, init_phases=None):
        if n_slaves < 1:
            raise BeamformError("need at least one slave")
        self.n_slaves = n_slaves
        self.rng = rng
        if init_phases is None:
            self.ref_phases = rng.uniform(0.0, 2.0 * math.pi, n_slaves)
        else:
            self.ref_phases = np.asarray(init_phases, dtype=float) % (2.0 * math.pi)
        # Metric measured for the current reference phases; none yet, so
        # the first proposal is accepted.
        self.y_ref = -math.inf

    def offsets(self, bounds) -> np.ndarray:
        """(R, N) perturbations of R rounds with phase bounds ``bounds``.

        One draw of R * N uniforms, turned into offsets by
        ``Generator.uniform``'s own arithmetic ``low + (high - low) * u``, so
        row n equals the n-th of R calls of ``rng.uniform(-phi, phi, N)``.
        """
        phi = np.asarray(bounds, dtype=float)[:, None]
        u = self.rng.random((phi.shape[0], self.n_slaves))
        return -phi + (phi - -phi) * u

    def candidates(self, delta) -> np.ndarray:
        """The reference phases moved by ``delta``, wrapped to [0, 2 pi);
        (k, N) offsets give k proposals.  Changes no state."""
        return (self.ref_phases + delta) % (2.0 * math.pi)

    def record(self, y: float, proposal: np.ndarray) -> bool:
        """Whether ``proposal``, measured as ``y``, was accepted: whether
        ``y > y_ref``."""
        if not math.isfinite(y):
            raise BeamformError("measurement must be finite")
        accepted = y > self.y_ref
        if accepted:
            self.ref_phases = proposal.copy()
            self.y_ref = y
        return accepted
