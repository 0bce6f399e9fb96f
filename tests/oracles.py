"""Reference implementations and analyses the tests hold the simulator to.

None of these is on the run path: each is the plain, slow form of something
the simulator computes another way, or a quantity only a test reads.  The
analyses are the density evolution of the keep-if-improved amplitude
(criterion 5), the scanning ratio of the cold-start search (criterion 7) and
the shape of a heat map's 3 dB region (criterion 8).  They are what import
scipy; the simulator itself needs only numpy and pyyaml.
"""

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import ndimage
from scipy.special import betainc, erf

from wptsim import backscatter as bs, coldstart as cs, engine
from wptsim.beamform import BeamformError, _step_over_grid, bessel_ratio, solve_concentration
from wptsim.channel import channel


def document_text(obj) -> str:
    """A metrics document's text, built line by line from ``json.dumps``.

    A non-empty dict is ``{``, then one ``<indent>"key": <value>`` line per
    sorted key, each but the last ending in ``,``, then ``}`` at the dict's
    own indent, one space deeper per level.  Any other value is
    ``json.dumps(value, sort_keys=True)``, one line.
    """
    def lines(value, depth: int) -> list:
        if not (isinstance(value, dict) and value):
            return [json.dumps(value, sort_keys=True)]
        out = ["{"]
        keys = sorted(value)
        for i, key in enumerate(keys):
            sub = lines(value[key], depth + 1)
            sub[0] = " " * (depth + 1) + json.dumps(key) + ": " + sub[0]
            out += sub[:-1] + [sub[-1] + ("," if i < len(keys) - 1 else "")]
        return out + [" " * depth + "}"]

    return "\n".join(lines(obj, 0))


def amplitude_ratio_chain(p_in_w: float) -> float:
    """The transfer curve's amplitude ratio in steps: the incident power in
    dBm, the logistic's power ratio there, the reflected power, and the root
    of reflected over incident power (0 at no power)."""
    if p_in_w <= 0:
        return 0.0
    p_in_dbm = 10.0 * math.log10(p_in_w / 1e-3)
    z = (p_in_dbm - bs.CURVE_CENTER_DBM) / bs.CURVE_WIDTH_DB
    ratio = bs.RATIO_LO + (bs.RATIO_HI - bs.RATIO_LO) / (1.0 + math.exp(-z))
    reflected_w = ratio * p_in_w
    return math.sqrt(reflected_w / p_in_w)


def propose(rng, ref, phi: float) -> np.ndarray:
    """One round's proposal drawn alone: the reference phases ``ref`` moved
    by ``rng.uniform(-phi, phi, N)``, wrapped to [0, 2 pi).  R calls draw the
    offsets that ``engine._align``'s one draw over the same R bounds draws."""
    return (ref + rng.uniform(-phi, phi, ref.size)) % (2.0 * math.pi)


def simulate_update_rule(
    n_slaves: int,
    bound,
    rounds: int,
    trials: int,
    rng: np.random.Generator,
    return_finals: bool = False,
):
    """Monte-Carlo mean amplitude trajectory of the bare update rule.

    Ideal unit-gain channel and no noise, with the engine's accept rule
    (keep a proposal iff it beats the reference); the cross-check
    against :func:`expected_amplitude_step`.
    ``bound`` is one phase bound for every round or a ``(rounds,)`` array of
    them.  Returns the mean reference amplitude for rounds 0..rounds
    (inclusive of the start), plus the per-trial final amplitudes when
    ``return_finals`` is set.
    """
    phis = np.broadcast_to(np.asarray(bound, dtype=float), (rounds,))
    phases = rng.uniform(0.0, 2.0 * math.pi, size=(trials, n_slaves))
    amp = np.abs(np.exp(1j * phases).sum(axis=1))
    means = np.empty(rounds + 1)
    means[0] = amp.mean()
    for n, phi in enumerate(phis):
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


def aligned_phases(scn: engine.Scenario) -> np.ndarray:
    """Conjugate phases focusing the array on the node position."""
    static = engine._static_phases(scn)
    links = channel(scn.slave_positions, scn.node_position, scn.medium, scn.freq_hz,
                    scn.tx_gain_dbi, static_phase_rad=static)
    return cs.leader_focused_phases(links)


def energy(samples) -> float:
    """Sum of |x|^2 over a signal's samples."""
    return float(np.sum(np.abs(samples) ** 2))


# ---------------------------------------------------------------------------
# Expected amplitude step of the one-bit update rule.

def uniform_cos_moment(phi_rad: float) -> float:
    """E[cos d] for d uniform on [-phi, phi]: sin(phi)/phi."""
    if phi_rad == 0.0:
        return 1.0
    return math.sin(phi_rad) / phi_rad


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
    return float(_step_over_grid(y_n, n_slaves, np.array([phi_rad]))[0])


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
    taken as independent Gaussians with means (c1*y, 0) and variances
    (N/2) * ((1 - c1^2) -/+ I2/I0 * (c1^2 - c2)); the in-phase one is the
    sigma_1^2 of :func:`wptsim.beamform._step_over_grid`.  E[R'] follows from
    Cauchy's formula, each projection being a folded normal; E[R'^2] is exact.
    """
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
    nodes so that its mean is y0.  ``bound`` is one phase bound for every
    round or a ``(rounds,)`` array of them.  Returns ``(grid, dists)``, one
    row of ``dists`` per round; each distinct bound's transition is built
    once.
    """
    if not 0.0 <= y0 <= n_slaves * (1.0 + 1e-12):
        raise BeamformError("amplitude must lie in [0, n_slaves]")
    if rounds < 0:
        raise BeamformError("rounds must be >= 0")
    phis = np.broadcast_to(np.asarray(bound, dtype=float), (rounds,))
    grid = _amplitude_grid(n_slaves)[0]
    pos = min(y0, float(n_slaves)) / (grid[1] - grid[0])
    k = min(int(pos), grid.size - 2)
    dists = np.zeros((rounds + 1, grid.size))
    dists[0, k] = 1.0 - (pos - k)
    dists[0, k + 1] = pos - k
    transitions = {}
    for n, phi in enumerate(phis.tolist()):
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


# ---------------------------------------------------------------------------
# Scanning ratio of the cold-start search.

def coherent_optimum_power(matrix: np.ndarray) -> np.ndarray:
    """Per-point power when every slave combines coherently there."""
    return np.abs(matrix).sum(axis=1) ** 2


# A voxel counts as scanned once its two-round mean power reaches this
# fraction of its own coherent optimum.
SCAN_POWER_FLOOR = 0.30


@dataclass
class ScanResult:
    scanning_ratio: float
    ratio_by_round: np.ndarray


def scanning_ratio(
    matrix: np.ndarray,
    base_phases: np.ndarray,
    sigma_deg: float,
    n_perturbations: int,
    rng: np.random.Generator,
) -> ScanResult:
    """Fraction of voxels swept above the floor by the perturbed beams.

    Successive rounds accumulate the perturbations, so the beam pattern walks
    away from the leader-focused start and its lobes drift through the cube.
    A voxel counts as scanned once its received power, averaged over two
    consecutive rounds, reaches ``SCAN_POWER_FLOOR`` times its own coherent
    optimum; a harvesting node must hold that power across a full
    perturb-and-measure cycle before it can come up, so one-round flickers
    do not count.
    """
    if matrix.size == 0:
        raise ValueError("empty grid")
    # The walk does not depend on the field, so every round's phases are
    # drawn first and all rounds' fields come from one (V, N) @ (N, R) product.
    walk = [np.asarray(base_phases, dtype=float)]
    for _ in range(n_perturbations):
        walk.append(cs.perturbation_round(walk[-1], sigma_deg, rng))
    power = np.abs(matrix @ np.exp(1j * np.array(walk)).T) ** 2
    floor = SCAN_POWER_FLOOR * coherent_optimum_power(matrix)
    held = 0.5 * (power[:, 1:] + power[:, :-1]) >= floor[:, None]
    scanned = np.logical_or.accumulate(held, axis=1)
    ratio_by_round = np.concatenate(([0.0], scanned.mean(axis=0)))
    return ScanResult(float(ratio_by_round[-1]), ratio_by_round)


# ---------------------------------------------------------------------------
# Shape of a heat map's 3 dB region.

def region_axis_ratio(points: np.ndarray, power: np.ndarray) -> float:
    """Principal-axis length ratio of the region within 3 dB of peak.

    On a regular voxel grid only the connected component holding the peak is
    measured, so detached side lobes that graze the threshold do not smear
    the shape estimate.
    """
    mask = power >= power.max() * 10.0 ** (-3.0 / 10.0)
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
