"""Cold-start space search: wake a depleted backscatter node.

All slaves first beam at the leader; random per-slave phase perturbations
within +/- sigma then sweep the resulting side lobes through the space
around the leader until the node's incident power crosses its wake
threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    DEFAULT_FREQ_HZ,
    DEFAULT_TX_GAIN_DBI,
    ChannelError,
    MediumMap,
    Position,
    channel,
    incident_field,
)


# Perturbation rounds a cold start tries after the leader-focused round.
MAX_PERTURBATIONS = 200


def leader_focused_phases(slave_channels) -> np.ndarray:
    """Conjugate phases that focus the complex slave -> leader links."""
    return (-np.angle(slave_channels)) % (2.0 * math.pi)


def perturbation_round(base_phases, sigma_deg: float, rng: np.random.Generator) -> np.ndarray:
    """Base phases plus independent uniform draws in (-sigma, +sigma)."""
    sigma = math.radians(sigma_deg)
    base = np.asarray(base_phases, dtype=float)
    return (base + rng.uniform(-sigma, sigma, base.size)) % (2.0 * math.pi)


def voxels_per_edge(edge_m: float, voxel_m: float) -> int:
    """``edge_m / voxel_m``, whole to a relative 1e-9 (0.3 / 0.1 reads
    2.9999999999999996), or a partial voxel moves the cube off its centre."""
    ratio = edge_m / voxel_m
    count = round(ratio) if math.isfinite(ratio) else 0
    if count < 1 or abs(ratio - count) > 1e-9 * count:
        raise ValueError(f"a {edge_m:g} m cube edge is not a whole number "
                         f"of {voxel_m:g} m voxels")
    return count


def cube_grid(center: Position, edge_m: float, voxel_m: float) -> np.ndarray:
    """(V, 3) voxel centers of a cube centered on ``center``."""
    voxels_per_edge(edge_m, voxel_m)
    half = edge_m / 2.0
    axis = np.arange(-half + voxel_m / 2.0, half, voxel_m)
    gx, gy, gz = np.meshgrid(axis + center.x, axis + center.y, axis + center.z,
                             indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])


def field_matrix(
    slave_positions,
    points: np.ndarray,
    freq_hz: float = DEFAULT_FREQ_HZ,
    tx_gain_dbi: float = DEFAULT_TX_GAIN_DBI,
    static_phases=0.0,
    tx_amplitude: float = 1.0,
) -> np.ndarray:
    """Complex per-slave field coefficients at each grid point, shape (V, N).

    Air-only :func:`channel` coefficients, each slave's static phase
    included, times the transmit amplitude every slave shares.
    """
    if points.ndim != 2 or points.shape[1] != 3:
        raise ChannelError("points must be (V, 3)")
    g = channel(slave_positions, points[:, None, :], MediumMap(),
                freq_hz, tx_gain_dbi, static_phase_rad=static_phases)
    return g * tx_amplitude


def field_power(matrix: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """|:func:`incident_field`|² over each point's row of ``matrix``.  The
    phases go in as a (1, N) row: numpy multiplies a (1, 1) array by a (1,)
    one in a scalar loop, which rounds unlike the loop of larger blocks."""
    return np.abs(incident_field(matrix, np.reshape(phases, (1, -1)), 1.0)) ** 2


@dataclass
class ColdStartResult:
    success: bool
    rounds_used: int


class ColdStartRunner:
    """Round-by-round cold start against complex slave -> leader and -> node links."""

    def __init__(self, node, leader_channels, node_channels,
                 tx_amplitude: float, sigma_deg: float, rng: np.random.Generator):
        self.node = node
        self.base_phases = leader_focused_phases(leader_channels)
        self.node_coeffs = node_channels
        self.tx_amplitude = tx_amplitude
        self.sigma_deg = sigma_deg
        self.rng = rng

    def run(self) -> ColdStartResult:
        # Round 0 is the unperturbed leader-focused beam; later rounds keep
        # perturbing the previous phases so the lobes walk through space.
        phases = self.base_phases
        for rnd in range(MAX_PERTURBATIONS + 1):
            if rnd:
                phases = perturbation_round(phases, self.sigma_deg, self.rng)
            field = incident_field(self.node_coeffs, phases, self.tx_amplitude)
            self.node.harvest_step(float(np.abs(field) ** 2))
            if self.node.awake:
                return ColdStartResult(True, rnd)
        return ColdStartResult(False, MAX_PERTURBATIONS)


def export_heatmap(points: np.ndarray, power_w: np.ndarray, path) -> None:
    """CSV export: x_m, y_m, z_m, power_w.

    The bytes are those of ``np.savetxt`` with its default ``%.18e``, in one
    write.  A grid has few distinct coordinates, so each is formatted once;
    they are told apart by their bits, which keeps -0.0 apart from 0.0.
    """
    points = np.ascontiguousarray(points, dtype=float)
    power_w = np.asarray(power_w, dtype=float)
    if points.ndim != 2 or points.shape[1] != 3 or power_w.shape != points.shape[:1]:
        raise ValueError("need (V, 3) points and (V,) powers")
    bits, index = np.unique(points.view(np.uint64), return_inverse=True)
    coords = np.array(["%.18e" % v for v in bits.view(np.float64).tolist()], dtype=object)
    cells = np.empty((len(points), 4), dtype=object)
    cells[:, :3] = coords[index.reshape(points.shape)]
    cells[:, 3] = power_w
    with open(path, "w") as fh:
        fh.write(("x_m,y_m,z_m,power_w\n" + "%s,%s,%s,%.18e\n" * len(points))
                 % tuple(cells.ravel()))
