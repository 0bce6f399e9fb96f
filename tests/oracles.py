"""Reference implementations the tests hold the simulator to.

None of these is on the run path: each is the plain, slow form of something
the simulator computes another way, or a quantity only a test reads.
"""

import math

import numpy as np

from wptsim import coldstart as cs, engine
from wptsim.channel import channel


def propose(aligner, phi: float) -> np.ndarray:
    """One round's proposal drawn alone: ``uniform(-phi, phi, N)`` from the
    aligner's generator, around its reference phases.  R calls draw the
    offsets that one ``aligner.offsets`` call over the same R bounds draws."""
    return aligner.candidates(aligner.rng.uniform(-phi, phi, aligner.n_slaves))


def simulate_update_rule(
    n_slaves: int,
    bound,
    rounds: int,
    trials: int,
    rng: np.random.Generator,
    return_finals: bool = False,
):
    """Monte-Carlo mean amplitude trajectory of the bare update rule.

    Ideal unit-gain channel, no noise, no smoothing, no dead band; the
    cross-check against :func:`wptsim.beamform.expected_amplitude_step`.
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
    static = engine._static_phases(scn, engine._streams(scn.seed))
    links = channel(scn.slave_positions, scn.node_position, scn.medium, scn.freq_hz,
                    scn.tx_gain_dbi, static_phase_rad=static)
    return cs.leader_focused_phases(links)


def energy(samples) -> float:
    """Sum of |x|^2 over a signal's samples."""
    return float(np.sum(np.abs(samples) ** 2))
