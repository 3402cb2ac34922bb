"""Protocol-level experiments built on the circuit, trace and fidelity layers.

* the signaling gedanken experiment: an idealized broadcast of a teleported
  basis state onto N DoF registers read out through a sorter cascade (the
  whole point of simulating it is to exhibit the contradiction -- the copier
  is explicitly non-physical);
* the resource comparison between a particle ancilla and an extra DoF in a
  private-query setting;
* entanglement-swapping verification on the two-boson circuit;
* the identity-mixing attack on the nonlocality witness probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .circuits import PhaseConfig, sorter_cascade, swap_circuit
from .fidelity import singlet_fraction
from .hardy import HardyParams, hardy_q
from .measurement import ChshSettings, chsh, coincidence_table
from .states import BOSON, DofSpec, Ket, SymState, normalize, to_density
from .trace import Subsystem, to_qubit_array, trace_dof_indist


@dataclass(frozen=True)
class SignalingConfig:
    """Monte-Carlo configuration for the signaling estimate."""

    n_dofs: int = 2
    trials: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if not 2 <= self.n_dofs <= 30:
            raise ValueError("n_dofs must lie in 2..30")
        if self.trials < 1:
            raise ValueError("need at least one trial")


def signaling_exact(n):
    """Exact decoding probability 1 - 2^-N, by enumerating detector outcomes.

    The sender's basis choice is uniform.  A computational-basis input leaves
    the cascade deterministically in the two edge detectors; a Hadamard-basis
    input spreads uniformly over all 2^N detector words, and only the two
    all-equal words are mistaken for the computational basis.
    """
    if n < 2:
        raise ValueError("need at least two DoFs")
    if n > 30:
        raise ValueError("exact enumeration capped at 30 DoFs")
    total = Fraction(0)
    # basis Z: both branch states land in an edge detector with certainty
    z_dist = sorter_cascade(n, (1.0, 0.0))
    edge = {0, 2 ** n - 1}
    p_correct_z = Fraction(int(round(sum(z_dist[i] for i in edge))), 1)
    total += Fraction(1, 2) * p_correct_z
    # basis X: uniform over detector words; a non-edge word decodes correctly
    x_dist = sorter_cascade(n, (1.0, 1.0))
    assert np.allclose(x_dist, 1.0 / 2 ** n)
    p_correct_x = Fraction(2 ** n - 2, 2 ** n)
    total += Fraction(1, 2) * p_correct_x
    return total


def signaling_mc(cfg, mode="dofs"):
    """Monte-Carlo estimate of the signaling probability with binomial stderr.

    `mode='dofs'` broadcasts onto N DoF registers of one particle;
    `mode='copies'` uses N separate two-DoF copies and flags the Hadamard
    basis as soon as any copy leaves the edge detectors.  The copier is an
    ideal (non-physical) broadcast; the Bell-measurement outcome is drawn
    uniformly and its correction applied perfectly.
    """
    rng = np.random.default_rng(cfg.seed)
    n, trials = cfg.n_dofs, cfg.trials
    sent = rng.integers(0, 2, size=trials)             # 0 -> Z basis, 1 -> X
    rng.integers(0, 4, size=trials)                    # Bell outcome, corrected
    if mode == "dofs":
        bits = rng.integers(0, 2, size=(trials, n))
        # Z: all registers carry the same teleported basis state
        z_value = rng.integers(0, 2, size=trials)
        words_z = np.repeat(z_value[:, None], n, axis=1)
        words = np.where(sent[:, None] == 0, words_z, bits)
        all_same = (words == words[:, :1]).all(axis=1)
        decoded = np.where(all_same, 0, 1)
    elif mode == "copies":
        # the conditional bottleneck: given a Hadamard-basis message, each
        # copy stays on the edge with probability 1/2, and decoding succeeds
        # as soon as any copy leaves it (computational-basis messages always
        # decode, so they carry no information about the error rate)
        stay = rng.random(size=(trials, n)) < 0.5
        any_off_edge = ~stay.all(axis=1)
        hits = int(any_off_edge.sum())
        estimate = hits / trials
        stderr = math.sqrt(max(estimate * (1 - estimate), 1e-12) / trials)
        return {"estimate": float(estimate), "stderr": float(stderr),
                "exact": float(signaling_multicopy(n)), "trials": trials,
                "seed": cfg.seed, "mode": mode, "physical": False}
    else:
        raise ValueError("mode must be 'dofs' or 'copies'")
    hits = (decoded == sent).sum()
    estimate = hits / trials
    stderr = math.sqrt(max(estimate * (1 - estimate), 1e-12) / trials)
    return {"estimate": float(estimate), "stderr": float(stderr),
            "exact": float(signaling_exact(n) if mode == "dofs"
                           else signaling_multicopy(n)),
            "trials": trials, "seed": cfg.seed, "mode": mode,
            "physical": False}


def signaling_multicopy(m):
    """1 - 2^-M for M two-DoF copies.

    This is the decoding probability conditioned on the Hadamard-basis
    message, the binding case: each copy stays on the edge detectors with
    probability 1/2, and all M must do so for the decoder to err
    (computational-basis messages always decode correctly).
    """
    if m < 1:
        raise ValueError("need at least one copy")
    return 1 - Fraction(1, 2) ** m


# -- ancilla-versus-DoF comparison ----------------------------------------------


def _qpq_vector(theta):
    # ordering |b a x>: amplitudes at 000, 010, 100 and 111
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([c, 0, s, 0, -s, 0, 0, c], dtype=complex) / math.sqrt(2)


def qpq_particle_state(theta):
    """Three-particle key-distribution state with a particle ancilla."""
    v = _qpq_vector(theta)
    return v / np.linalg.norm(v)


def qpq_sf(theta, ancilla="particle"):
    """Generalized singlet fraction of the query state, by ancilla type.

    With a particle ancilla the ancilla is traced out as a whole particle
    (standard trace) and the remaining two single-DoF particles support a
    single channel.  With a DoF ancilla the extra amplitudes ride on a second
    DoF of the reply particle, and both DoF channels count, reduced with the
    coherent DoF rule.  The DoF variant can beat the two-particle
    distinguishable ceiling of 1.5, approaching 2 at small theta.
    """
    if not 0.0 < theta < math.pi:
        raise ValueError("theta must lie in (0, pi)")
    v = qpq_particle_state(theta).reshape(2, 2, 2)
    if ancilla == "particle":
        rho = np.einsum("bax,cdx->bacd", v, v.conj()).reshape(4, 4)
        return singlet_fraction(rho)
    if ancilla != "dof":
        raise ValueError("ancilla must be 'particle' or 'dof'")
    spec1 = DofSpec(1, ("0", "1"))
    spec2 = DofSpec(2, ("0", "1"))
    terms = {}
    for (b, a1, a2), amp in np.ndenumerate(v):
        if abs(amp) < 1e-15:
            continue
        kb = Ket("s1", ((1, str(b)), (2, "0")))
        ka = Ket("s2", ((1, str(a1)), (2, str(a2))))
        terms[(kb, ka)] = complex(amp)
    state = normalize(SymState(BOSON, terms, (spec1, spec2)))
    dm = to_density(state)
    total = 0.0
    for j in (1, 2):
        reduced = dm
        for k in (1, 2):
            if k != 1:
                reduced = trace_dof_indist(reduced, Subsystem("s1", k))
            if k != j:
                reduced = trace_dof_indist(reduced, Subsystem("s2", k))
        total += singlet_fraction(to_qubit_array(reduced))
    return float(total)


# -- swapping and the identity attack --------------------------------------------


def swap_verify(phases=PhaseConfig()):
    """Coincidence table and CHSH value of the two-boson swap circuit."""
    state = swap_circuit(phases)
    table = coincidence_table(state, "internal", "external")
    value = chsh(None, ChshSettings(), obs=("internal", "external"),
                 circuit=swap_circuit)
    return {"table": table, "chsh": value, "phi": phases.phi}


@dataclass(frozen=True)
class AttackConfig:
    """Identity-mixing attack: route swap probability alpha (= beta)."""

    theta: float
    phi: float
    alpha: float

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")


def hardy_q_swapped(p):
    """Witness probability after the two receivers' particles are exchanged."""
    c, s = math.cos(p.theta), math.sin(p.theta)
    chi = p.chi
    z = (0.5 * math.cos(chi) * (c - s * np.exp(2j * p.phi))
         - math.sin(chi) * np.exp(-1j * p.phi) * (c - s))
    return float(abs(z) ** 2)


def hardy_attack(cfg):
    """q, the swapped-path q', and the mixture q_alpha = a^2 q + (1-a)^2 q'."""
    p = HardyParams(cfg.theta, cfg.phi)
    q = hardy_q(p)
    q_prime = hardy_q_swapped(p)
    q_alpha = cfg.alpha ** 2 * q + (1.0 - cfg.alpha) ** 2 * q_prime
    return {"q": q, "q_prime": q_prime, "q_alpha": q_alpha,
            "alpha": cfg.alpha}
