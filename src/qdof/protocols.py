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

from .circuits import PhaseConfig, swap_circuit
from .fidelity import singlet_fraction
from .hardy import HardyParams, hardy_q
from .measurement import ChshSettings, chsh, coincidence_table
from .states import BOSON, DofSpec, Ket, SymState, normalize, to_density
from .trace import Subsystem, to_qubit_array, trace_dof_indist


@dataclass(frozen=True)
class SignalingConfig:
    """Monte-Carlo configuration for the signaling estimate.

    `n_dofs` may reach 30 in 'copies' mode; 'dofs' mode stops at 20, the
    size limit of the sorter cascade.  Its exact value is a closed form, but
    the cascade's 2^N detector words are what back it, and the tests
    enumerate them only up to 20 DoFs.
    """

    n_dofs: int = 2
    trials: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if not 2 <= self.n_dofs <= 30:
            raise ValueError("n_dofs must lie in 2..30")
        if self.trials < 1:
            raise ValueError("need at least one trial")


def signaling_exact(n):
    """Exact decoding probability 1 - 2^-N of the broadcast onto N DoFs.

    The sender's basis choice is uniform.  A computational-basis input leaves
    the sorter cascade deterministically in the two edge detectors; a
    Hadamard-basis input spreads uniformly over all 2^N detector words, and
    only the two all-equal words are mistaken for the computational basis:
    1/2 + 1/2 (1 - 2 / 2^N).  N stays within the cascade's 20 DoFs, the
    largest N at which the tests enumerate its 2^N words as this value's
    oracle, so 'dofs' mode prints no value that the cascade does not back.
    """
    if n < 2:
        raise ValueError("need at least two DoFs")
    if n > 20:
        raise ValueError("cascade limited to 20 DoFs")
    return 1 - Fraction(1, 2 ** n)


def signaling_mc(cfg, mode="dofs"):
    """Monte-Carlo estimate of the signaling probability with binomial stderr.

    `mode='dofs'` broadcasts onto N <= 20 DoF registers of one particle.  A
    hit is a correctly decoded basis: every Z message (all registers agree)
    and every X message whose N uniformly drawn bits are neither all 0 nor
    all 1.  The Z register's value cannot change a hit, so it is never drawn.
    `mode='copies'` uses N separate two-DoF copies and flags the Hadamard
    basis as soon as any copy leaves the edge detectors.  The copier is an
    ideal (non-physical) broadcast; the Bell-measurement outcome is drawn
    uniformly and its correction applied perfectly.  A bad mode or an N the
    mode's exact value refuses raises before any draw.
    """
    n, trials = cfg.n_dofs, cfg.trials
    if mode == "dofs":
        exact = signaling_exact(n)
    elif mode == "copies":
        exact = signaling_multicopy(n)
    else:
        raise ValueError("mode must be 'dofs' or 'copies'")
    rng = np.random.default_rng(cfg.seed)
    sent = rng.integers(0, 2, size=trials)             # 0 -> Z basis, 1 -> X
    rng.integers(0, 4, size=trials)                    # Bell outcome, corrected
    if mode == "dofs":
        bits = rng.integers(0, 2, size=(trials, n))    # X: uniform detector words
        missed = sent == 1                             # X read as Z: every
        for j in range(1, n):                          # bit equals the first
            missed &= bits[:, j] == bits[:, 0]
        hits = trials - int(np.count_nonzero(missed))
    else:
        # the conditional bottleneck: given a Hadamard-basis message, each
        # copy stays on the edge with probability 1/2, and decoding succeeds
        # as soon as any copy leaves it (computational-basis messages always
        # decode, so they carry no information about the error rate)
        stay = rng.random(size=(trials, n)) < 0.5
        hits = int((~stay.all(axis=1)).sum())
    estimate = hits / trials
    stderr = math.sqrt(max(estimate * (1 - estimate), 1e-12) / trials)
    return {"estimate": float(estimate), "stderr": float(stderr),
            "exact": float(exact), "trials": trials, "seed": cfg.seed,
            "mode": mode, "physical": False}


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


def qpq_particle_state(theta):
    """Three-particle key-distribution state with a particle ancilla,
    ordered |b a x>: amplitudes at 000, 010, 100 and 111."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    v = np.array([c, 0, s, 0, -s, 0, 0, c], dtype=complex) / math.sqrt(2)
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
        kb = Ket("s1", ((1, str(b)), (2, "0")))
        ka = Ket("s2", ((1, str(a1)), (2, str(a2))))
        terms[(kb, ka)] = complex(amp)
    state = normalize(SymState(BOSON, terms, (spec1, spec2)))
    # pairs (DoF 1 of s1, DoF j of s2) for j = 1, 2; s1's DoF 2 is traced once
    s1_dof1 = trace_dof_indist(to_density(state), Subsystem("s1", 2))
    total = 0.0
    for traced in (2, 1):  # the s2 DoF that is not j
        total += singlet_fraction(to_qubit_array(
            trace_dof_indist(s1_dof1, Subsystem("s2", traced))))
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
