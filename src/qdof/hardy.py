"""Paradox-of-nonlocality statistics for two qubits.

Ideal joint probabilities and the witness probability q of the test
state, at a point by one scalar form; max q, refined with that scalar form
from the 0.25-degree grid cell of the closed-form maximizer; a synthetic
depolarizing-plus-readout noise model with binomial shot noise; and the
two-phase estimator that bounds q from below using Student-t confidence
intervals calibrated on known zero-q states.

The t-distribution quantiles come from scipy's inverse Student-t CDF.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .circuits import hardy_state, u_phase, u_rot


class BoundaryError(ValueError):
    """The rotation angle chi has no limit where cos(theta) = cos(phi) = 0."""


@dataclass(frozen=True)
class HardyParams:
    """Test-state angles in radians; chi is derived via cot(chi)=tan(t)cos(p)."""

    theta: float
    phi: float

    def __post_init__(self):
        if not (math.isfinite(self.theta) and math.isfinite(self.phi)):
            raise ValueError("test-state angles must be finite")
        if max(abs(math.cos(self.theta)), abs(math.cos(self.phi))) < 1e-9:
            raise BoundaryError("chi is undefined where cos(theta) = cos(phi) = 0")

    @property
    def chi(self):
        return math.atan2(1.0, math.tan(self.theta) * math.cos(self.phi))


# the fixed settings A1 and B1, read-only and shared by every call
_A1, _B1 = u_rot(math.pi / 4), u_rot(0.0)
_A1.setflags(write=False)
_B1.setflags(write=False)


def measurement_operators(p):
    """The two dichotomic settings per party; outcomes read in the z basis."""
    a2 = u_phase(2 * p.phi) @ _A1 @ u_phase(-2 * p.phi)
    b2 = u_phase(p.phi) @ u_rot(p.chi) @ u_phase(-p.phi)
    return (_A1, a2), (_B1, b2)


def _pair_gate(a, b):
    """np.kron(a, b) of two 2x2 operators, as one broadcast outer product."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)


def _outcome_distribution(psi, op_a, op_b):
    amps = _pair_gate(op_a, op_b) @ psi
    return (np.abs(amps) ** 2).reshape(2, 2)  # [x, y], outcome +1 <-> index 0

# the four joint-probability equations: (party settings, outcome indices)
EQUATIONS = (
    ("e1", 0, 0, (0, 0)),   # P(+1,+1|A1,B1)
    ("e2", 1, 0, (0, 1)),   # P(+1,-1|A2,B1)
    ("e3", 0, 1, (1, 0)),   # P(-1,+1|A1,B2)
    ("e5", 1, 1, (0, 0)),   # P(+1,+1|A2,B2)
)


def hardy_probs(p):
    """The four ideal joint probabilities; the first three vanish, the last is q."""
    psi = hardy_state(p.theta, p.phi)
    (a1, a2), (b1, b2) = measurement_operators(p)
    ops = ((a1, a2), (b1, b2))
    out = {}
    for name, ia, ib, (x, y) in EQUATIONS:
        dist = _outcome_distribution(psi, ops[0][ia], ops[1][ib])
        out[name] = float(dist[x, y])
    return out


def _q(theta, phi):
    """`hardy_q` of the angles, unvalidated, in scalar arithmetic."""
    chi = math.atan2(1.0, math.tan(theta) * math.cos(phi))
    z = 0.5 * math.cos(theta) * math.cos(chi) * (1 - cmath.exp(-2j * phi))
    return abs(z) ** 2


def hardy_q(p):
    """Closed form |1/2 cos(theta) cos(chi) (1 - e^{-2i phi})|^2."""
    return _q(p.theta, p.phi)


Q_MAX = (5.0 * math.sqrt(5.0) - 11.0) / 2.0

# the maximizer theta = phi of q (Hardy, PRL 71, 1665, 1993)
Q_MAX_ANGLE = math.acos((math.sqrt(5.0) - 1.0) / 2.0)

_QMAX_STEP_DEG = 0.25  # grid spacing of the refine's start and first step


def qmax_solve():
    """Refine of q over (0, 90) x (0, 90) degrees from the closed-form cell.

    The refine starts at the 0.25-degree grid point nearest `Q_MAX_ANGLE`,
    (51.75, 51.75) degrees, the cell a scan of that grid picks.  Its steps
    compare `_q` on the eight off-centre points of shrinking 3 x 3
    neighbourhoods; the centre, q itself, cannot win a strict comparison.
    It stays only because `qdof hardy qmax` prints where it ends, which
    differs from `Q_MAX_ANGLE` from the ninth significant digit.
    """
    t = f = math.radians(round(math.degrees(Q_MAX_ANGLE) / _QMAX_STEP_DEG)
                         * _QMAX_STEP_DEG)
    q = hardy_q(HardyParams(t, f))
    h = math.radians(_QMAX_STEP_DEG)
    for _ in range(40):
        h *= 0.6
        candidates = [(t + dt, f + df) for dt in (-h, 0, h)
                      for df in (-h, 0, h) if dt or df]
        for tt, ff in candidates:
            if 0 < tt < math.pi / 2 and 0 < ff < math.pi / 2:
                qq = _q(tt, ff)
                if qq > q:
                    t, f, q = tt, ff, qq
    return t, f, q


# -- synthetic noise model -----------------------------------------------------


@dataclass(frozen=True)
class NoiseModel:
    """Per-circuit noise: depolarizing + per-qubit dephasing + readout flips.

    Dephasing (phase-flip probability per qubit after preparation) is what
    separates interference-tuned circuits from the rest: states whose zero
    cells rely on fine phase cancellation pick up a much larger background
    than computational-basis-heavy ones, matching the hierarchy seen on
    superconducting hardware.
    """

    depolarizing: float = 0.05
    dephasing: float = 0.12
    readout: float = 0.02
    shots: int = 8192

    def __post_init__(self):
        for v in (self.depolarizing, self.dephasing, self.readout):
            if not 0.0 <= v <= 1.0:
                raise ValueError("noise probabilities must lie in [0, 1]")
        if self.shots < 1:
            raise ValueError("need at least one shot per run")


@dataclass(frozen=True)
class SampleSet:
    """Repeated-run estimates of one probability: a read-only copy of the
    values; the mean and sd (0.0 for one run) are each worked out once."""

    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.size == 0:
            raise ValueError("a sample set needs at least one value")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def n(self):
        return len(self.values)

    @cached_property
    def mean(self):
        return float(self.values.mean())

    @cached_property
    def sd(self):
        return float(self.values.std(ddof=1)) if self.n > 1 else 0.0


_Z1 = np.diag([1, 1, -1, -1]).astype(complex)
_Z2 = np.diag([1, -1, 1, -1]).astype(complex)


def noisy_state(p, noise):
    """Density matrix after preparation noise (dephasing then depolarizing)."""
    psi = hardy_state(p.theta, p.phi)
    rho = np.outer(psi, psi.conj())
    z = noise.dephasing
    rho = ((1 - z) ** 2 * rho
           + z * (1 - z) * (_Z1 @ rho @ _Z1 + _Z2 @ rho @ _Z2)
           + z ** 2 * (_Z1 @ _Z2 @ rho @ _Z2 @ _Z1))
    return (1 - noise.depolarizing) * rho + noise.depolarizing * np.eye(4) / 4.0


def noisy_probabilities(p, noise):
    """Exact per-equation probabilities under the synthetic noise channel."""
    rho = noisy_state(p, noise)
    (a1, a2), (b1, b2) = measurement_operators(p)
    ops = ((a1, a2), (b1, b2))
    r = noise.readout
    flip = np.array([[1 - r, r], [r, 1 - r]])
    out = {}
    for name, ia, ib, (x, y) in EQUATIONS:
        gate = _pair_gate(ops[0][ia], ops[1][ib])
        dist = np.diag(gate @ rho @ gate.conj().T).real.reshape(2, 2)
        noisy = flip @ dist @ flip.T
        out[name] = float(noisy[x, y])
    return out


def noisy_sample(p, noise, n_runs=10, seed=0):
    """Shot-limited repeated-run estimates for each equation."""
    if n_runs < 1:
        raise ValueError("need at least one run")
    rng = np.random.default_rng(seed)
    probs = noisy_probabilities(p, noise)
    return {name: SampleSet(rng.binomial(noise.shots,
                                         min(max(prob, 0.0), 1.0),
                                         size=n_runs) / noise.shots)
            for name, prob in probs.items()}


# -- Student-t machinery ---------------------------------------------------------


def t_quantile(alpha_half, nu):
    """Upper-tail Student-t quantile: P(T > t) = alpha_half for nu dof."""
    if not 0.0 < alpha_half < 0.5:
        raise ValueError("tail probability must lie in (0, 0.5)")
    if nu < 1:
        raise ValueError("need at least one degree of freedom")
    from scipy.special import stdtrit  # costs more than all of qdof's imports
    return float(stdtrit(nu, 1.0 - alpha_half))


def t_margin(alpha, n, spread):
    """Two-sided Student-t half-width t_{alpha/2, n-1} * spread / sqrt(n)."""
    return t_quantile(alpha / 2.0, n - 1) * spread / math.sqrt(n)


# known zero-q calibration states (theta, phi) in degrees: the maximally
# entangled state first, then four product states
OFFLINE_STATES_DEG = ((45.0, 90.0), (0.0, 0.0), (45.0, 0.0), (90.0, 0.0),
                      (90.0, 45.0))


def estimate_qlb(offline_sets, online, alpha):
    """Two-phase lower-bound estimate of q for an unknown state.

    Offline: the largest mean background among known zero-q states.  Online:
    q_lb_hat = mean(e5) - background - Delta with the Student-t margin Delta.
    The decision is 'nmes' when the bound is positive, otherwise
    'inconclusive'.
    """
    if online.n < 2:
        raise ValueError("need at least two runs for a bound")
    if not offline_sets:
        raise ValueError("need at least one calibration sample set")
    worst = max(offline_sets, key=lambda s: s.mean)
    delta = t_margin(alpha, online.n, math.sqrt(online.sd ** 2 + worst.sd ** 2))
    q_lb = online.mean - worst.mean - delta
    return {"q_lb_hat": q_lb, "delta": delta,
            "sigma4_bar": worst.mean, "s_sigma4": worst.sd,
            "decision": "nmes" if q_lb > 0 else "inconclusive"}
