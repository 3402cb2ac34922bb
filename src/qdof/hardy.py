"""Paradox-of-nonlocality statistics for two qubits.

Ideal joint probabilities and the nonzero witness probability q of the
two-parameter test state; the location and value of max q; a synthetic
depolarizing-plus-readout noise model with binomial shot noise; and the
two-phase estimator that bounds q from below using Student-t confidence
intervals calibrated on known zero-q states.

The t-distribution quantiles come from scipy's inverse Student-t CDF.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import stdtrit

from .circuits import hardy_state, u_phase, u_rot


class BoundaryError(ValueError):
    """The rotation angle chi has no limit at theta = phi = 90 degrees."""


@dataclass(frozen=True)
class HardyParams:
    """Test-state angles in radians; chi is derived via cot(chi)=tan(t)cos(p)."""

    theta: float
    phi: float

    def __post_init__(self):
        if (abs(self.theta - math.pi / 2) < 1e-9
                and abs(self.phi - math.pi / 2) < 1e-9):
            raise BoundaryError("chi is undefined at theta = phi = 90 deg")

    @property
    def chi(self):
        return math.atan2(1.0, math.tan(self.theta) * math.cos(self.phi))


def measurement_operators(p):
    """The two dichotomic settings per party; outcomes read in the z basis."""
    a1 = u_rot(math.pi / 4)
    b1 = u_rot(0.0)
    a2 = u_phase(2 * p.phi) @ u_rot(math.pi / 4) @ u_phase(-2 * p.phi)
    b2 = u_phase(p.phi) @ u_rot(p.chi) @ u_phase(-p.phi)
    return (a1, a2), (b1, b2)


def _outcome_distribution(psi, op_a, op_b):
    amps = np.kron(op_a, op_b) @ psi
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
    psi = hardy_state(p.theta, p.phi).analytic_vector
    (a1, a2), (b1, b2) = measurement_operators(p)
    ops = ((a1, a2), (b1, b2))
    out = {}
    for name, ia, ib, (x, y) in EQUATIONS:
        dist = _outcome_distribution(psi, ops[0][ia], ops[1][ib])
        out[name] = float(dist[x, y])
    return out


def hardy_q(p):
    """Closed form |1/2 cos(theta) cos(chi) (1 - e^{-2i phi})|^2."""
    z = 0.5 * math.cos(p.theta) * math.cos(p.chi) * (1 - np.exp(-2j * p.phi))
    return float(abs(z) ** 2)


Q_MAX = (5.0 * math.sqrt(5.0) - 11.0) / 2.0


def qmax_solve(step_deg=0.25):
    """Grid-plus-refine maximization of q over (0, 90) x (0, 90) degrees."""
    grid = np.deg2rad(np.arange(step_deg, 90.0, step_deg))
    # hardy_q over the whole grid; argmax keeps the first maximum in (t, f)
    # row-major order, as a strict-improvement scan would
    ts, fs = np.meshgrid(grid, grid, indexing="ij")
    chi = np.arctan2(1.0, np.tan(ts) * np.cos(fs))
    z = 0.5 * np.cos(ts) * np.cos(chi) * (1 - np.exp(-2j * fs))
    i, j = np.unravel_index(np.argmax(np.abs(z) ** 2), ts.shape)
    t, f = grid[i], grid[j]
    q = hardy_q(HardyParams(t, f))
    h = math.radians(step_deg)
    for _ in range(40):
        h *= 0.6
        candidates = [(t + dt, f + df) for dt in (-h, 0, h) for df in (-h, 0, h)]
        for tt, ff in candidates:
            if 0 < tt < math.pi / 2 and 0 < ff < math.pi / 2:
                qq = hardy_q(HardyParams(tt, ff))
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


@dataclass
class SampleSet:
    """Repeated-run estimates of one probability."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)

    @property
    def n(self):
        return len(self.values)

    @property
    def mean(self):
        return float(self.values.mean())

    @property
    def sd(self):
        if self.n < 2:
            return 0.0
        return float(self.values.std(ddof=1))


_Z1 = np.diag([1, 1, -1, -1]).astype(complex)
_Z2 = np.diag([1, -1, 1, -1]).astype(complex)


def noisy_state(p, noise):
    """Density matrix after preparation noise (dephasing then depolarizing)."""
    psi = hardy_state(p.theta, p.phi).analytic_vector
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
        gate = np.kron(ops[0][ia], ops[1][ib])
        dist = np.diag(gate @ rho @ gate.conj().T).real.reshape(2, 2)
        noisy = flip @ dist @ flip.T
        out[name] = float(noisy[x, y])
    return out


def noisy_sample(p, noise, n_runs=10, seed=0):
    """Shot-limited repeated-run estimates for each equation."""
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
    return float(stdtrit(nu, 1.0 - alpha_half))


def t_ci(sample, alpha):
    """Two-sided (1 - alpha) confidence interval around the sample mean."""
    if sample.n < 2:
        raise ValueError("need at least two runs for an interval")
    t = t_quantile(alpha / 2.0, sample.n - 1)
    half = t * sample.sd / math.sqrt(sample.n)
    return sample.mean - half, sample.mean + half


def diff_lower_bound(x, y, alpha):
    """Lower confidence limit of E[x] - E[y] at level 1 - alpha."""
    if x.n != y.n:
        raise ValueError("sample sets must have matching run counts")
    if x.n < 2:
        raise ValueError("need at least two runs for a bound")
    t = t_quantile(alpha / 2.0, x.n - 1)
    return (x.mean - y.mean
            - t * math.sqrt(x.sd ** 2 + y.sd ** 2) / math.sqrt(x.n))


@dataclass
class EstimatorState:
    """Offline calibration: the largest zero-q background and its spread."""

    sigma4_bar: float
    s_sigma4: float
    alpha_level: float


def calibrate_offline(offline_sets, alpha):
    """Pick the worst background mean among zero-q calibration runs."""
    if not offline_sets:
        raise ValueError("need at least one calibration sample set")
    worst = max(offline_sets, key=lambda s: s.mean)
    return EstimatorState(worst.mean, worst.sd, alpha)


def estimate_qlb(offline_sets, online, alpha):
    """Two-phase lower-bound estimate of q for an unknown state.

    Offline: the largest mean background among known zero-q states.  Online:
    q_lb_hat = mean(e5) - background - Delta with the Student-t margin Delta.
    The decision is 'nmes' when the bound is positive, otherwise
    'inconclusive'.
    """
    if online.n < 2:
        raise ValueError("need at least two runs for a bound")
    state = calibrate_offline(offline_sets, alpha)
    t = t_quantile(alpha / 2.0, online.n - 1)
    delta = (t * math.sqrt(online.sd ** 2 + state.s_sigma4 ** 2)
             / math.sqrt(online.n))
    q_lb = online.mean - state.sigma4_bar - delta
    return {"q_lb_hat": q_lb, "delta": delta,
            "sigma4_bar": state.sigma4_bar, "s_sigma4": state.s_sigma4,
            "decision": "nmes" if q_lb > 0 else "inconclusive"}


def chsh_hardy_lhs(e5, e1, e2, e3):
    """e5 - e1 - e2 - e3; positive values witness local-realism violation."""
    def val(x):
        return x.mean if isinstance(x, SampleSet) else float(x)
    return val(e5) - val(e1) - val(e2) - val(e3)
