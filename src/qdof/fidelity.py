"""Singlet fraction, teleportation fidelity, and the relation between them.

The singlet fraction of a two-qubit matrix, its maximal overlap with the
maximally entangled states |psi_U> = (1 x U)|Phi+>, U in U(2), is computed in
closed form from the signed singular values of the correlation matrix.  The
generalized quantities sum the pairwise values over DoF pairs of a two-party
state, reducing each pair with the trace rules appropriate to the particle
kind.

Teleportation is simulated with the standard Bell-measurement-and-correction
protocol; fidelities are input-output overlaps averaged over the six Pauli
axis states.  Channels between DoFs of indistinguishable particles are scaled
onto a configurable ceiling below one, reflecting that unit-fidelity transfer
is unavailable to them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .states import (BOSON, DISTINGUISHABLE, DegenerateStateError,
                     DensityMatrix, DofSpec, Ket)
from .trace import Subsystem, to_qubit_array, trace_dof_dist, trace_dof_indist

_PAULI = [np.eye(2, dtype=complex),
          np.array([[0, 1], [1, 0]], dtype=complex),
          np.array([[0, -1j], [1j, 0]], dtype=complex),
          np.array([[1, 0], [0, -1]], dtype=complex)]

PHI_PLUS = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)

AXIS_STATES = [np.array(v, dtype=complex) / np.linalg.norm(v) for v in
               ([1, 0], [0, 1], [1, 1], [1, -1], [1, 1j], [1, -1j])]


@dataclass(frozen=True)
class ChannelLayout:
    """Two particles (or regions) with `n` two-level DoFs each."""

    kind: str  # 'distinguishable' | 'indistinguishable'
    n: int
    d: int = 2

    def __post_init__(self):
        if self.kind not in ("distinguishable", "indistinguishable"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.n < 1 or self.d != 2:
            raise ValueError("v1 supports n >= 1 two-level DoFs")


@dataclass
class FidelityParams:
    """Ceilings of the generalized fidelity and singlet fraction.

    Defaults follow the closed-form ceilings: unit channel fidelity and
    1 + (n-1)/d for distinguishable particles, a configurable sub-unit
    fidelity (5/6) and n for indistinguishable ones.
    """

    f_max: float
    big_f_max: float

    @staticmethod
    def for_layout(layout, f_max_indist=5.0 / 6.0):
        if layout.kind == "distinguishable":
            return FidelityParams(1.0, 1.0 + (layout.n - 1) / layout.d)
        return FidelityParams(f_max_indist, float(layout.n))


# -- singlet fraction ----------------------------------------------------------


def _correlation_matrix(rho):
    t = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            t[i, j] = np.trace(rho @ np.kron(_PAULI[i + 1], _PAULI[j + 1])).real
    return t


def _fef_closed(rho):
    """Analytic fully entangled fraction of a two-qubit state."""
    t = _correlation_matrix(rho)
    k = np.diag([1.0, -1.0, 1.0]) @ t
    sing = np.linalg.svd(k, compute_uv=False)
    s = sing[0] + sing[1] + (sing[2] if np.linalg.det(k) >= 0 else -sing[2])
    return 0.25 * (1.0 + s)


def singlet_fraction(rho, d=2):
    """Maximal overlap of `rho` with a maximally entangled state (closed form)."""
    rho = np.asarray(rho, dtype=complex)
    if d != 2 or rho.shape != (4, 4):
        raise ValueError("v1 computes singlet fractions of two-qubit states")
    tr = np.trace(rho).real
    if abs(tr) < 1e-12:
        raise DegenerateStateError("singlet fraction of a zero-trace matrix")
    return _fef_closed(rho / tr)


# -- pair reductions -----------------------------------------------------------


def _pair_matrix(dm, layout, i, j):
    """4x4 matrix of the (i-th DoF of party 1, j-th DoF of party 2) pair."""
    reduced = dm
    if layout.kind == "distinguishable":
        for k in range(1, layout.n + 1):
            if k != i:
                reduced = trace_dof_dist(reduced, 0, k)
            if k != j:
                reduced = trace_dof_dist(reduced, 1, k)
        return to_qubit_array(reduced, None)
    regions = sorted({k.region for kets in dm.basis for k in kets})
    first, second = regions[0], regions[1]
    for k in range(1, layout.n + 1):
        if k != i:
            reduced = trace_dof_indist(reduced, Subsystem(first, k))
        if k != j:
            reduced = trace_dof_indist(reduced, Subsystem(second, k))
    return to_qubit_array(reduced, None)


def generalized_singlet_fraction(dm, layout):
    """Max over one fixed DoF of either party of the summed pairwise fractions."""
    n = layout.n
    pair_f = np.empty((n, n))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            pair_f[i - 1, j - 1] = singlet_fraction(
                _pair_matrix(dm, layout, i, j))
    by_i = pair_f.sum(axis=1).max()
    by_j = pair_f.sum(axis=0).max()
    return float(max(by_i, by_j))


# -- teleportation -------------------------------------------------------------

_BELL = [np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2),
         np.array([0, 1, 1, 0], dtype=complex) / math.sqrt(2),
         np.array([1, 0, 0, -1], dtype=complex) / math.sqrt(2),
         np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2)]

_CORRECTION = [_PAULI[0], _PAULI[1], _PAULI[3], _PAULI[1] @ _PAULI[3]]


def teleport_output(channel, psi_in):
    """Output state of the Bell-measurement protocol through a two-qubit channel."""
    channel = np.asarray(channel, dtype=complex)
    channel = channel / np.trace(channel).real
    psi_in = np.asarray(psi_in, dtype=complex)
    psi_in = psi_in / np.linalg.norm(psi_in)
    joint = np.kron(np.outer(psi_in, psi_in.conj()), channel)  # C x A x B
    out = np.zeros((2, 2), dtype=complex)
    t = joint.reshape(2, 2, 2, 2, 2, 2)  # (c a b | c' a' b')
    for bell, corr in zip(_BELL, _CORRECTION):
        m = bell.reshape(2, 2)
        rho_b = np.einsum("ca,cabxyz,xy->bz", m.conj(), t, m)
        out += corr @ rho_b @ corr.conj().T
    return out


def teleport_fidelity(channel, psi_in):
    """Input-output overlap of one teleportation run (pure input)."""
    psi_in = np.asarray(psi_in, dtype=complex)
    psi_in = psi_in / np.linalg.norm(psi_in)
    out = teleport_output(channel, psi_in)
    return float((psi_in.conj() @ out @ psi_in).real)


def average_teleport_fidelity(channel):
    """Mean input-output overlap over the six Pauli axis states."""
    return float(np.mean([teleport_fidelity(channel, v) for v in AXIS_STATES]))


def _rescale_to_ceiling(raw, d, f_max):
    # map the entangled fraction of the channel onto [1/d, f_max]
    base = 1.0 / d
    return base + (raw - base) * (f_max - base) / (1.0 - base)


def generalized_teleportation_fidelity(dm, layout, params=None):
    """Max over DoF pairs of the simulated average teleportation fidelity."""
    if params is None:
        params = FidelityParams.for_layout(layout)
    best = -1.0
    for i in range(1, layout.n + 1):
        for j in range(1, layout.n + 1):
            f = average_teleport_fidelity(_pair_matrix(dm, layout, i, j))
            best = max(best, f)
    if layout.kind == "indistinguishable":
        best = _rescale_to_ceiling(best, layout.d, params.f_max)
    return float(best)


# -- the two-parameter family and the relation ----------------------------------


def _dist_specs(n):
    return tuple(DofSpec(i, ("0", "1")) for i in range(1, n + 1))


def _dist_basis(n, first="A", second="B"):
    vals = list(itertools.product("01", repeat=n))
    kets = []
    for va in vals:
        for vb in vals:
            ka = Ket(first, tuple((i + 1, v) for i, v in enumerate(va)))
            kb = Ket(second, tuple((i + 1, v) for i, v in enumerate(vb)))
            kets.append((ka, kb))
    return tuple(kets)


def max_entangled_resource(layout):
    """The reference state with a maximally entangled pair for every DoF.

    Distinguishable particles can only afford one Bell pair (first DoF of each
    side; every other DoF maximally mixed).  Indistinguishable regions support
    the inter-DoF correlated two-mode state whose every pairwise reduction is
    a Bell state.
    """
    n = layout.n
    dim = 4 ** n
    if layout.kind == "distinguishable":
        basis = _dist_basis(n)
        bell = np.outer(PHI_PLUS, PHI_PLUS.conj())
        rest = np.eye(4 ** (n - 1), dtype=complex) / (4 ** (n - 1))
        data = np.kron(bell, rest)  # axes (a1 b1 | a2..an b2..bn)
        t = data.reshape((2,) * (4 * n))
        # current ket axes: a1, b1, a2, b2, ..., an, bn -> want a1..an b1..bn
        perm = [2 * k for k in range(n)] + [2 * k + 1 for k in range(n)]
        perm = perm + [2 * n + p for p in perm]
        data = t.transpose(perm).reshape(dim, dim)
        return DensityMatrix(basis, data, DISTINGUISHABLE, _dist_specs(n), n)
    basis = _dist_basis(n, "s1", "s2")
    v = np.zeros(dim, dtype=complex)
    lo = tuple("0" for _ in range(n))
    hi = tuple("1" for _ in range(n))
    vals = list(itertools.product("01", repeat=n))
    idx = {p: k for k, p in enumerate(itertools.product(vals, vals))}
    v[idx[(lo, lo)]] = 1 / math.sqrt(2)
    v[idx[(hi, hi)]] = 1 / math.sqrt(2)
    return DensityMatrix(basis, np.outer(v, v.conj()), BOSON, _dist_specs(n), n)


def two_param_state(p, layout):
    """p * resource + (1-p) * white noise over the 4^n-dimensional pair space."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    resource = max_entangled_resource(layout)
    dim = len(resource.basis)
    data = p * resource.data + (1.0 - p) * np.eye(dim) / dim
    return DensityMatrix(resource.basis, data, resource.eta,
                         resource.dof_specs, resource.n_dofs_orig)


def relation_check(layout, p_grid=None, params=None):
    """Check f_g against its linear prediction from F_g across the noise family.

    With `params` omitted, the ceilings are measured on the family's p = 1
    endpoint, which keeps the check self-consistent with the constructed
    resource state.  Returns a list of records with the residuals.
    """
    if p_grid is None:
        p_grid = np.linspace(0.0, 1.0, 21)
    if params is None:
        endpoint = two_param_state(1.0, layout)
        params = FidelityParams(
            generalized_teleportation_fidelity(endpoint, layout),
            generalized_singlet_fraction(endpoint, layout))
    n, d = layout.n, layout.d
    records = []
    for p in p_grid:
        dm = two_param_state(float(p), layout)
        f_g = generalized_teleportation_fidelity(
            dm, layout, FidelityParams(params.f_max, params.big_f_max))
        big_f = generalized_singlet_fraction(dm, layout)
        predicted = ((big_f - n / d ** 2) * (params.f_max - 1 / d)
                     / (params.big_f_max - n / d ** 2) + 1 / d)
        records.append({"p": float(p), "f_g": f_g, "F_g": big_f,
                        "predicted_f_g": predicted,
                        "residual": f_g - predicted})
    return records


def sf_upper_bound_check(layout, samples=200, seed=0):
    """Random distinguishable states never beat the 1 + (n-1)/d ceiling."""
    if layout.kind != "distinguishable":
        raise ValueError("the ceiling check applies to distinguishable layouts")
    rng = np.random.default_rng(seed)
    n = layout.n
    dim = 4 ** n
    basis = _dist_basis(n)
    bound = 1.0 + (n - 1) / layout.d
    worst = -1.0
    for _ in range(samples):
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v /= np.linalg.norm(v)
        dm = DensityMatrix(basis, np.outer(v, v.conj()), DISTINGUISHABLE,
                           _dist_specs(n), n)
        val = generalized_singlet_fraction(dm, layout)
        worst = max(worst, val)
    return {"bound": bound, "max_observed": worst,
            "within": worst <= bound + 1e-6}
