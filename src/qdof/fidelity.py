"""Singlet fraction, teleportation fidelity, and the relation between them.

The singlet fraction of a two-qubit matrix, its maximal overlap with the
maximally entangled states (1 x U)|Phi+>, U in U(2), is the largest eigenvalue
of Re rho_M over the trace, rho_M being rho in the magic basis, where those
states are the real unit vectors (Hill & Wootters, PRL 78, 5022, 1997;
Grondalski, Etlinger & James, PLA 300, 573, 2002).  Re rho_M is symmetrized,
so a non-Hermitian matrix reads its Hermitian part.  The generalized
quantities sum the pairwise values over DoF pairs of a two-party state, whose
pair grid (`_pair_matrices`) is one (n, n, 4, 4) array built with the DoF
trace rule of the particle kind: party 1 is reduced to each of its DoFs
(`_each_dof`), then each distinct row of those to each DoF of party 2, the
rows of one layout as one stack (`_reduce_rows`).
`singlet_fraction` and `average_teleport_fidelity` take one 4x4 matrix (and
return a float) or a (k, 4, 4) stack (and return its k values, each the one
its matrix gets alone, the trace divided out of the values); a grid goes to
each as its (n^2, 4, 4) stack.

`generalized_teleportation_fidelity` and `generalized_singlet_fraction` read
their grid through a one-entry memo holding the last grid built, so a caller
that needs both for one state reduces it once.  The memo is keyed on the
layout, the identity of `dm.basis`, `dm.eta`, `dm.dof_specs`, `dm.n_dofs_orig`
and the dtype, shape and bytes of `dm.data`: equal input gets the very grid a
fresh reduction would build, and a matrix changed in place or set on another
basis object is reduced again.  The memo's grid is read-only.
`relation_check` and `sf_upper_bound_check` reduce past the memo, whose key
would copy every state's bytes for a hit that cannot come.  `relation_check`
reduces one state, the family's p = 1 endpoint, built past `_resource`'s cache,
and reads the grid at p as p * grid(1) + (1 - p) * I/4, the pair grid being
affine in p and every pair of the maximally mixed p = 0 state I/4.

The noise family and the random states of `sf_upper_bound_check` take their
basis, eta and DoF specs from `_space(layout)`, and the noise family its
resource matrix from `_resource(layout)`, both cached per layout.  The basis
is built by `trace._product_basis`, so the DoF traces take their dense branch
on it.

Teleportation uses the standard Bell-measurement-and-correction protocol:
`teleport_output` runs it on one input, outcome by outcome.  Its fidelity
averaged over the six Pauli axis states is linear in the channel, and equals
(2 <Phi+|rho|Phi+> + 1) / 3 on the unit-trace channel rho (Horodecki,
Horodecki & Horodecki, PRA 60, 1888, 1999), which `average_teleport_fidelity`
computes.  The per-matrix forms first written, six protocol runs and the
signed singular values of the nine-product correlation matrix, are kept as
oracles in `tests/oracles.py`; both closed forms agree with them within 1e-14
relative.  Channels between DoFs of indistinguishable particles are scaled onto
`F_MAX_INDIST` = 5/6, as unit-fidelity transfer is unavailable to them, or onto
the `f_max` of the `FidelityParams` a caller passes.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .states import (BOSON, DISTINGUISHABLE, DensityMatrix, DofSpec,
                     _check_density, _traced)
from .trace import (ProductBasis, Subsystem, _product_basis, to_qubit_array,
                    trace_dof_dist, trace_dof_indist)

_PAULI = [np.eye(2, dtype=complex),
          np.array([[0, 1], [1, 0]], dtype=complex),
          np.array([[0, -1j], [1j, 0]], dtype=complex),
          np.array([[1, 0], [0, -1]], dtype=complex)]

PHI_PLUS = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)

D = 2  # every DoF is two-level
F_MAX_INDIST = 5.0 / 6.0  # channel fidelity ceiling of indistinguishable DoFs


@dataclass(frozen=True)
class ChannelLayout:
    """Two particles (or regions) with `n` two-level DoFs each."""

    kind: str  # 'distinguishable' | 'indistinguishable'
    n: int

    def __post_init__(self):
        if self.kind not in ("distinguishable", "indistinguishable"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if not isinstance(self.n, (int, np.integer)):
            raise ValueError(f"n must be an integer, got {self.n!r}")
        if self.n < 1:
            raise ValueError("v1 supports n >= 1 two-level DoFs")
        if self.n > 6:  # one matrix is 4.3 GB at n = 7
            raise ValueError("v1 builds dense 4^n x 4^n matrices: n <= 6")


@dataclass
class FidelityParams:
    """Ceilings of the generalized fidelity and singlet fraction.

    `for_layout` gives the closed-form ceilings: unit channel fidelity and
    1 + (n-1)/D for distinguishable particles, `F_MAX_INDIST` and n for
    indistinguishable ones.
    """

    f_max: float
    big_f_max: float

    @staticmethod
    def for_layout(layout):
        """Default ceilings.  The coherent DoF trace gives every pair of a pure
        indistinguishable state rank one, so F_g <= n, a sum of n pair
        singlet fractions of at most 1 each, cannot fail there."""
        if layout.kind == "distinguishable":
            return FidelityParams(1.0, 1.0 + (layout.n - 1) / D)
        return FidelityParams(F_MAX_INDIST, float(layout.n))


# -- singlet fraction ----------------------------------------------------------


# the magic basis times sqrt(2), by columns: (1, 0, 0, 1), i(1, 0, 0, -1),
# i(0, 1, 1, 0), (0, 1, -1, 0); its entries 0, +-1, +-i are exact
_MAGIC = np.array([[1, 1j, 0, 0], [0, 0, 1j, 1], [0, 0, 1j, -1],
                   [1, -1j, 0, 0]])
_MAGIC_H = _MAGIC.conj().T


def singlet_fraction(rho):
    """Maximal overlap of `rho` with a maximally entangled state (closed form).

    `rho` is one 4x4 matrix, for which a float is returned, or a (k, 4, 4)
    stack, for which the k values are; each value is the one its matrix
    gets alone.  Input passes `states._traced`, which refuses a zero,
    negative or non-finite trace, but is not checked to be a density matrix.
    """
    rho, tr = _traced(rho, 4, stack=True)
    # r + r^T is 4 Re rho_M of the Hermitian part of rho
    r = (_MAGIC_H @ rho @ _MAGIC).real
    values = np.linalg.eigvalsh(r + r.swapaxes(-1, -2))[..., -1] / (4.0 * tr)
    return float(values) if rho.ndim == 2 else values


# -- pair reductions -----------------------------------------------------------


def _each_dof(dm, side, trace, n):
    """`dm` reduced to each DoF of party `side`: entry i - 1 keeps DoF i.

    `trace(matrix, side, k)` traces DoF k of that party out.  DoFs 1..i-1
    are traced once, on a prefix shared by every later i, then i+1..n for
    each i: n(n-1)/2 + n-1 traces in all.
    """
    reduced = []
    for i in range(1, n + 1):  # dm has DoFs 1..i-1 traced out
        kept = dm
        for k in range(i + 1, n + 1):
            kept = trace(kept, side, k)
        reduced.append(kept)
        if i < n:
            dm = trace(dm, side, i)
    return reduced


def _row_key(row, i):
    """(bytes, layout): what row i's party-2 reduction reads that rows can
    differ in: on a product basis DoF i's values and order, else the basis
    and the bytes, as the kernel's basis for a stack holds every row's
    support, more than a row of smaller support gets alone."""
    data = row.data.tobytes()
    if type(row.basis) is not ProductBasis:
        return data, (row.basis, data)
    (_, values), *_ = row.basis.slots[0][1]  # more DoFs fail the layout
    return data, (values, tuple(row.value_order(i)))


def _reduce_rows(grid, rows, at, trace, n):
    """Write into grid[i, j - 1] row i of `rows` reduced to DoF j of party
    2, for the indices `at` of distinct rows of one layout.

    The rows are reduced as one stack on the first row's basis: rows of
    one layout differ there only in party 1's DoF index, which neither
    party 2's traces nor the qubit layout read.
    """
    first = rows[at[0]]
    stack = DensityMatrix(first.basis, np.array([rows[i].data for i in at]),
                          first.eta, first.dof_specs, first.n_dofs_orig)
    run = at[-1] - at[0] == len(at) - 1  # a slice indexes it faster
    where = slice(at[0], at[-1] + 1) if run else at
    for j, pair in enumerate(_each_dof(stack, 1, trace, n)):
        grid[where, j] = to_qubit_array(pair)


def _pair_matrices(dm, layout):
    """(n, n, 4, 4) array whose entry [i - 1, j - 1] is the matrix of the
    (i-th DoF of party 1, j-th DoF of party 2) pair.

    Party 1 is reduced to each of its DoFs, then each distinct row of those
    (`_row_key`) to each DoF of party 2, by the trace rule of the layout's
    particle kind.  The distinct rows of one layout go through party 2 as
    one stack (`_reduce_rows`).
    """
    n = layout.n
    if layout.kind == "distinguishable":
        trace = trace_dof_dist
    else:
        regions = sorted(getattr(dm.basis, "regions", None)
                         or {k.region for kets in dm.basis for k in kets})

        def trace(reduced, side, k):
            return trace_dof_indist(reduced, Subsystem(regions[side], k))

    rows = _each_dof(dm, 0, trace, n)
    layouts = {}  # layout -> {row bytes: indices of the rows with them}
    for i, row in enumerate(rows):
        data, row_layout = _row_key(row, i + 1)
        layouts.setdefault(row_layout, {}).setdefault(data, []).append(i)
    grid = np.empty((n, n, 4, 4), dtype=complex)
    for equal in layouts.values():
        _reduce_rows(grid, rows, [first for first, *_ in equal.values()],
                     trace, n)
        for first, *rest in equal.values():
            for i in rest:
                grid[i] = grid[first]
    return grid


_last_grid = None  # (basis, key, grid) of the last full grid built (module doc)


def _full_grid(dm, layout):
    """The (n, n, 4, 4) pair grid of `dm`, read-only; a call on input equal
    to the last call's returns the grid built then."""
    global _last_grid
    data = dm.data
    key = (layout, dm.eta, dm.dof_specs, dm.n_dofs_orig, data.dtype, data.shape,
           data.tobytes())
    last = _last_grid
    if last is None or last[0] is not dm.basis or last[1] != key:
        grid = _pair_matrices(dm, layout)
        grid.setflags(write=False)
        last = _last_grid = (dm.basis, key, grid)
    return last[2]


def _measure_grid(measure, grid):
    """n x n values of `measure` over `grid`, by one call on the (n^2, 4, 4)
    stack of its matrices."""
    return measure(grid.reshape(-1, 4, 4)).reshape(grid.shape[:2])


def _singlet_fraction_of(grid):
    # row and column sums left to right from the first value, numpy's order
    pair_f = _measure_grid(singlet_fraction, grid).tolist()
    return max(functools.reduce(operator.add, line)
               for line in pair_f + list(zip(*pair_f)))


def generalized_singlet_fraction(dm, layout):
    """Max over one fixed DoF of either party of the summed pairwise fractions."""
    return _singlet_fraction_of(_full_grid(dm, layout))


# -- teleportation -------------------------------------------------------------

_BELL = [np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2),
         np.array([0, 1, 1, 0], dtype=complex) / math.sqrt(2),
         np.array([1, 0, 0, -1], dtype=complex) / math.sqrt(2),
         np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2)]

_CORRECTION = [_PAULI[0], _PAULI[1], _PAULI[3], _PAULI[1] @ _PAULI[3]]


def _unit(psi_in):
    """`psi_in` as a unit complex 2-vector; any other shape, or a norm that
    is not positive, raises ValueError.  A non-zero vector whose squared
    norm underflows is scaled by its largest |entry| first."""
    psi_in = np.asarray(psi_in, dtype=complex)
    if psi_in.shape != (2,):
        raise ValueError("v1 teleports one qubit: psi_in must have length 2")
    norm = np.linalg.norm(psi_in)
    if norm == 0 and psi_in.any():
        psi_in = psi_in / np.abs(psi_in).max()
        norm = np.linalg.norm(psi_in)
    if not norm > 0:
        raise ValueError("cannot teleport an input vector of zero norm")
    return psi_in / norm


def teleport_output(channel, psi_in):
    """Output state of the Bell-measurement protocol through a two-qubit
    channel, a density matrix up to a positive factor (`_check_density`)."""
    channel = _check_density(channel, 4)
    psi_in = _unit(psi_in)
    joint = np.kron(np.outer(psi_in, psi_in.conj()), channel)  # C x A x B
    t = joint.reshape((2,) * 6)  # (c a b | c' a' b')
    out = np.zeros((2, 2), dtype=complex)
    for bell, corr in zip(_BELL, _CORRECTION):
        m = bell.reshape(2, 2)
        rho_b = np.einsum("ca,cabxyz,xy->bz", m.conj(), t, m)
        out += corr @ rho_b @ corr.conj().T
    return out


def teleport_fidelity(channel, psi_in):
    """Input-output overlap of one teleportation run (pure input)."""
    psi_in = _unit(psi_in)
    out = teleport_output(channel, psi_in)
    return float((psi_in.conj() @ out @ psi_in).real)


def average_teleport_fidelity(channel):
    """Mean input-output overlap over the six Pauli axis states.

    `channel` is one 4x4 matrix, for which a float is returned, or a
    (k, 4, 4) stack, for which the k values are.  The mean is linear in the
    channel and equals (2 <Phi+|rho|Phi+> + 1) / 3 on the unit-trace `rho`.
    Input passes `states._traced`, as in `singlet_fraction`.
    """
    rho, tr = _traced(channel, 4, stack=True)
    # <Phi+|rho|Phi+>, entry by entry so that each value is its matrix's alone
    overlap = 0.5 * (rho[..., 0, 0] + rho[..., 0, 3]
                     + rho[..., 3, 0] + rho[..., 3, 3]).real / tr
    values = (2.0 * overlap + 1.0) / 3.0
    return float(values) if rho.ndim == 2 else values


def _rescale_to_ceiling(raw, f_max):
    # map the entangled fraction of the channel onto [1/D, f_max]
    base = 1.0 / D
    return base + (raw - base) * (f_max - base) / (1.0 - base)


def generalized_teleportation_fidelity(dm, layout, params=None):
    """Max over DoF pairs of the simulated average teleportation fidelity."""
    if params is None:
        params = FidelityParams.for_layout(layout)
    return _teleportation_fidelity_of(_full_grid(dm, layout), layout, params)


def _teleportation_fidelity_of(grid, layout, params):
    best = _measure_grid(average_teleport_fidelity, grid).max()
    if layout.kind == "indistinguishable":
        best = _rescale_to_ceiling(best, params.f_max)
    return float(best)


# -- the two-parameter family and the relation ----------------------------------


@functools.lru_cache(maxsize=8)
def _space(layout):
    """(basis, eta, specs) of two parties with `n` two-valued DoFs each; the
    sorted product basis is built by `_product_basis`, so it has its slots."""
    dofs = tuple((i, ("0", "1")) for i in range(1, layout.n + 1))
    if layout.kind == "distinguishable":
        regions, eta = ("A", "B"), DISTINGUISHABLE
    else:
        regions, eta = ("s1", "s2"), BOSON
    basis = _product_basis(tuple((region, dofs) for region in regions))
    return basis, eta, tuple(DofSpec(i, values) for i, values in dofs)


@functools.lru_cache(maxsize=8)
def _resource(layout):
    """Read-only matrix, over `_space(layout)`'s basis, of the reference
    state with a maximally entangled pair for every DoF.

    Distinguishable particles can only afford one Bell pair (first DoF of each
    side; every other DoF maximally mixed).  Indistinguishable regions support
    the inter-DoF correlated two-mode state whose every pairwise reduction is
    a Bell state.
    """
    n = layout.n
    dim = 4 ** n
    if layout.kind == "distinguishable":
        bell = np.outer(PHI_PLUS, PHI_PLUS.conj())
        rest = np.eye(4 ** (n - 1), dtype=complex) / (4 ** (n - 1))
        data = np.kron(bell, rest)  # axes (a1 b1 | a2..an b2..bn)
        t = data.reshape((2,) * (4 * n))
        # current ket axes: a1, b1, a2, b2, ..., an, bn -> want a1..an b1..bn
        perm = [2 * k for k in range(n)] + [2 * k + 1 for k in range(n)]
        perm = perm + [2 * n + p for p in perm]
        data = t.transpose(perm).reshape(dim, dim)
    else:
        # |0..0, 0..0> and |1..1, 1..1>, the first and last product tuples
        v = np.zeros(dim, dtype=complex)
        v[0] = v[dim - 1] = 1 / math.sqrt(2)
        data = np.outer(v, v.conj())
    data.setflags(write=False)
    return data


def two_param_state(p, layout):
    """p * resource + (1-p) * white noise over the 4^n-dimensional pair space."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    basis, eta, specs = _space(layout)
    data = p * _resource(layout)
    data += 0.0  # -0.0 becomes 0.0, in place: one 4^n x 4^n allocation
    data.flat[::len(basis) + 1] += (1.0 - p) / len(basis)
    return DensityMatrix(basis, data, eta, specs, layout.n)


def relation_check(layout, p_grid=None):
    """Check f_g against its linear prediction from F_g across the noise family.

    Every p must lie in [0, 1].  Only the resource is reduced: the grid at
    p is p * grid(1) + (1 - p) * I/4 (module doc), and the ceilings are
    measured on p = 1, self-consistent with the resource state.  A residual
    below 1e-12 in magnitude is recorded as 0.0, so no record pins the order
    of sums.
    """
    p_grid = [float(p) for p in
              (np.linspace(0.0, 1.0, 21) if p_grid is None else p_grid)]
    if not p_grid:
        raise ValueError("p_grid needs at least one point")
    if not all(0.0 <= p <= 1.0 for p in p_grid):  # nan fails both
        raise ValueError("p must lie in [0, 1]")
    n = layout.n
    basis, eta, specs = _space(layout)
    resource = _resource.__wrapped__(layout)  # uncached: freed on return
    endpoint = _pair_matrices(DensityMatrix(basis, resource, eta, specs, n),
                              layout)
    noise = np.eye(4, dtype=complex) / D ** 2  # the grid of every p = 0 pair
    params = FidelityParams(
        _teleportation_fidelity_of(endpoint, layout,
                                   FidelityParams.for_layout(layout)),
        _singlet_fraction_of(endpoint))
    records = []
    for p in p_grid:
        grid = p * endpoint + (1.0 - p) * noise
        f_g = _teleportation_fidelity_of(grid, layout, params)
        big_f = _singlet_fraction_of(grid)
        predicted = ((big_f - n / D ** 2) * (params.f_max - 1 / D)
                     / (params.big_f_max - n / D ** 2) + 1 / D)
        residual = f_g - predicted
        if abs(residual) < 1e-12:
            residual = 0.0  # round-off (and -0.0) is recorded as 0.0
        records.append({"p": p, "f_g": f_g, "F_g": big_f,
                        "predicted_f_g": predicted, "residual": residual})
    return records


def sf_upper_bound_check(layout, samples=200, seed=0):
    """Random distinguishable states never beat the 1 + (n-1)/D ceiling."""
    if layout.kind != "distinguishable":
        raise ValueError("the ceiling check applies to distinguishable layouts")
    if not isinstance(samples, (int, np.integer)):
        raise ValueError(f"samples must be an integer, got {samples!r}")
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    n = layout.n
    dim = 4 ** n
    basis, _, specs = _space(layout)
    bound = 1.0 + (n - 1) / D
    worst = -1.0
    for _ in range(samples):
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v /= np.linalg.norm(v)
        dm = DensityMatrix(basis, np.outer(v, v.conj()), DISTINGUISHABLE,
                           specs, n)
        worst = max(worst, _singlet_fraction_of(_pair_matrices(dm, layout)))
    return {"bound": bound, "max_observed": worst,
            "within": worst <= bound + 1e-6}
