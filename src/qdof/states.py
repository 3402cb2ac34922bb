"""Pure states and density matrices of particles carrying several degrees of freedom.

A state of ``p`` particles is a sparse amplitude map over tuples of single-particle
kets.  Each ket carries a spatial-region label and one eigenvalue per degree of
freedom (DoF), as the plain tuple ``(region, dofs)``: its hash, equality and
ordering are that tuple's, so sets, dicts and sorted bases order kets as
tuples.  Three particle kinds are supported:

* bosons (``eta = +1``)  -- ket tuples are unordered, amplitudes symmetric,
* fermions (``eta = -1``) -- ket tuples are unordered, amplitude picks up the
  permutation sign and vanishes for doubly occupied kets (Pauli exclusion),
* distinguishable      -- the tuple slot *is* the particle label; no
  symmetrization, the inner product is the plain tensor product.

For the symmetrized kinds, tuples are stored in a canonical sorted order and the
exchange sign is absorbed into the amplitude, so ``|phi,psi> == eta |psi,phi>``
holds by construction.  The two-particle amplitude rule

    <a,b | c,d> = <a|c><b|d> + eta <a|d><b|c>

extends to ``p`` particles as a permutation sum over the single-ket overlaps,
and on canonical tuples that sum has a closed form: distinct tuples are
orthogonal, and <S|S> is the Gram factor prod_k m_k! for bosons (m_k counts
the repeats of each ket) and 1 for fermions and distinguishable particles.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

BOSON = 1
FERMION = -1
DISTINGUISHABLE = 0
ETA_OF_KIND = {"boson": BOSON, "fermion": FERMION,
               "distinguishable": DISTINGUISHABLE}

_ATOL = 1e-9


class DegenerateStateError(ValueError):
    """Raised when a state has zero norm (e.g. fully Pauli-excluded fermions)."""


class ShapeError(ValueError):
    """Raised when two states do not share DoF layout or statistics."""


@dataclass(frozen=True)
class DofSpec:
    """One degree of freedom: its index (1-based) and ordered eigenvalue labels."""

    index: int
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.values) < 2:
            raise ValueError("a DoF needs at least two eigenvalues")
        if len(set(self.values)) != len(self.values):
            raise ValueError("eigenvalue labels must be distinct")

    @property
    def dim(self):
        return len(self.values)


class Ket(NamedTuple):
    """Single-particle basis ket: spatial region plus (dof_index, value) pairs.

    A tuple (``len`` 2, iterable) whose hash, equality and ordering are
    those of ``(region, dofs)``.
    """

    region: str
    dofs: tuple = ()

    def value(self, index):
        for i, v in self.dofs:
            if i == index:
                return v
        return None

    def drop(self, index):
        """Copy of this ket without DoF `index` (the region label is kept)."""
        return Ket(self.region, tuple(p for p in self.dofs if p[0] != index))


def canonical(kets, eta):
    """Sort a ket tuple into canonical order.

    Returns ``(sorted_tuple, sign)`` where the sign is the fermionic parity of
    the sorting permutation (+1 for bosons / distinguishable).  Fermionic tuples
    with a repeated ket get sign 0 (Pauli exclusion).
    """
    kets = tuple(kets)
    if eta == DISTINGUISHABLE:
        return kets, 1
    sorted_kets = tuple(sorted(kets))
    if eta == BOSON:
        return sorted_kets, 1
    if len(set(kets)) != len(kets):
        return sorted_kets, 0
    # on distinct kets, the inversions of the sequence are those of the
    # sorting permutation
    inv = sum(a > b for i, a in enumerate(kets) for b in kets[i + 1:])
    return sorted_kets, -1 if inv % 2 else 1


def tuple_overlap(s, t, eta):
    """<s|t> for canonical ket tuples: the Gram factor of `s` if equal, else 0.

    Holds only for canonical tuples (see `canonical`); `SymState`,
    `to_density` and the trace rules produce no others.
    """
    if s != t:
        return 0.0
    if eta != BOSON or len(set(s)) == len(s):
        return 1.0
    # sorted, so the repeats of each ket are one run
    return float(math.prod(math.factorial(len(list(run)))
                           for _, run in itertools.groupby(s)))


@dataclass
class SymState:
    """Sparse pure state: amplitude per canonical tuple of kets.

    `eta` is +1 (bosons), -1 (fermions) or 0 (distinguishable, slot = label).
    """

    eta: int
    terms: dict
    dof_specs: tuple = ()

    def __post_init__(self):
        merged = {}
        for kets, amp in self.terms.items():
            kets, sign = canonical(kets, self.eta)
            if sign == 0:
                continue
            amp = complex(amp) * sign
            if abs(amp) == 0.0:
                continue
            merged[kets] = merged.get(kets, 0.0) + amp
        self.terms = {k: v for k, v in merged.items() if v != 0}

    @property
    def n_particles(self):
        for kets in self.terms:
            return len(kets)
        return 0

    @property
    def n_dofs(self):
        idx = {i for kets in self.terms for k in kets for i, _ in k.dofs}
        return len(idx)

    def scaled(self, factor):
        """This state with every amplitude times `factor`.

        Relies on the terms being canonical, which holds by construction, so
        the result keeps them as they are; as the constructor does, it adds
        each amplitude to 0.0 and keeps exactly the non-zero ones.
        """
        out = SymState(self.eta, {}, self.dof_specs)
        out.terms = {k: amp for k, v in self.terms.items()
                     if (amp := 0.0 + complex(v * factor)) != 0}
        return out

    # -- serialization -------------------------------------------------------

    def to_json(self):
        def enc(kets):
            return [[k.region, [list(p) for p in k.dofs]] for k in kets]
        return json.dumps({
            "eta": {eta: kind for kind, eta in ETA_OF_KIND.items()}[self.eta],
            "dof_specs": [[d.index, list(d.values)] for d in self.dof_specs],
            "terms": [{"kets": enc(k), "re": v.real, "im": v.imag}
                      for k, v in sorted(self.terms.items())],
        })

    @staticmethod
    def from_json(doc):
        data = json.loads(doc)
        eta = ETA_OF_KIND[data["eta"]]
        specs = tuple(DofSpec(i, tuple(v)) for i, v in data.get("dof_specs", []))
        terms = {}
        for t in data["terms"]:
            kets = tuple(Ket(r, tuple((int(i), v) for i, v in dofs))
                         for r, dofs in t["kets"])
            terms[kets] = complex(t["re"], t["im"])
        return SymState(eta, terms, specs)


def symmetric_inner(a, b):
    """Symmetric inner product <a|b> of two states over the same DoF layout."""
    if a.eta != b.eta:
        raise ShapeError("statistics flags differ")
    if a.dof_specs and b.dof_specs and a.dof_specs != b.dof_specs:
        raise ShapeError("DoF layouts differ")
    if a.n_particles and b.n_particles and a.n_particles != b.n_particles:
        raise ShapeError("particle numbers differ")
    total = 0.0 + 0.0j
    for s, amp_s in a.terms.items():
        amp_t = b.terms.get(s)
        if amp_t is not None:
            total += amp_s.conjugate() * amp_t * tuple_overlap(s, s, a.eta)
    return complex(total)


def norm_squared(s):
    return symmetric_inner(s, s).real


def normalize(s):
    """Rescale to unit norm under the symmetric inner product."""
    n2 = norm_squared(s)
    if n2 <= 1e-24:
        raise DegenerateStateError("state has zero norm")
    return s.scaled(1.0 / math.sqrt(n2))


@dataclass
class DensityMatrix:
    """Dense Hermitian matrix over an explicit ordered basis of ket tuples.

    Canonical tuples are treated as an orthonormal basis; amplitudes of bunched
    bosonic tuples are rescaled by sqrt(<S|S>) when a pure state is densified, so
    matrix traces coincide with physical norms.
    """

    basis: tuple
    data: np.ndarray
    eta: int
    dof_specs: tuple = ()
    n_dofs_orig: int = 0

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=complex)
        if self.data.shape != (len(self.basis), len(self.basis)):
            raise ShapeError("matrix shape does not match basis size")

    @property
    def trace(self):
        return float(np.trace(self.data).real)

    def check(self):
        """Validate hermiticity, unit trace and positivity; returns self."""
        if not np.allclose(self.data, self.data.conj().T, atol=_ATOL):
            raise ValueError("matrix is not Hermitian")
        if abs(self.trace - 1.0) > _ATOL:
            raise ValueError("trace differs from 1")
        if np.linalg.eigvalsh(self.data).min() < -_ATOL:
            raise ValueError("matrix has a negative eigenvalue")
        return self

    def value_order(self, dof_index):
        return value_order(self.basis, self.dof_specs, dof_index)

    def to_json(self):
        def enc(kets):
            return [[k.region, [list(p) for p in k.dofs]] for k in kets]
        return json.dumps({
            "basis": [enc(k) for k in self.basis],
            "re": np.real(self.data).tolist(),
            "im": np.imag(self.data).tolist(),
        })

    def to_csv(self):
        """Row-major CSV with re/im interleaved."""
        return matrix_csv(self.data)


def value_order(basis, dof_specs, dof_index):
    """Eigenvalue labels of DoF `dof_index`: declared in `dof_specs`, else
    the sorted values the basis carries."""
    spec = {d.index: d for d in dof_specs}.get(dof_index)
    if spec is not None:
        return list(spec.values)
    return sorted({k.value(dof_index) for kets in basis for k in kets
                   if k.value(dof_index) is not None})


def matrix_csv(matrix):
    """Row-major CSV of a complex matrix, re/im interleaved, each as repr."""
    return "\n".join(",".join(repr(float(x)) for z in row
                              for x in (z.real, z.imag))
                     for row in matrix) + "\n"


def to_density(s):
    """Rank-1 density matrix of a normalized pure state."""
    basis = tuple(sorted(s.terms))
    v = np.array([s.terms[b] * math.sqrt(tuple_overlap(b, b, s.eta))
                  for b in basis], dtype=complex)
    data = np.outer(v, v.conj())
    return DensityMatrix(basis, data, s.eta, s.dof_specs, s.n_dofs)


def mix(states):
    """Convex combination of (weight, DensityMatrix) pairs on a merged basis."""
    if not states:
        raise ValueError("empty ensemble")
    weights = [w for w, _ in states]
    if any(w < -1e-12 for w in weights):
        raise ValueError("negative weight")
    if abs(sum(weights) - 1.0) > 1e-9:
        raise ValueError("weights must sum to 1")
    basis = sorted({b for _, dm in states for b in dm.basis})
    index = {b: i for i, b in enumerate(basis)}
    data = np.zeros((len(basis), len(basis)), dtype=complex)
    eta = states[0][1].eta
    specs = states[0][1].dof_specs
    ndof = max(dm.n_dofs_orig for _, dm in states)
    for w, dm in states:
        if dm.eta != eta:
            raise ShapeError("cannot mix different statistics")
        idx = [index[b] for b in dm.basis]
        data[np.ix_(idx, idx)] += w * dm.data
    return DensityMatrix(tuple(basis), data, eta, specs, ndof)
