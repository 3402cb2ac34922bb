"""Two-qubit entanglement measures and monogamy reports.

Concurrence, negativity / log-negativity and the tangle operate on plain
two-qubit (4x4) or one-qubit (2x2) numpy density matrices, von Neumann
entropy on a density matrix of any size.  The monogamy machinery compares
the squared pairwise concurrences of a three-subsystem state against the
one-vs-rest tangle 4 det(rho_A), classifying the outcome as holding, equality,
violated, or maximally violated.

One table, `CATALOGUE`, describes the thirteen ways three overlapping
particles (each with several DoFs) can share eigenstates or superpositions,
one row per case with its expected concurrence pattern.  A small case engine
draws a row's free parameters, builds the region-labelled state, and runs the
full projection / trace / concurrence pipeline on it.
"""

from __future__ import annotations

import functools
import itertools as it
import math
from dataclasses import dataclass, field

import numpy as np

from .states import (BOSON, DegenerateStateError, DofSpec, Ket, SymState,
                     normalize, to_density)
from .trace import Subsystem, project_one_per_region, to_qubit_array, trace_dof_indist, trace_region

_SY = np.array([[0, -1j], [1j, 0]])
_SYSY = np.kron(_SY, _SY)

_TOL = 1e-9


def _check_density(rho, dim, stack=False):
    """A finite, Hermitian, positive dim x dim `rho` over its real trace; with
    `stack`, also each matrix of a (k, dim, dim) stack, checked alone.

    The matrix is divided by its |trace| first, so c * rho gets the verdict
    of rho for every c > 0; a trace of at most 1e-12 times the largest
    |entry|, zero for a zero matrix, raises DegenerateStateError.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (dim, dim) or rho.ndim > 2 + stack:
        raise ValueError(f"expected a {dim}x{dim} matrix")
    if not np.isfinite(rho).all():
        raise ValueError("matrix has non-finite entries")
    tr = np.abs(np.trace(rho, axis1=-2, axis2=-1).real)
    if (tr <= 1e-12 * np.abs(rho).max(axis=(-2, -1))).any():
        raise DegenerateStateError("zero-trace matrix")
    rho = rho / tr[..., None, None]
    # np.allclose's test on finite input, minus its wrappers
    adj = rho.conj().swapaxes(-1, -2)
    if not (np.abs(rho - adj) <= 1e-7 + 1e-5 * np.abs(adj)).all():
        raise ValueError("matrix is not Hermitian")
    # a negative trace leaves eigenvalues summing to -1 here: refused
    if np.linalg.eigvalsh(rho).min() < -1e-7:
        raise ValueError("matrix is not positive semidefinite")
    return rho


def _sqrtm_psd(rho):
    w, v = np.linalg.eigh(rho)
    w = np.sqrt(np.clip(w, 0.0, None))
    return (v * w[..., None, :]) @ v.conj().swapaxes(-1, -2)


def _flip_eigenvalues(rho):
    # eigenvalues of rho rho~ via the Hermitian similar matrix
    # sqrt(rho) rho~ sqrt(rho); non-normal eigensolves lose digits here
    tilde = _SYSY @ rho.conj() @ _SYSY
    root = _sqrtm_psd(rho)
    lams = np.linalg.eigvalsh(root @ tilde @ root)
    return np.sort(lams)[..., ::-1]


def concurrence(rho):
    """Wootters concurrence of a two-qubit density matrix.

    `rho` is one 4x4 matrix, for which a float is returned, or a (k, 4, 4)
    stack, for which the k values are; each value is the one its matrix
    gets alone.
    """
    rho = _check_density(rho, 4, stack=True)
    lams = np.clip(_flip_eigenvalues(rho), -1e-12, None)
    # eigensolve noise on exact zeros would cost sqrt(eps) in the result
    lams[lams < 1e-13 * np.maximum(lams.max(axis=-1, keepdims=True), 1.0)] = 0.0
    roots = np.sqrt(np.clip(lams, 0.0, None))
    values = np.maximum(0.0, roots[..., 0] - roots[..., 1] - roots[..., 2]
                        - roots[..., 3])
    return float(values) if rho.ndim == 2 else values


def negativity(rho):
    """(||rho^{T_B}||_1 - 1)/2 of a two-qubit density matrix."""
    rho = _check_density(rho, 4)
    pt = rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    trace_norm = float(np.abs(np.linalg.eigvalsh(pt)).sum())
    return (trace_norm - 1.0) / 2.0


def log_negativity(rho):
    return math.log2(2.0 * negativity(rho) + 1.0)


def vn_entropy(rho):
    """von Neumann entropy (natural log) of a density matrix of any size,
    checked by `_check_density` like the other measures: c * rho gives the
    entropy of rho for every c > 0."""
    rho = np.asarray(rho, dtype=complex)
    dim = rho.shape[-1] if rho.ndim else 0
    lams = np.linalg.eigvalsh(_check_density(rho, dim))
    lams = lams[lams > 1e-12]
    return float(-(lams * np.log(lams)).sum())


def _tangle(rho_a):  # 4 det(rho_A) of checked 2x2s, floored as max(0.0, t)
    t = 4.0 * np.linalg.det(rho_a).real
    return np.where(t > 0.0, t, 0.0)


def tangle_one_vs_rest(rho_a):
    """4 det(rho_A): the squared concurrence of a qubit against everything else,
    valid when the global state is pure."""
    return float(_tangle(_check_density(rho_a, 2)))


@dataclass
class MonogamyReport:
    c2_ab: float
    c2_ac: float
    c2_a_bc: float
    audit: dict = field(default_factory=dict)
    verdict: str = field(init=False)

    def __post_init__(self):
        self.residual = self.c2_a_bc - self.c2_ab - self.c2_ac
        if (abs(self.c2_ab - 1.0) <= _TOL and abs(self.c2_ac - 1.0) <= _TOL
                and self.residual < -_TOL):
            self.verdict = "violated_maximally"
        elif self.residual < -_TOL:
            self.verdict = "violated"
        elif abs(self.residual) <= _TOL:
            self.verdict = "equality"
        else:
            self.verdict = "holds"

    def to_dict(self):
        out = {"c2_ab": self.c2_ab, "c2_ac": self.c2_ac,
               "c2_a_bc": self.c2_a_bc, "residual": self.residual,
               "verdict": self.verdict}
        if self.audit:
            out["audit"] = {k: list(v) for k, v in self.audit.items()}
        return out

    def to_json(self):
        import json
        return json.dumps(self.to_dict(), sort_keys=True)


def _reduced_triple(dm, sub_a, sub_b, sub_c):
    """(rho_ab, rho_ac, rho_a) of `dm` as qubit arrays."""
    regions = {k.region for kets in dm.basis for k in kets}
    dofs_at = {r: sorted({i for kets in dm.basis for k in kets
                          if k.region == r for i, _ in k.dofs})
               for r in regions}

    @functools.cache
    def without(traced):  # `dm` with the regions `traced` traced out in order
        return dm if not traced else trace_region(without(traced[:-1]), traced[-1])

    def reduce_to(subs):
        wanted = {(s.region, s.dof_index) for s in subs}
        used_regions = {s.region for s in subs}
        reduced = without(tuple(sorted(regions - used_regions)))
        for r in sorted(used_regions):
            for i in dofs_at[r]:
                if (r, i) not in wanted:
                    reduced = trace_dof_indist(reduced, Subsystem(r, i))
        return to_qubit_array(reduced)

    return reduce_to([sub_a, sub_b]), reduce_to([sub_a, sub_c]), reduce_to([sub_a])


def _monogamy_reports(triples):
    """One MonogamyReport per (rho_ab, rho_ac, rho_a) triple, all measured as
    one stack; numpy's stacked routines solve each matrix on its own, so every
    value is the bits its triple gets alone."""
    pairs = np.array([rho for ab, ac, _ in triples for rho in (ab, ac)])
    rho_a = np.array([a for _, _, a in triples])
    c2 = [c ** 2 for c in concurrence(pairs).tolist()]
    # audit spectra: `_flip_eigenvalues` of each checked pair over its trace
    flips = _flip_eigenvalues(
        pairs / np.trace(pairs, axis1=1, axis2=2).real[:, None, None]).tolist()
    tangles = _tangle(_check_density(rho_a, 2, stack=True)).tolist()
    return [MonogamyReport(ab, ac, tangle, {"flip_spectrum_ab": f_ab,
                                            "flip_spectrum_ac": f_ac,
                                            "marginal_spectrum_a": spectrum})
            for ab, ac, f_ab, f_ac, tangle, spectrum in zip(
                c2[::2], c2[1::2], flips[::2], flips[1::2], tangles,
                np.linalg.eigvalsh(rho_a).tolist())]


def monogamy_report(dm, sub_a, sub_b, sub_c):
    """Monogamy report for three single-DoF subsystems of a pure global state.

    `dm` must be the density matrix of a pure state, already projected onto the
    one-particle-per-region sector.  Each subsystem names a region and a DoF;
    two subsystems may share a region (inter-DoF splitting).
    """
    return _monogamy_reports([_reduced_triple(dm, sub_a, sub_b, sub_c)])[0]


def monogamy_report_qubits(psi):
    """CKW report for a plain three-qubit pure state vector (distinguishable)."""
    psi = np.asarray(psi, dtype=complex).reshape(2, 2, 2)
    psi = psi / np.linalg.norm(psi)
    rho = np.einsum("abc,xyz->abcxyz", psi, psi.conj())
    rho_ab = np.einsum("abcxyc->abxy", rho).reshape(4, 4)
    rho_ac = np.einsum("abcxbz->acxz", rho).reshape(4, 4)
    rho_a = np.einsum("abcxbc->ax", rho)
    return MonogamyReport(concurrence(rho_ab) ** 2, concurrence(rho_ac) ** 2,
                          tangle_one_vs_rest(rho_a))


def mixed_monogamy_check(ensemble):
    """Convexity check for an ensemble of three-qubit pure states.

    Verifies C2_ab(rho) + C2_ac(rho) <= sum_m w_m C2_{a|bc}(psi_m) and returns
    (report_of_the_mixture, convex_roof_upper_bound, holds).
    """
    weights = np.array([w for w, _ in ensemble], dtype=float)
    if abs(weights.sum() - 1.0) > 1e-9 or (weights < -1e-12).any():
        raise ValueError("weights must be convex")
    vecs = [np.asarray(v, dtype=complex).reshape(8) for _, v in ensemble]
    vecs = [v / np.linalg.norm(v) for v in vecs]
    rho = sum(w * np.outer(v, v.conj()) for w, v in zip(weights, vecs))
    t = rho.reshape(2, 2, 2, 2, 2, 2)
    rho_ab = np.einsum("abcxyc->abxy", t).reshape(4, 4)
    rho_ac = np.einsum("abcxbz->acxz", t).reshape(4, 4)
    ab = concurrence(rho_ab) ** 2
    ac = concurrence(rho_ac) ** 2
    roof = 0.0
    for w, v in zip(weights, vecs):
        psi = v.reshape(2, 2, 2)
        rho_a = np.einsum("abc,xbc->ax", psi, psi.conj())
        roof += w * tangle_one_vs_rest(rho_a)
    return MonogamyReport(ab, ac, roof), roof, bool(ab + ac <= roof + 1e-9)


# -- three-particle case engine -----------------------------------------------

SPIN = DofSpec(1, ("dn", "up"))
ORBITAL = DofSpec(2, ("+l", "-l"))
PATH3 = DofSpec(3, ("T", "R"))

_DOFS = {1: SPIN, 2: ORBITAL, 3: PATH3}
_REGIONS = ("r1", "r2", "r3")


@dataclass
class ThreeParticleCase:
    """One row of the three-particle indistinguishability catalogue.

    `particles` lists, per particle, the index of the DoF its internal state is
    prepared in and the (c0, c1) amplitudes over that DoF's two eigenvalues.
    `measured` gives the DoF index each region is read out in.  `weights` are
    the free amplitudes over the allowed placement configurations.
    """

    case_id: int
    particles: tuple
    measured: tuple
    weights: tuple

    def __post_init__(self):
        for _, (c0, c1) in self.particles:
            if abs(abs(c0) ** 2 + abs(c1) ** 2 - 1.0) > 1e-9:
                raise ValueError("superposition weights must be normalized")


def _case_configs(case):
    """Allowed particle->region placements for a catalogue case.

    Only placements matching each region's measured DoF are physical.  Within
    those, mobility is restricted to keep the span free of genuinely
    three-way (GHZ-type) residual entanglement, which is what makes the
    catalogue's pairwise-plus-tangle bookkeeping additive for every pure
    member:

    * two identical particles + one odd particle: the odd one occupies every
      DoF-compatible region (odd-one-out class, up to three placements);
    * three mutually distinct particles with two prepared in the same DoF:
      that pair exchanges, the third stays put (two placements);
    * three distinct DoFs: everyone stays at the preparation region.
    """
    parts = case.particles
    n = len(parts)
    identity = tuple(range(n))
    # identical pair present -> odd-one-out mobility
    for d in range(n):
        others = [parts[i] for i in range(n) if i != d]
        if others[0] == others[1] and parts[d] != others[0]:
            other_idx = [i for i in range(n) if i != d]
            configs = []
            for target in range(n - 1, -1, -1):  # identity placement first
                if case.measured[target] != parts[d][0]:
                    continue
                perm = [None] * n
                perm[target] = d
                pool = list(other_idx)
                for r in range(n):
                    if perm[r] is None:
                        perm[r] = pool.pop(0)
                if all(case.measured[r] == parts[perm[r]][0] for r in range(n)):
                    configs.append(tuple(perm))
            return configs or [identity]
    if len(set(parts)) == 1:
        return [identity]
    # all distinct: exchange the same-DoF pair if there is one
    by_dof = {}
    for i, (d, _) in enumerate(parts):
        by_dof.setdefault(d, []).append(i)
    pair = next((idx[:2] for idx in by_dof.values() if len(idx) >= 2), None)
    if pair is None:
        return [identity]
    i, j = pair
    if case.measured[i] != case.measured[j] or case.measured[i] != parts[i][0]:
        return [identity]
    swapped = list(identity)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    return [identity, tuple(swapped)]


def case_state(case):
    """Region-labelled pure state of a catalogue case (bosonic statistics)."""
    configs = _case_configs(case)
    if len(case.weights) != len(configs):
        raise ValueError(f"case {case.case_id}: expected {len(configs)} weights, "
                         f"got {len(case.weights)}")
    all_dofs = sorted({d for d, _ in case.particles} | set(case.measured))
    terms = {}
    for w, perm in zip(case.weights, configs):
        # expand each particle's superposition over its prepared DoF
        slots = []
        for region_idx, particle_idx in enumerate(perm):
            d, (c0, c1) = case.particles[particle_idx]
            options = []
            for coeff, value in ((c0, _DOFS[d].values[0]), (c1, _DOFS[d].values[1])):
                if coeff != 0:
                    dof_pairs = []
                    for dd in all_dofs:
                        v = value if dd == d else _DOFS[dd].values[0]
                        dof_pairs.append((dd, v))
                    options.append((coeff, Ket(_REGIONS[region_idx], tuple(dof_pairs))))
            slots.append(options)
        for combo in it.product(*slots):
            amp = w * math.prod([c for c, _ in combo], start=1.0 + 0j)
            kets = tuple(k for _, k in combo)
            terms[kets] = terms.get(kets, 0.0) + amp
    specs = tuple(_DOFS[d] for d in all_dofs)
    return normalize(SymState(BOSON, terms, specs))


def three_particle_cases(cases):
    """Run catalogue cases through the projection/trace/concurrence pipeline:
    each case is reduced on its own, then all are measured as one stack.
    Returns one (MonogamyReport, pattern) per case; the pattern marks each of
    the three squared concurrences as 'zero' or 'nonneg'."""
    triples = []
    for case in cases:
        dm = project_one_per_region(to_density(case_state(case)), _REGIONS)
        triples.append(_reduced_triple(
            dm, *(Subsystem(r, m) for r, m in zip(_REGIONS, case.measured))))
    return [(rep, tuple("zero" if v <= 1e-9 else "nonneg"
                        for v in (rep.c2_ab, rep.c2_ac, rep.c2_a_bc)))
            for rep in _monogamy_reports(triples)]


def _phased(rng):
    x = rng.uniform(0.15, 0.85)
    return (math.sqrt(x), math.sqrt(1 - x) * np.exp(1j * rng.uniform(0, 2 * math.pi)))


# The catalogue, one row per case: each particle's (prepared DoF, state), the
# DoF each region reads, and the expected zero/nonneg pattern of
# (C2_ab, C2_ac, C2_a|bc); 'nonneg' terms may come out zero at special
# parameters.  A state is an eigenstate 'e0' or 'e1', 'new' for a fresh
# random superposition, or 'chi' for one superposition the row shares.
CATALOGUE = {
    1: (((1, "e0"), (1, "e0"), (1, "e0")), (1, 1, 1), ("zero", "zero", "zero")),
    2: (((1, "e0"), (1, "e0"), (1, "e1")), (1, 1, 1), ("nonneg", "nonneg", "nonneg")),
    3: (((1, "e0"), (1, "e0"), (2, "e0")), (1, 1, 2), ("zero", "zero", "zero")),
    4: (((1, "e0"), (1, "e1"), (2, "e0")), (1, 1, 2), ("nonneg", "zero", "nonneg")),
    5: (((1, "e0"), (3, "e0"), (2, "e0")), (1, 3, 2), ("zero", "zero", "zero")),
    6: (((1, "e0"), (1, "e0"), (1, "new")), (1, 1, 1), ("nonneg", "nonneg", "nonneg")),
    7: (((1, "e0"), (1, "e1"), (1, "new")), (1, 1, 1), ("nonneg", "zero", "nonneg")),
    8: (((1, "chi"), (1, "chi"), (1, "chi")), (1, 1, 1), ("zero", "zero", "zero")),
    9: (((1, "new"), (1, "new"), (1, "new")), (1, 1, 1), ("nonneg", "zero", "nonneg")),
    10: (((1, "e0"), (1, "e0"), (2, "new")), (1, 1, 2), ("zero", "zero", "zero")),
    11: (((1, "e0"), (1, "e1"), (2, "new")), (1, 1, 2), ("nonneg", "zero", "nonneg")),
    12: (((1, "e0"), (1, "new"), (2, "new")), (1, 1, 2), ("nonneg", "zero", "nonneg")),
    13: (((1, "new"), (3, "new"), (2, "new")), (1, 3, 2), ("zero", "zero", "zero")),
}


def random_case(case_id, rng):
    """Random parameterization of catalogue case 1..13: superpositions are
    drawn particle by particle, then the configuration weights."""
    if case_id not in CATALOGUE:
        raise ValueError("case_id must be 1..13")
    row, meas, _ = CATALOGUE[case_id]
    amps = {"e0": (1.0, 0.0), "e1": (0.0, 1.0)}
    parts = []
    for dof, state in row:
        c = amps[state] if state in amps else _phased(rng)
        if state == "chi":
            amps[state] = c
        parts.append((dof, c))
    parts = tuple(parts)

    def weights(k):
        w = rng.normal(size=k) + 1j * rng.normal(size=k)
        return tuple(w / np.linalg.norm(w))

    # the probe's weight is never used, but its draw stays: every seeded
    # `cases` record depends on the rng state it leaves
    probe = ThreeParticleCase(case_id, parts, meas, weights(1))
    k = len(_case_configs(probe))
    return ThreeParticleCase(case_id, parts, meas, weights(k))
