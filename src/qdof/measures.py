"""Two-qubit entanglement measures and monogamy reports.

Concurrence, negativity / log-negativity and von Neumann entropy operate on
plain 4x4 (or 2x2) numpy density matrices.  The monogamy machinery compares
the squared pairwise concurrences of a three-subsystem state against the
one-vs-rest tangle 4 det(rho_A), classifying the outcome as holding, equality,
violated, or maximally violated.

A small case engine enumerates the thirteen ways three overlapping particles
(each with several DoFs) can share eigenstates or superpositions, builds the
corresponding region-labelled states, and runs the full projection / trace /
concurrence pipeline on them.
"""

from __future__ import annotations

import itertools as it
import math
from dataclasses import dataclass, field

import numpy as np

from .states import BOSON, DofSpec, Ket, SymState, normalize, to_density
from .trace import Subsystem, project_one_per_region, to_qubit_array, trace_dof_indist, trace_region

_SY = np.array([[0, -1j], [1j, 0]])
_SYSY = np.kron(_SY, _SY)

_TOL = 1e-9


def _check_density(rho, dim, atol=1e-7):
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} matrix")
    if not np.allclose(rho, rho.conj().T, atol=atol):
        raise ValueError("matrix is not Hermitian")
    if np.linalg.eigvalsh(rho).min() < -1e-7:
        raise ValueError("matrix is not positive semidefinite")
    return rho / np.trace(rho).real


def _sqrtm_psd(rho):
    w, v = np.linalg.eigh(rho)
    w = np.sqrt(np.clip(w, 0.0, None))
    return (v * w) @ v.conj().T


def _flip_eigenvalues(rho):
    # eigenvalues of rho rho~ via the Hermitian similar matrix
    # sqrt(rho) rho~ sqrt(rho); non-normal eigensolves lose digits here
    tilde = _SYSY @ rho.conj() @ _SYSY
    root = _sqrtm_psd(rho)
    lams = np.linalg.eigvalsh(root @ tilde @ root)
    return np.sort(lams)[::-1]


def concurrence(rho):
    """Wootters concurrence of a two-qubit density matrix."""
    rho = _check_density(rho, 4)
    lams = np.clip(_flip_eigenvalues(rho), -1e-12, None)
    # eigensolve noise on exact zeros would cost sqrt(eps) in the result
    lams[lams < 1e-13 * max(lams.max(), 1.0)] = 0.0
    roots = np.sqrt(np.clip(lams, 0.0, None))
    return float(max(0.0, roots[0] - roots[1] - roots[2] - roots[3]))


def spin_flip_spectrum(rho):
    """Eigenvalues of rho (sy x sy) rho* (sy x sy), descending."""
    rho = _check_density(rho, 4)
    return _flip_eigenvalues(rho)


def _partial_transpose(rho, dims=(2, 2)):
    da, db = dims
    r = rho.reshape(da, db, da, db)
    return r.transpose(0, 3, 2, 1).reshape(da * db, da * db)


def negativity(rho, dims=(2, 2)):
    """(||rho^{T_B}||_1 - 1)/2 for a bipartite matrix with the given dims."""
    rho = _check_density(rho, dims[0] * dims[1])
    pt = _partial_transpose(rho, dims)
    trace_norm = float(np.abs(np.linalg.eigvalsh(pt)).sum())
    return (trace_norm - 1.0) / 2.0


def log_negativity(rho, dims=(2, 2)):
    return math.log2(2.0 * negativity(rho, dims) + 1.0)


def vn_entropy(rho):
    """von Neumann entropy (natural log) of a density matrix of any size."""
    rho = np.asarray(rho, dtype=complex)
    lams = np.linalg.eigvalsh(rho).real
    lams = lams[lams > 1e-12]
    return float(-(lams * np.log(lams)).sum())


def tangle_one_vs_rest(rho_a):
    """4 det(rho_A): the squared concurrence of a qubit against everything else,
    valid when the global state is pure."""
    rho_a = _check_density(rho_a, 2)
    return float(max(0.0, 4.0 * np.linalg.det(rho_a).real))


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


def monogamy_report(dm, sub_a, sub_b, sub_c):
    """Monogamy report for three single-DoF subsystems of a pure global state.

    `dm` must be the density matrix of a pure state, already projected onto the
    one-particle-per-region sector.  Each subsystem names a region and a DoF;
    two subsystems may share a region (inter-DoF splitting).
    """
    regions = {k.region for kets in dm.basis for k in kets}
    dofs_at = {r: sorted({i for kets in dm.basis for k in kets
                          if k.region == r for i, _ in k.dofs})
               for r in regions}

    def reduce_to(subs):
        wanted = {(s.region, s.dof_index) for s in subs}
        used_regions = {s.region for s in subs}
        reduced = dm
        for r in sorted(regions - used_regions):
            reduced = trace_region(reduced, r)
        for r in sorted(used_regions):
            for i in dofs_at[r]:
                if (r, i) not in wanted:
                    reduced = trace_dof_indist(reduced, Subsystem(r, i))
        return reduced

    rho_ab = to_qubit_array(reduce_to([sub_a, sub_b]), None)
    rho_ac = to_qubit_array(reduce_to([sub_a, sub_c]), None)
    rho_a = to_qubit_array(reduce_to([sub_a]), None)
    c2_ab = concurrence(rho_ab) ** 2
    c2_ac = concurrence(rho_ac) ** 2
    audit = {"flip_spectrum_ab": spin_flip_spectrum(rho_ab).tolist(),
             "flip_spectrum_ac": spin_flip_spectrum(rho_ac).tolist(),
             "marginal_spectrum_a": np.linalg.eigvalsh(rho_a).tolist()}
    return MonogamyReport(c2_ab, c2_ac, tangle_one_vs_rest(rho_a), audit)


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
    lhs = concurrence(rho_ab) ** 2 + concurrence(rho_ac) ** 2
    roof = 0.0
    for w, v in zip(weights, vecs):
        psi = v.reshape(2, 2, 2)
        rho_a = np.einsum("abc,xbc->ax", psi, psi.conj())
        roof += w * tangle_one_vs_rest(rho_a)
    ab = concurrence(rho_ab) ** 2
    ac = concurrence(rho_ac) ** 2
    return MonogamyReport(ab, ac, roof), roof, bool(lhs <= roof + 1e-9)


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
    expected_pattern: tuple = ()

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
                if abs(coeff) > 1e-15:
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


def three_particle_case(case):
    """Run a catalogue case through the projection/trace/concurrence pipeline.

    Returns (MonogamyReport, pattern) where the pattern marks each of the three
    squared concurrences as 'zero' or 'nonneg'.
    """
    state = case_state(case)
    dm = project_one_per_region(to_density(state), _REGIONS)
    subs = [Subsystem(r, m) for r, m in zip(_REGIONS, case.measured)]
    report = monogamy_report(dm, *subs)
    pattern = tuple("zero" if v <= 1e-9 else "nonneg"
                    for v in (report.c2_ab, report.c2_ac, report.c2_a_bc))
    return report, pattern


def _phased(rng):
    x = rng.uniform(0.15, 0.85)
    return (math.sqrt(x), math.sqrt(1 - x) * np.exp(1j * rng.uniform(0, 2 * math.pi)))


def random_case(case_id, rng):
    """Random parameterization of catalogue case 1..13."""
    e0 = (1.0, 0.0)
    e1 = (0.0, 1.0)

    def weights(k):
        w = rng.normal(size=k) + 1j * rng.normal(size=k)
        return tuple(w / np.linalg.norm(w))

    if case_id == 1:
        parts, meas = ((1, e0), (1, e0), (1, e0)), (1, 1, 1)
    elif case_id == 2:
        parts, meas = ((1, e0), (1, e0), (1, e1)), (1, 1, 1)
    elif case_id == 3:
        parts, meas = ((1, e0), (1, e0), (2, e0)), (1, 1, 2)
    elif case_id == 4:
        parts, meas = ((1, e0), (1, e1), (2, e0)), (1, 1, 2)
    elif case_id == 5:
        parts, meas = ((1, e0), (3, e0), (2, e0)), (1, 3, 2)
    elif case_id == 6:
        parts, meas = ((1, e0), (1, e0), (1, _phased(rng))), (1, 1, 1)
    elif case_id == 7:
        parts, meas = ((1, e0), (1, e1), (1, _phased(rng))), (1, 1, 1)
    elif case_id == 8:
        chi = _phased(rng)
        parts, meas = ((1, chi), (1, chi), (1, chi)), (1, 1, 1)
    elif case_id == 9:
        parts, meas = ((1, _phased(rng)), (1, _phased(rng)), (1, _phased(rng))), (1, 1, 1)
    elif case_id == 10:
        parts, meas = ((1, e0), (1, e0), (2, _phased(rng))), (1, 1, 2)
    elif case_id == 11:
        parts, meas = ((1, e0), (1, e1), (2, _phased(rng))), (1, 1, 2)
    elif case_id == 12:
        parts, meas = ((1, e0), (1, _phased(rng)), (2, _phased(rng))), (1, 1, 2)
    elif case_id == 13:
        parts, meas = ((1, _phased(rng)), (3, _phased(rng)), (2, _phased(rng))), (1, 3, 2)
    else:
        raise ValueError("case_id must be 1..13")
    probe = ThreeParticleCase(case_id, parts, meas, weights(1))
    k = len(_case_configs(probe))
    return ThreeParticleCase(case_id, parts, meas, weights(k))


# expected zero/nonneg pattern per catalogue row (first two pairwise terms and
# the one-vs-rest term); 'nonneg' rows may come out zero at special parameters
CASE_PATTERNS = {
    1: ("zero", "zero", "zero"),
    2: ("nonneg", "nonneg", "nonneg"),
    3: ("zero", "zero", "zero"),
    4: ("nonneg", "zero", "nonneg"),
    5: ("zero", "zero", "zero"),
    6: ("nonneg", "nonneg", "nonneg"),
    7: ("nonneg", "zero", "nonneg"),
    8: ("zero", "zero", "zero"),
    9: ("nonneg", "zero", "nonneg"),
    10: ("zero", "zero", "zero"),
    11: ("nonneg", "zero", "nonneg"),
    12: ("nonneg", "zero", "nonneg"),
    13: ("zero", "zero", "zero"),
}


def z_form_pair(z2, z3):
    """Closed-form squared concurrence between the first two regions of the
    one-odd-spin state with placement amplitudes (z1, z2, z3), real-parameter
    form."""
    t = 2 * abs(z2 * z3) ** 2 + (z2 ** 2 * np.conj(z3) ** 2).real * 2
    cross = abs(abs(z2 * z3) ** 2 - z2 ** 2 * z3 ** 2) ** 2
    return float(t - 2 * cross)


def z_form_tangle(z3):
    """Closed-form one-vs-rest squared concurrence 4 (1-|z3|^2) |z3|^2."""
    a = abs(z3) ** 2
    return float(4.0 * (1.0 - a) * a)
