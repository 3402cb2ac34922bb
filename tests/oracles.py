"""Numerical oracles for the closed forms in `qdof`.

The fully entangled fraction of a two-qubit state is the maximal overlap
<psi_U| rho |psi_U> over the maximally entangled states
|psi_U> = (1 x U)|Phi+>, U in U(2).  `qdof.fidelity.singlet_fraction` computes
it in closed form; two routines here maximize the overlap directly over a
3-angle parameterization of U, by multi-start local optimization and by a
refined grid, so the tests can check the closed form against them.
`closed_form_singlet_fraction` is the closed form as it was first written,
the signed singular values of the correlation matrix, one 4x4 product per
entry; the library's magic-basis eigenvalue over a stack must agree with it
within 1e-14 relative.

`six_run_teleport_fidelity` is `qdof.fidelity.average_teleport_fidelity` as
it was first written: six separate runs of the protocol, each normalizing
the channel and the input again and building its own `np.kron`.  The
library's closed form (2 <Phi+|rho|Phi+> + 1) / 3 must agree with it within
1e-14 relative, and `qdof.fidelity.teleport_output` must give the bytes of
`_six_run_output`, one run.

`werner_grid` is the noise family's pair grid in closed form: every pair of
`two_param_state(p, layout)` is a Werner state p |Phi+><Phi+| + (1 - p) I/4
(indistinguishable layout), or only pair (1, 1) is and every other pair is
I/4 (distinguishable layout).  `unshared_pair_grid` is
`qdof.fidelity._pair_matrices` as it was before a party-1 row equal to an
earlier one reused that row's pair matrices: every row is reduced through
party 2 again, and the library's grid must have its bytes.
`per_point_relation_check` is `qdof.fidelity.relation_check` as it was
before it read every point's grid off its two endpoint grids: it builds
`two_param_state(p, layout)` at every p and reduces it through
`_pair_matrices`, and the library's records must equal its records at 12
significant digits.
`eye_two_param_data` is the noise family's matrix as first written,
p R + (1 - p) I/dim through a dim x dim identity, whose bytes
`two_param_state` must give.  `hardy_q_grid` is `qdof.hardy.hardy_q` over an
angle grid as the maximizer first built it, through the complex amplitude
1/2 cos(theta) cos(chi) (1 - e^{-2i phi}).  `numpy_exp_hardy_q` is
`hardy_q` at one point as it was first written, with numpy's complex
exponential; the library's `cmath.exp` form must give the same bits.

`star_projector_sum` is H_n = sum_j |Phi+><Phi+| on (A_1, B_j), j = 1..n,
over A_1, B_1..B_n; the spectators A_2..A_n only tensor it with their
identity.  Each pair term is maximized over a unitary on B_j alone, which
the vector absorbs, so the supremum of F_g over pure (and, F_g being
convex, mixed) distinguishable states is its top eigenvalue (n + 1)/2.
`star_ceiling_state` is a top eigenvector of it with A_2..A_n in a seeded
random product state, which must read that ceiling through the library's
pair grid.

`pure_vector_grid` is the pair grid of a pure distinguishable vector read off
its amplitudes, without the trace rules: pair (i, j) is M M^dagger, M the
vector with the axes of A_i and B_j moved to the front.
`pure_vector_ascent` maximizes a value of that grid over pure vectors by
L-BFGS-B from seeded starts: `singlet_fraction_ascent` F_g, so that the
tests can check that the distinguishable ceiling 1 + (n - 1)/2 is reached
and never exceeded, and `monogamy_ascent` the largest row ratio of
sum_j C^2(A_i, B_j) to the tangle 4 det rho_{A_i}, over rows whose tangle is
at least 0.1, which must stay at or below 1 (Osborne & Verstraete, PRL 96,
220503, 2006).  A W state on A_1 and B_1..B_n reaches 1, while a row whose
A_i is unentangled is left out, so the ascent cannot settle on one.

`words_signaling_hits` is the hit count of `qdof.protocols.signaling_mc` in
'dofs' mode as it was first written: it draws the Z register's value too and
decodes each detector word, all-equal as the Z basis and anything else as
the X basis.  The library counts the same hits from the X words alone.
`cascade_signaling_exact` is `qdof.protocols.signaling_exact` as it was
first written: an enumeration of the detector words of `sorter_cascade`, one
sorter per DoF, where the library returns the closed form 1 - 2^-N.

`per_case_monogamy_report` is `qdof.measures.monogamy_report` as it was
before the catalogue was measured as one stack: it reduces one state and
measures that one row, with one `concurrence` call on its two pairs, its own
audit spin-flip spectra, marginal spectrum and tangle.
`per_case_three_particle` runs one catalogue case through it.  The library's
stacked `three_particle_cases` must give every field of every record the
same `repr`.  `z_form_pair` and `z_form_tangle` are the closed forms of
catalogue row 2, the one-odd-spin state, that the pipeline must reproduce.

`qdof.states.tuple_overlap` gives the overlap of canonical ket tuples as a
Gram factor; `permutation_overlap` sums the permanent (bosons) or takes the
determinant (fermions) of the single-ket overlap matrix instead, and
`pairwise_inner` is the symmetric inner product over every pair of terms.
`counter_tuple_overlap` is `tuple_overlap` as it was first written, with the
repeats of each ket counted in a `Counter` where the library takes the run
lengths of the sorted tuple; both must give `repr`-equal floats.
`numpy_symmetric_inner` is `qdof.states.symmetric_inner` as it was first
written, conjugating each amplitude with `np.conj`; the library's
`complex.conjugate` must give the same `repr`.

`abs_trace_accepts` is the verdict of `qdof.states._check_density` as it
was before its input gate refused a negative trace: a finite matrix whose
|trace| exceeds 1e-12 times its largest |entry|, divided by that |trace|,
must pass np.allclose's Hermitian test and have no eigenvalue below -1e-7.
The library must accept exactly the matrices it accepts.

`DataclassKet` and `dataclass_canonical` are `qdof.states.Ket` and
`canonical` as they were before a ket became a plain tuple: a frozen,
ordered dataclass that stores the hash of ``(region, dofs)``, sorted by
index with the fermion sign taken from the sorting permutation.  The
library's canonical tuples, signs, hashes and sorted and set orders must be
theirs.
"""

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.optimize import minimize

from qdof.fidelity import (_BELL, _CORRECTION, _PAULI, D, PHI_PLUS,
                           FidelityParams, _each_dof, _pair_matrices,
                           _resource, _singlet_fraction_of, _space,
                           _teleportation_fidelity_of, singlet_fraction,
                           two_param_state)
from qdof.measures import (_REGIONS, MonogamyReport, _flip_eigenvalues,
                           case_state, concurrence)
from qdof.states import (BOSON, DISTINGUISHABLE, FERMION, _check_density,
                         to_density, tuple_overlap)
from qdof.trace import (Subsystem, project_one_per_region, to_qubit_array,
                        trace_dof_dist, trace_dof_indist, trace_region)


def _overlap_matrix(s, t):
    n = len(s)
    m = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            m[i, j] = 1.0 if s[i] == t[j] else 0.0
    return m


def permutation_overlap(s, t, eta):
    """<s|t> for canonical ket tuples: permanent (bosons) or determinant (fermions)."""
    if len(s) != len(t):
        return 0.0
    if eta == DISTINGUISHABLE:
        return 1.0 if s == t else 0.0
    m = _overlap_matrix(s, t)
    if eta == FERMION:
        return float(round(np.linalg.det(m)))
    total = 0.0
    for perm in itertools.permutations(range(len(s))):
        total += math.prod(m[i, perm[i]] for i in range(len(s)))
    return total


def pairwise_inner(a, b):
    """<a|b> summed over every pair of terms with `permutation_overlap`."""
    total = 0.0 + 0.0j
    for s, amp_s in a.terms.items():
        for t, amp_t in b.terms.items():
            g = permutation_overlap(s, t, a.eta)
            if g:
                total += np.conj(amp_s) * amp_t * g
    return complex(total)


def numpy_symmetric_inner(a, b):
    """<a|b> on matching canonical tuples, each amplitude conjugated by `np.conj`."""
    total = 0.0 + 0.0j
    for s, amp_s in a.terms.items():
        amp_t = b.terms.get(s)
        if amp_t is not None:
            total += np.conj(amp_s) * amp_t * tuple_overlap(s, s, a.eta)
    return complex(total)


@dataclass(frozen=True, order=True)
class DataclassKet:
    """Single-particle ket as a frozen, ordered dataclass with a stored hash."""

    region: str
    dofs: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.region, self.dofs)))

    def __hash__(self):
        return self._hash


def dataclass_canonical(kets, eta):
    """(sorted tuple, sign) of `DataclassKet`s, sorted by index."""
    kets = tuple(kets)
    if eta == DISTINGUISHABLE:
        return kets, 1
    order = sorted(range(len(kets)), key=lambda i: kets[i])
    sorted_kets = tuple(kets[i] for i in order)
    if eta == FERMION:
        if len(set(sorted_kets)) != len(sorted_kets):
            return sorted_kets, 0
        inv = sum(1 for a in range(len(order)) for b in range(a + 1, len(order))
                  if order[a] > order[b])
        return sorted_kets, -1 if inv % 2 else 1
    return sorted_kets, 1


_PAULI_PAIRS = [[np.kron(_PAULI[i + 1], _PAULI[j + 1]) for j in range(3)]
                for i in range(3)]


def _correlation_matrix(rho):
    t = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            t[i, j] = np.trace(rho @ _PAULI_PAIRS[i][j]).real
    return t


def _fef_closed(rho):
    """Analytic fully entangled fraction of a two-qubit state."""
    t = _correlation_matrix(rho)
    k = np.diag([1.0, -1.0, 1.0]) @ t
    sing = np.linalg.svd(k, compute_uv=False)
    s = sing[0] + sing[1] + (sing[2] if np.linalg.det(k) >= 0 else -sing[2])
    return 0.25 * (1.0 + s)


def closed_form_singlet_fraction(rho):
    """`qdof.fidelity.singlet_fraction` as it was first written: the trace
    taken out, then nine 4x4 products for the correlation matrix."""
    rho = np.asarray(rho, dtype=complex)
    return _fef_closed(rho / np.trace(rho).real)


def _mes_vector(angles):
    a, b, g = angles
    u = (np.array([[np.exp(-1j * a / 2), 0], [0, np.exp(1j * a / 2)]])
         @ np.array([[math.cos(b / 2), -math.sin(b / 2)],
                     [math.sin(b / 2), math.cos(b / 2)]])
         @ np.array([[np.exp(-1j * g / 2), 0], [0, np.exp(1j * g / 2)]]))
    return np.kron(np.eye(2), u) @ PHI_PLUS


def _overlap(angles, rho):
    v = _mes_vector(angles)
    return float((v.conj() @ rho @ v).real)


def optimized_singlet_fraction(rho, d=2, restarts=6, seed=0,
                               return_spread=False):
    """Maximal overlap of `rho` with a maximally entangled state.

    Multi-start local maximization over the 3-angle unitary parameterization,
    combined with the analytic optimum; the best value is returned.  With
    `return_spread` the gap between that value and the best converged restart
    is reported so optimization trouble can be flagged.
    """
    rho = np.asarray(rho, dtype=complex)
    if d != 2 or rho.shape != (4, 4):
        raise ValueError("v1 computes singlet fractions of two-qubit states")
    rho = rho / np.trace(rho).real
    best = _fef_closed(rho)
    if restarts == 0:
        return (best, 0.0) if return_spread else best
    rng = np.random.default_rng(seed)
    starts = [np.zeros(3), np.array([0.0, math.pi, 0.0])]
    starts += [rng.uniform(0, 2 * math.pi, 3) for _ in range(restarts)]
    converged = []
    for x0 in starts:
        res = minimize(lambda x: -_overlap(x, rho), x0, method="L-BFGS-B",
                       options={"ftol": 1e-14, "gtol": 1e-12})
        converged.append(-res.fun)
    top = max(converged)
    value = max(best, top)
    if return_spread:
        spread = value - top
        return value, spread
    return value


def _mes_batch(alphas, betas, gammas):
    """All MES vectors over an angle grid, shape (A, B, G, 4)."""
    a = alphas[:, None, None]
    b = betas[None, :, None]
    g = gammas[None, None, :]
    ea, eg = np.exp(-1j * a / 2), np.exp(-1j * g / 2)
    cb, sb = np.cos(b / 2), np.sin(b / 2)
    u00 = ea * cb * eg
    u01 = -ea * sb / eg
    u10 = sb * eg / ea
    u11 = cb / (ea * eg)
    shape = np.broadcast_shapes(u00.shape, u01.shape, u10.shape, u11.shape)
    out = np.zeros(shape + (4,), dtype=complex)
    s2 = math.sqrt(2)
    out[..., 0] = np.broadcast_to(u00, shape) / s2
    out[..., 1] = np.broadcast_to(u10, shape) / s2
    out[..., 2] = np.broadcast_to(u01, shape) / s2
    out[..., 3] = np.broadcast_to(u11, shape) / s2
    return out


def singlet_fraction_grid(rho, points_per_axis=22, refine=2):
    """Deterministic grid oracle over the 3-angle parameterization."""
    rho = np.asarray(rho, dtype=complex)
    rho = rho / np.trace(rho).real
    lo = np.zeros(3)
    hi = np.full(3, 2 * math.pi)
    best_x, best = None, -1.0
    for _ in range(refine + 1):
        axes = [np.linspace(lo[i], hi[i], points_per_axis) for i in range(3)]
        vs = _mes_batch(*axes).reshape(-1, 4)
        vals = np.einsum("ni,ij,nj->n", vs.conj(), rho, vs).real
        top = int(np.argmax(vals))
        if vals[top] > best:
            best = float(vals[top])
            ia, rem = divmod(top, points_per_axis ** 2)
            ib, ig = divmod(rem, points_per_axis)
            best_x = np.array([axes[0][ia], axes[1][ib], axes[2][ig]])
        span = (hi - lo) / (points_per_axis - 1)
        lo = best_x - 2 * span
        hi = best_x + 2 * span
    return best


def _six_run_output(channel, psi_in):
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


# the six Pauli axis states, +-x, +-y, +-z, normalised
AXIS_STATES = [np.array(v, dtype=complex) / np.linalg.norm(v) for v in
               ([1, 0], [0, 1], [1, 1], [1, -1], [1, 1j], [1, -1j])]


def six_run_teleport_fidelity(channel):
    """Mean input-output overlap over the six Pauli axis states, one full
    protocol run per state."""
    values = []
    for v in AXIS_STATES:
        psi_in = np.asarray(v, dtype=complex)
        psi_in = psi_in / np.linalg.norm(psi_in)
        out = _six_run_output(channel, psi_in)
        values.append(float((psi_in.conj() @ out @ psi_in).real))
    return float(np.mean(values))


def werner_grid(p, layout):
    """(n, n, 4, 4) pair grid of `two_param_state(p, layout)`, closed form:
    entry [i - 1, j - 1] is pair (i, j)."""
    werner = (p * np.outer(PHI_PLUS, PHI_PLUS.conj())
              + (1.0 - p) * np.eye(4) / 4.0)
    n = layout.n
    if layout.kind == "indistinguishable":
        return np.broadcast_to(werner, (n, n, 4, 4))
    grid = np.zeros((n, n, 4, 4), dtype=complex)
    grid[...] = np.eye(4) / 4.0
    grid[0, 0] = werner
    return grid


def unshared_pair_grid(dm, layout):
    """`qdof.fidelity._pair_matrices` as it was before equal rows were
    shared: every party-1 row is reduced through party 2 again."""
    n = layout.n
    if layout.kind == "distinguishable":
        trace = trace_dof_dist
    else:
        regions = sorted({k.region for kets in dm.basis for k in kets})

        def trace(reduced, side, k):
            return trace_dof_indist(reduced, Subsystem(regions[side], k))

    return np.array([[to_qubit_array(pair)
                      for pair in _each_dof(row, 1, trace, n)]
                     for row in _each_dof(dm, 0, trace, n)])


def per_point_relation_check(layout, p_grid):
    """`relation_check` records, the grid of every point reduced from its
    own `two_param_state`."""
    n = layout.n
    endpoint = _pair_matrices(two_param_state(1.0, layout), layout)
    params = FidelityParams(
        _teleportation_fidelity_of(endpoint, layout,
                                   FidelityParams.for_layout(layout)),
        _singlet_fraction_of(endpoint))
    records = []
    for p in p_grid:
        grid = _pair_matrices(two_param_state(float(p), layout), layout)
        f_g = _teleportation_fidelity_of(grid, layout, params)
        big_f = _singlet_fraction_of(grid)
        predicted = ((big_f - n / D ** 2) * (params.f_max - 1 / D)
                     / (params.big_f_max - n / D ** 2) + 1 / D)
        residual = f_g - predicted
        if abs(residual) < 1e-12:
            residual = 0.0
        records.append({"p": float(p), "f_g": f_g, "F_g": big_f,
                        "predicted_f_g": predicted, "residual": residual})
    return records


def eye_two_param_data(p, layout):
    """The matrix of `qdof.fidelity.two_param_state(p, layout)` as it was
    first written, white noise through a dim x dim identity."""
    dim = len(_space(layout)[0])
    return p * _resource(layout) + (1.0 - p) * np.eye(dim) / dim


def pure_vector_grid(v, n):
    """(n, n, 4, 4) pair grid of the unit vector `v` of two parties A, B with
    `n` two-valued DoFs each, axes (A_1..A_n, B_1..B_n) as in the sorted
    product basis: entry [i - 1, j - 1] is the (A_i, B_j) matrix."""
    t = np.asarray(v).reshape((2,) * (2 * n))
    grid = np.empty((n, n, 4, 4), dtype=complex)
    for i in range(n):
        for j in range(n):
            m = np.moveaxis(t, (i, n + j), (0, 1)).reshape(4, -1)
            grid[i, j] = m @ m.conj().T
    return grid


def pure_vector_ascent(value_of_grid, n, starts=4, seed=0):
    """Maximize `value_of_grid` over the `pure_vector_grid` of unit vectors
    at `n` DoFs.

    L-BFGS-B with finite-difference gradients runs from the first `starts`
    normal draws with `seed`, over the real and imaginary parts, whose value
    is positive: a value that is 0 on a whole region gives no gradient to
    climb there.  Returns (the best unit vector, its value, the largest
    value of any vector tried).
    """
    dim = 4 ** n
    rng = np.random.default_rng(seed)
    largest = [-math.inf]

    def unit(x):
        v = x[:dim] + 1j * x[dim:]
        return v / np.linalg.norm(v)

    def objective(x):
        value = value_of_grid(pure_vector_grid(unit(x), n))
        largest[0] = max(largest[0], value)
        return -value

    draws = (rng.normal(size=2 * dim) for _ in range(1000 * starts))
    firsts = itertools.islice((x for x in draws if objective(x) < 0), starts)
    best = min((minimize(objective, x, method="L-BFGS-B") for x in firsts),
               key=lambda res: res.fun)
    return unit(best.x), -best.fun, largest[0]


def _grid_singlet_fraction(grid):
    n = len(grid)
    f = singlet_fraction(grid.reshape(-1, 4, 4)).reshape(n, n)
    return float(max(f.sum(axis=1).max(), f.sum(axis=0).max()))


def singlet_fraction_ascent(n, starts=4, seed=0):
    """`pure_vector_ascent` of F_g, the largest row or column sum of the
    pair singlet fractions."""
    return pure_vector_ascent(_grid_singlet_fraction, n, starts, seed)


MONOGAMY_MIN_TANGLE = 0.1


def monogamy_ratio(grid):
    """max_i of sum_j C^2(A_i, B_j) / 4 det rho_{A_i} on a pure-vector grid,
    rho_{A_i} read off pair (A_i, B_1), over the rows whose tangle is at
    least `MONOGAMY_MIN_TANGLE`; 0.0 if there is none."""
    n = len(grid)
    c2 = concurrence(grid.reshape(-1, 4, 4)).reshape(n, n) ** 2
    rho_a = np.einsum("iabcb->iac", grid[:, 0].reshape(n, 2, 2, 2, 2))
    tangles = 4 * np.linalg.det(rho_a).real
    kept = tangles >= MONOGAMY_MIN_TANGLE
    if not kept.any():
        return 0.0
    return float((c2.sum(axis=1)[kept] / tangles[kept]).max())


def monogamy_ascent(n, starts=4, seed=0):
    """`pure_vector_ascent` of `monogamy_ratio`, which the Osborne-Verstraete
    bound keeps at or below 1 on pure distinguishable states."""
    return pure_vector_ascent(monogamy_ratio, n, starts, seed)


def hardy_q_grid(thetas, phis):
    """|1/2 cos(theta) cos(chi) (1 - e^{-2i phi})|^2 over thetas x phis, with
    chi from cot(chi) = tan(theta) cos(phi), in complex arithmetic."""
    ts, fs = np.meshgrid(thetas, phis, indexing="ij")
    chi = np.arctan2(1.0, np.tan(ts) * np.cos(fs))
    z = 0.5 * np.cos(ts) * np.cos(chi) * (1 - np.exp(-2j * fs))
    return np.abs(z) ** 2


def numpy_exp_hardy_q(p):
    """|1/2 cos(theta) cos(chi) (1 - e^{-2i phi})|^2 of HardyParams `p`,
    with numpy's complex exponential."""
    z = 0.5 * math.cos(p.theta) * math.cos(p.chi) * (1 - np.exp(-2j * p.phi))
    return float(abs(z) ** 2)


def _on_qubits(op, qubits, m):
    """The operator `op` on `qubits`, in its axis order, of m qubits, with
    the identity on the rest."""
    k = len(qubits)
    t = np.kron(op, np.eye(2 ** (m - k))).reshape((2,) * (2 * m))
    order = list(qubits) + [q for q in range(m) if q not in qubits]
    axes = list(np.argsort(order))
    return t.transpose(axes + [m + a for a in axes]).reshape(2 ** m, 2 ** m)


def star_projector_sum(n):
    """H_n = sum_j |Phi+><Phi+| on (A_1, B_j) over axes (A_1, B_1..B_n)."""
    bell = np.outer(PHI_PLUS, PHI_PLUS.conj())
    return sum(_on_qubits(bell, (0, j), n + 1) for j in range(1, n + 1))


def star_ceiling_state(n, seed=0):
    """A top eigenvector of `star_projector_sum(n)` with A_2..A_n in a
    random product state drawn with `seed`, as a unit vector on axes
    (A_1..A_n, B_1..B_n) as in the sorted product basis."""
    v = np.linalg.eigh(star_projector_sum(n))[1][:, -1]
    t = v.reshape((2,) * (n + 1))  # axes A_1, B_1..B_n
    rng = np.random.default_rng(seed)
    for _ in range(n - 1):  # appends A_2..A_n
        s = rng.normal(size=2) + 1j * rng.normal(size=2)
        t = np.multiply.outer(t, s / np.linalg.norm(s))
    t = t.transpose([0] + list(range(n + 1, 2 * n)) + list(range(1, n + 1)))
    return t.reshape(-1)


def words_signaling_hits(cfg):
    """Correctly decoded messages of `signaling_mc(cfg, mode='dofs')`, from
    the same draws decoded word by word."""
    rng = np.random.default_rng(cfg.seed)
    n, trials = cfg.n_dofs, cfg.trials
    sent = rng.integers(0, 2, size=trials)             # 0 -> Z basis, 1 -> X
    rng.integers(0, 4, size=trials)                    # Bell outcome, corrected
    bits = rng.integers(0, 2, size=(trials, n))
    # Z: all registers carry the same teleported basis state
    z_value = rng.integers(0, 2, size=trials)
    words_z = np.repeat(z_value[:, None], n, axis=1)
    words = np.where(sent[:, None] == 0, words_z, bits)
    all_same = (words == words[:, :1]).all(axis=1)
    decoded = np.where(all_same, 0, 1)
    return int((decoded == sent).sum())


def sorter_cascade(n_dofs, input_state_per_dof):
    """Detector distribution of a cascade of one sorter per DoF.

    `input_state_per_dof` is a single (a, b) qubit amplitude pair shared by all
    DoFs, or a sequence of one pair per DoF.  Detector k (1-based) fires when
    sorter j (0-based) yields bit j of k-1, counting from the least significant
    bit, so the last sorter is the most significant bit.  D_1 collects the all-0
    word and D_{2**N} the all-1 word, so Z-basis inputs land in
    {D_1, D_{2**N}} with probability 1.
    """
    if n_dofs < 1:
        raise ValueError("need at least one DoF")
    if n_dofs > 20:
        raise ValueError("cascade limited to 20 DoFs")
    amps = np.asarray(input_state_per_dof, dtype=complex)
    if amps.ndim == 1:
        amps = np.tile(amps, (n_dofs, 1))
    if amps.shape != (n_dofs, 2):
        raise ValueError("expected one (a, b) pair per DoF")
    norms = (np.abs(amps) ** 2).sum(axis=1)
    p01 = (np.abs(amps) ** 2) / norms[:, None]
    out = np.ones(1)
    for j in range(n_dofs):
        out = np.concatenate([out * p01[j, 0], out * p01[j, 1]])
    return out


def cascade_signaling_exact(n):
    """`qdof.protocols.signaling_exact(n)` from the detector words of
    `sorter_cascade`: a computational-basis message decodes on
    the two edge words, a Hadamard-basis one on every other word, each basis
    state of the message averaged.  Every word's probability is 0 or a power
    of two, so the float sums are exact and convert to a `Fraction` without
    rounding."""
    edge = [0, 2 ** n - 1]

    def on_edge(amps):
        return Fraction(float(sorter_cascade(n, amps)[edge].sum()))

    p_z = (on_edge((1.0, 0.0)) + on_edge((0.0, 1.0))) / 2
    p_x = 1 - (on_edge((1.0, 1.0)) + on_edge((1.0, -1.0))) / 2
    return (p_z + p_x) / 2


def counter_tuple_overlap(s, t, eta):
    """`qdof.states.tuple_overlap` as it was first written, counting the
    repeats of each ket of a bunched boson tuple in a `Counter`."""
    if s != t:
        return 0.0
    if eta != BOSON or len(set(s)) == len(s):
        return 1.0
    return float(math.prod(math.factorial(m) for m in Counter(s).values()))


def per_case_monogamy_report(dm, sub_a, sub_b, sub_c):
    """CKW report of one projected pure state: reduce it, then measure its
    one row."""
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
        return to_qubit_array(reduced)

    pairs = np.array([reduce_to([sub_a, sub_b]), reduce_to([sub_a, sub_c])])
    rho_a = reduce_to([sub_a])
    c2_ab, c2_ac = (c ** 2 for c in concurrence(pairs).tolist())
    flips = _flip_eigenvalues(
        pairs / np.trace(pairs, axis1=1, axis2=2).real[:, None, None]).tolist()
    audit = {"flip_spectrum_ab": flips[0], "flip_spectrum_ac": flips[1],
             "marginal_spectrum_a": np.linalg.eigvalsh(rho_a).tolist()}
    tangle = float(max(0.0, 4.0 * np.linalg.det(_check_density(rho_a, 2)).real))
    return MonogamyReport(c2_ab, c2_ac, tangle, audit)


def abs_trace_accepts(rho):
    """Whether the density check over |trace| accepts `rho` (module doc)."""
    rho = np.asarray(rho, dtype=complex)
    if not np.isfinite(rho).all():
        return False
    tr = abs(np.trace(rho).real)
    if tr <= 1e-12 * np.abs(rho).max():
        return False
    rho = rho / tr
    return (np.allclose(rho, rho.conj().T, rtol=1e-5, atol=1e-7)
            and np.linalg.eigvalsh(rho).min() >= -1e-7)


def per_case_three_particle(case):
    """(MonogamyReport, pattern) of one catalogue case, measured alone."""
    dm = project_one_per_region(to_density(case_state(case)), _REGIONS)
    report = per_case_monogamy_report(
        dm, *(Subsystem(r, m) for r, m in zip(_REGIONS, case.measured)))
    pattern = tuple("zero" if v <= 1e-9 else "nonneg"
                    for v in (report.c2_ab, report.c2_ac, report.c2_a_bc))
    return report, pattern


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
