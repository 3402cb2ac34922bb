"""Reference implementation of the trace rules: the per-entry sparse engine.

Each reduction loops over every non-zero (ket, bra) entry of the input
matrix, maps it through the rule, and rebuilds the reduced matrix from the
resulting (ket, bra, weight) list.  `qdof.trace` computes the same maps as
operator sums; the tests compare the two on random and catalogue states.
Tuple overlaps come from the permanent / determinant oracle in `oracles`, so
this engine does not rest on the closed form it checks.
"""

from __future__ import annotations

import math

import numpy as np

from oracles import permutation_overlap as tuple_overlap
from qdof.states import (DISTINGUISHABLE, DegenerateStateError, DensityMatrix,
                         Ket, ShapeError, canonical)
from qdof.trace import EmptySubspaceError, Subsystem


def _entries(dm):
    n = len(dm.basis)
    for a in range(n):
        for b in range(n):
            w = dm.data[a, b]
            if w != 0:
                yield dm.basis[a], dm.basis[b], w


def _rebuild(pairs, eta, dof_specs, ndof):
    basis = sorted({s for s, _, _ in pairs} | {t for _, t, _ in pairs})
    index = {b: i for i, b in enumerate(basis)}
    data = np.zeros((len(basis), len(basis)), dtype=complex)
    for s, t, w in pairs:
        data[index[s], index[t]] += w
    dm = DensityMatrix(tuple(basis), data, eta, dof_specs, ndof)
    tr = dm.trace
    if tr <= 1e-24:
        raise EmptySubspaceError("reduction produced an empty subspace")
    return dm.renormalized()


def project_one_per_region(dm, regions):
    """Project onto the sector with exactly one particle in each listed region."""
    regions = list(regions)
    if len(set(regions)) != len(regions):
        raise ValueError("regions must be distinct")

    def ok(kets):
        counts = {r: 0 for r in regions}
        for k in kets:
            if k.region not in counts:
                return False
            counts[k.region] += 1
        return all(c == 1 for c in counts.values())

    pairs = [(s, t, w) for s, t, w in _entries(dm) if ok(s) and ok(t)]
    if not pairs:
        raise EmptySubspaceError("no weight in the one-particle-per-region sector")
    return _rebuild(pairs, dm.eta, dm.dof_specs, dm.n_dofs_orig)


def _norm_ratio(big, small, eta):
    if eta == DISTINGUISHABLE:
        return 1.0
    g_big = tuple_overlap(big, big, eta)
    g_small = tuple_overlap(small, small, eta) if small else 1.0
    return math.sqrt(g_small / g_big)


def _slot_removals(kets, region, eta):
    """Yield (sign*ratio, reduced_tuple) for removing one region-slot entirely.

    The removed ket is returned alongside so the caller can match ket and bra
    sides on the same traced value.
    """
    out = []
    for i, k in enumerate(kets):
        if k.region != region:
            continue
        reduced = kets[:i] + kets[i + 1:]
        sign = 1 if (eta == DISTINGUISHABLE or i % 2 == 0) else eta
        reduced_c, csign = canonical(reduced, eta)
        if csign == 0:
            continue
        coeff = sign * csign * _norm_ratio(kets, reduced_c, eta)
        out.append((k, coeff, reduced_c))
    return out


def trace_region(dm, region):
    """Standard partial trace over one spatial region (one particle there)."""
    if not any(k.region == region for kets in dm.basis for k in kets):
        raise ValueError(f"unknown region {region!r}")
    pairs = []
    for s, t, w in _entries(dm):
        for ket_s, cs, s_red in _slot_removals(s, region, dm.eta):
            for ket_t, ct, t_red in _slot_removals(t, region, dm.eta):
                if ket_s == ket_t:
                    pairs.append((s_red, t_red, w * cs * np.conj(ct)))
    if not pairs:
        raise EmptySubspaceError(f"tracing region {region!r} left nothing")
    return _rebuild(pairs, dm.eta, dm.dof_specs, dm.n_dofs_orig)


def _dof_drops(kets, region, dof_index, eta):
    """Yield (coeff, reduced_tuple, removed_value) dropping one DoF at a region."""
    out = []
    for i, k in enumerate(kets):
        if k.region != region or k.value(dof_index) is None:
            continue
        reduced = kets[:i] + (k.drop(dof_index),) + kets[i + 1:]
        sign = 1 if (eta == DISTINGUISHABLE or i % 2 == 0) else eta
        reduced_c, csign = canonical(reduced, eta)
        if csign == 0:
            continue
        coeff = sign * csign * _norm_ratio(kets, reduced_c, eta)
        out.append((coeff, reduced_c, k.value(dof_index)))
    return out


def trace_dof_indist(dm, sub):
    """Trace one DoF of one region out of an indistinguishable-particle matrix."""
    if sub.dof_index is None:
        raise ValueError("subsystem must name a dof_index")
    present = {i for kets in dm.basis for k in kets for i, _ in k.dofs}
    if sub.dof_index not in present:
        raise ValueError(f"dof index {sub.dof_index} not present")
    ndof = dm.n_dofs_orig or len(present)
    if ndof <= 1:
        # single-DoF systems: the rule degenerates to the localized particle trace
        return trace_region(dm, sub.region)
    pairs = []
    for s, t, w in _entries(dm):
        for cs, s_red, _vs in _dof_drops(s, sub.region, sub.dof_index, dm.eta):
            for ct, t_red, _vt in _dof_drops(t, sub.region, sub.dof_index, dm.eta):
                pairs.append((s_red, t_red, w * cs * np.conj(ct)))
    if not pairs:
        raise EmptySubspaceError("DoF trace left nothing")
    return _rebuild(pairs, dm.eta, dm.dof_specs, ndof)


def trace_dof_dist(dm, particle, dof_index):
    """Partial trace over DoF `dof_index` of labelled particle slot `particle`."""
    if dm.eta != DISTINGUISHABLE:
        raise ShapeError("trace_dof_dist expects the distinguishable representation")
    nslots = len(dm.basis[0])
    if not 0 <= particle < nslots:
        raise ValueError("particle slot out of range")
    pairs = []
    for s, t, w in _entries(dm):
        vs = s[particle].value(dof_index)
        vt = t[particle].value(dof_index)
        if vs is None or vt is None:
            raise ValueError(f"dof index {dof_index} not present on that particle")
        if vs != vt:
            continue
        s_red = s[:particle] + (s[particle].drop(dof_index),) + s[particle + 1:]
        t_red = t[:particle] + (t[particle].drop(dof_index),) + t[particle + 1:]
        pairs.append((s_red, t_red, w))
    if not pairs:
        raise EmptySubspaceError("DoF trace left nothing")
    return _rebuild(pairs, dm.eta, dm.dof_specs, dm.n_dofs_orig)


def particle_trace_lofranco(state, region=None):
    """Single-particle reduced matrix of a two-particle, single-DoF pure state.

    Contracts the state with every single-particle basis bra (optionally only
    those localized in `region`) and renormalizes.
    """
    if state.n_particles != 2:
        raise ShapeError("expected a two-particle state")
    if state.n_dofs > 1:
        raise ShapeError("expected single-DoF particles")
    kets = sorted({k for tup in state.terms for k in tup})
    if region is not None:
        kets = [k for k in kets if k.region == region]
    outer = {}
    for k in kets:
        vec = {}
        for tup, amp in state.terms.items():
            for i, slot in enumerate(tup):
                if slot == k:
                    reduced = tup[:i] + tup[i + 1:]
                    sign = (1 if state.eta == DISTINGUISHABLE or i % 2 == 0
                            else state.eta)
                    vec[reduced] = vec.get(reduced, 0.0) + sign * amp
        for (s, vs) in vec.items():
            for (t, vt) in vec.items():
                outer[(s, t)] = outer.get((s, t), 0.0) + vs * np.conj(vt)
    if not outer:
        raise DegenerateStateError("zero localized norm")
    pairs = [(s[0:], t[0:], w) for (s, t), w in outer.items()]
    # reduced tuples here are single kets wrapped in 1-tuples
    return _rebuild(pairs, state.eta, state.dof_specs, 1)


def strip_empty_slots(dm):
    """Drop kets that have lost all their DoFs from every basis tuple."""
    pairs = []
    for s, t, w in _entries(dm):
        s2 = tuple(k for k in s if k.dofs)
        t2 = tuple(k for k in t if k.dofs)
        pairs.append((s2, t2, w))
    return _rebuild(pairs, dm.eta, dm.dof_specs, dm.n_dofs_orig)


def to_qubit_array(dm, subsystems=None):
    """Densify a reduced matrix into a standard tensor-ordered numpy array.

    Every remaining slot must carry at most a single DoF with at most two
    values.  Slots are ordered by region label (or by the given subsystem
    order); within a slot the DoF's declared eigenvalue order fixes |0>,|1>.
    """
    sample = dm.basis[0]
    nslots = len(sample)
    if subsystems is None:
        regions = sorted({k.region for kets in dm.basis for k in kets})
    else:
        regions = [s.region if isinstance(s, Subsystem) else s for s in subsystems]
    if len(regions) != nslots:
        raise ShapeError("subsystem count does not match remaining slots")

    orders = []
    for r in regions:
        slot_kets = sorted({k for kets in dm.basis for k in kets if k.region == r})
        if not slot_kets:
            raise ValueError(f"region {r!r} absent from basis")
        idxs = {i for k in slot_kets for i, _ in k.dofs}
        if len(idxs) > 1:
            raise ShapeError(f"region {r!r} still carries several DoFs")
        if idxs:
            di = next(iter(idxs))
            declared = dm.value_order(di)
            if len(declared) == 2:
                use = declared  # embed into the full qubit space
            else:
                use = [v for v in declared if any(k.value(di) == v for k in slot_kets)]
            if len(use) > 2:
                raise ShapeError(f"region {r!r} is not a qubit here")
            orders.append([Ket(r, ((di, v),)) for v in use])
        else:
            orders.append([Ket(r)])
    dims = [max(len(o), 1) for o in orders]
    dim = int(np.prod(dims))
    out = np.zeros((dim, dim), dtype=complex)

    def flat(kets):
        pos = 0
        for o, d in zip(orders, dims):
            by_region = {k.region: k for k in kets}
            k = by_region[o[0].region]
            pos = pos * d + o.index(k)
        return pos

    for s, t, w in _entries(dm):
        out[flat(s), flat(t)] += w
    return out
