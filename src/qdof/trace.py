"""Projection and trace-out rules for region-labelled multi-DoF states.

Every reduction is one operator sum on the ket-tuple basis,
rho -> sum_key K_key rho K_key^dagger, where K_key sends each basis tuple to
its images ``(key, coeff, reduced_tuple)`` under that key.  Ket and bra meet
only through images with the same key, so the key is what tells the rules
apart:

``trace_region``
    Standard partial trace of one spatial region.  The key is the removed
    single-particle ket: ket and bra must carry the same ket there (summed
    over its values).  This is the localized single-particle trace
    generalized to several DoFs per particle.

``trace_dof_indist``
    Trace of a single DoF at one region for indistinguishable particles.  For
    states whose particles carry two or more DoFs this *forgets the label
    coherently*: the key is shared, so the traced value is removed from ket
    and bra independently and amplitudes over different removed values add.
    Repeating it over all DoFs of a region is therefore not the same as
    ``trace_region`` -- the defining feature of the inter-DoF reduction, and
    what produces maximally entangled reduced pairs from circuit states where
    an internal and an external mode are perfectly correlated.  For
    single-DoF systems it is ``trace_region``, which there is the localized
    single-particle trace of Lo Franco and Compagno (Sci. Rep. 6, 20603,
    2016); the tests check it against an independent contraction of the
    state's amplitudes.

``trace_dof_dist``
    Ordinary partial trace over one DoF factor of a labelled distinguishable
    particle; the key is the traced value.

``project_one_per_region`` is a one-key map (sector selection).  On every
basis but a product basis (below), the support alone chooses the basis: a
tuple is left out when its row and column are all zero, and mapped
otherwise, however small its entries.  Every
reduction renormalizes to unit trace, so downstream entanglement measures can
assume proper density matrices.

``to_qubit_array`` is a one-key map too: it keeps the same tuples and sends
each one to its position in the tensor-ordered qubit array, so
distinguishable particles in swapped slots that land on one position add.
The reduced matrix is scattered at its positions.  A matrix whose basis
fills the array in its own order is returned as a copy, whose zero rows and
columns are the positions the kernel would leave empty.

What a call depends on beyond its data is worked out once per plan, never
per call.  A rule is a value: the pair ``(images_of, args)`` of a
module-level images function and its argument tuple (``eta`` and the DoF
included; the layout's ket orders for the qubit array), and
``images_of(kets, *args)`` lists the images of one tuple.  The operator
sum's plan is keyed on ``(basis, rule, mask of the non-zero entries)``, the
mask packed by ``np.packbits``, so equal rules share plans by value.  It
holds the reduced basis and, for each key of the mapped tuples in its order
of first appearance, the (row, column, coefficient) index arrays of K_key.
A plan maps only the tuples its mask keeps, so a rule that raises for a
tuple raises only when a call keeps it, and no error is cached.  Only the products stay per call: each K
built from its index arrays and the sums ``k rho k^dagger`` in the plan's
order, the ones a plan worked out on every call would give.  Plans hold
index arrays, never a dense K or an unpacked mask, which would pin
``len(basis)**2`` entries per plan.

The two DoF traces take a dense branch on a ``ProductBasis``, the sorted
full product of two-valued DoFs with one ket per distinct region, built only
by ``_product_basis`` (cached), as are ``fidelity``'s noise-family and random
bases and every basis the branch returns.  Such a basis carries only what
its slots determine: the slots, regions and DoFs and whether the regions are
in canonical order (as the symmetrized kinds need).  Each DoF trace's plan
is cached on the slots, which hash faster than the basis; the support plays
no part, and every tuple of the reduced product is kept.  On a product basis
each kernel coefficient is +-1 (one sign per slot, so it cancels between ket
and bra), so the branch adds slices of the ``(pre, 2, post) * 2`` view in
the kernel's order (ket axis first for the coherent trace), then adds 0.0 as
the kernel's sums start from zeros.  On a full support its result is the
kernel's bit for bit; where the kernel leaves a tuple out, the branch keeps
a zero row and column, and its renormalizing trace may differ in the last
bit.  Every other input (a full product built any other way, sparse circuit
states, bunched sectors) takes the kernel, as do ``trace_region`` and
``project_one_per_region``.

Every reduction takes a (k, N, N) stack of matrices on one basis, each
renormalized over its own trace.  The dense branch sums each matrix as
alone; the kernel replays one plan, keyed on the union of the supports, so
a matrix whose support is that union gets the basis and bytes it gets alone
and any other a larger basis, zero on the tuples it lacks.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .states import (DISTINGUISHABLE, DegenerateStateError, DensityMatrix,
                     Ket, ShapeError, canonical, tuple_overlap, value_order)


@dataclass(frozen=True)
class Subsystem:
    """A spatial region, optionally narrowed to a single DoF index."""

    region: str
    dof_index: int | None = None


class EmptySubspaceError(DegenerateStateError):
    """Projection or trace produced a zero-trace matrix."""


def _linked(dm):
    """Mask of the non-zero entries of any matrix of a stack, mirrored: a
    tuple is kept when its row has one."""
    size = len(dm.basis)
    weight = (dm.data != 0).reshape(-1, size, size).any(axis=0)
    return weight | weight.T


def _unpacked(mask, shape):
    """The bool array of `shape` whose ``np.packbits(...).tobytes()`` is `mask`."""
    bits = np.unpackbits(np.frombuffer(mask, dtype=np.uint8), count=math.prod(shape))
    return bits.reshape(shape).astype(bool)


@functools.lru_cache(maxsize=512)
def _kernel_plan(basis, rule, mask):
    """(reduced basis, maps) of `_operator_sum` on `basis`, where `rule` is
    the pair (images function, argument tuple) and `mask` is the packed
    `_linked` mask of the matrix; the cache key holds all three.

    Only tuples whose row or column carries a non-zero entry are mapped, so
    a rule error on one of them is raised (and never cached).  Images of
    one tuple with the same key and reduced tuple are merged, their
    coefficients added in order onto 0.  The reduced basis is the sorted set
    of the images that meet a mapped partner under the same key, so an image
    whose amplitudes cancel keeps its place.  `maps` holds one (row, col,
    coeff) triple of index arrays per key, in the keys' order of first
    appearance: K_key has coeff at (row, col).
    """
    images_of, args = rule
    linked = _unpacked(mask, (len(basis), len(basis)))
    key_ids, slots, images = {}, {}, {}
    for col in np.flatnonzero(linked.any(axis=1)).tolist():
        for key, coeff, reduced in images_of(basis[col], *args):
            image = (col, key_ids.setdefault(key, len(key_ids)),
                     slots.setdefault(reduced, len(slots)))
            images[image] = images.get(image, 0j) + coeff
    cols, keys, where = np.array(list(images), dtype=np.intp).reshape(-1, 3).T
    coeffs = np.array(list(images.values()), dtype=complex)
    meets = (linked[cols[:, None], cols] & (keys[:, None] == keys)).any(axis=1)
    universe = list(slots)
    reduced = sorted({universe[i] for i in where[meets].tolist()})
    row_of = {kets: i for i, kets in enumerate(reduced)}
    rows = np.array([row_of.get(kets, -1) for kets in universe], dtype=np.intp)[where]
    maps = []
    for key in dict.fromkeys(keys.tolist()):
        mine = meets & (keys == key)
        maps.append((rows[mine], cols[mine], coeffs[mine]))
    for a in itertools.chain(*maps):
        a.setflags(write=False)  # shared by every call that hits the cache
    return tuple(reduced), tuple(maps)


def _operator_sum(dm, rule):
    """Return (basis, sum_key K_key rho K_key^dagger) for the rule
    ``(images_of, args)``, the basis and each K_key's entries from the
    `_kernel_plan` of its support; a stack's matrices are summed one after
    another on its first axis, on the plan of the union of their supports."""
    basis, maps = _kernel_plan(tuple(dm.basis), rule,
                               np.packbits(_linked(dm)).tobytes())
    data = np.zeros(dm.data.shape[:-2] + (len(basis), len(basis)),
                    dtype=complex)
    for row, col, coeff in maps:
        k = np.zeros((len(basis), len(dm.basis)), dtype=complex)
        k[row, col] = coeff
        data += k @ dm.data @ k.conj().T
    return basis, data


def _reduce(dm, rule, empty, n_dofs=None):
    """Renormalized `_operator_sum`; `empty` is the message when nothing is left."""
    return _renormalized(dm, *_operator_sum(dm, rule), empty, n_dofs)


def _renormalized(dm, basis, data, empty, n_dofs=None):
    """The reduced matrix on `basis`, renormalized to unit trace: each
    matrix of a stack over its own trace."""
    if not basis:
        raise EmptySubspaceError(empty)
    if data.ndim == 2:
        tr = least = data.trace().real
    else:
        tr = data.trace(axis1=1, axis2=2).real
        least, tr = min(tr.tolist()), tr[:, None, None]
    if least <= 1e-24:
        raise EmptySubspaceError("reduction produced an empty subspace")
    data *= 1.0 / tr  # the bytes of data / tr: the fresh data holds no -0.0
    return DensityMatrix(basis, data, dm.eta, dm.dof_specs,
                         n_dofs or dm.n_dofs_orig)


class ProductBasis(tuple):
    """A full product basis (module doc), made only by `_product_basis`, with
    its `slots`, ((region, ((dof, (a, b)), ...)), ...) with a < b."""


@functools.lru_cache(maxsize=256)
def _product_basis(slots):
    """The `ProductBasis` of `slots`."""
    if len({region for region, _ in slots}) < len(slots):
        raise ValueError("a product basis has one ket per distinct region")
    if not all(len(values) == 2 and values[0] < values[1]
               for _, dofs in slots for _, values in dofs):
        raise ValueError("a product basis DoF takes two values, in sorted order")
    per_slot = [[Ket(region, tuple(zip([i for i, _ in dofs], combo)))
                 for combo in itertools.product(*[v for _, v in dofs])]
                for region, dofs in slots]
    basis = ProductBasis(itertools.product(*per_slot))
    basis.slots, basis.regions = slots, tuple(region for region, _ in slots)
    basis.canonical = list(basis.regions) == sorted(basis.regions)
    basis.dofs = frozenset(i for _, dofs in slots for i, _ in dofs)
    return basis


def _product_slots(dm):
    """The `ProductBasis` of `dm` if the dense branch applies, else None."""
    basis = dm.basis
    if (type(basis) is not ProductBasis
            or not (basis.canonical or dm.eta == DISTINGUISHABLE)):
        return None
    return basis


@functools.lru_cache(maxsize=512)
def _dense_plan(slots, slot, dof_index):
    """(shape, traced) of a DoF trace on the `ProductBasis` of `slots`, None
    if `slot` lacks the DoF: shape (-1, 2, post) + (pre, 2, post) views the
    DoF's ket and bra values on axes 1 and 4, the -1 taking pre times the
    size of a stack."""
    region, dofs = slots[slot]
    kept = tuple(d for d in dofs if d[0] != dof_index)
    if len(kept) == len(dofs):
        return None
    m = sum(len(d) for _, d in slots)
    axis = (sum(len(d) for _, d in slots[:slot])
            + [i for i, _ in dofs].index(dof_index))
    pre, post = 2 ** axis, 2 ** (m - 1 - axis)
    return ((-1, 2, post, pre, 2, post),
            _product_basis(slots[:slot] + ((region, kept),) + slots[slot + 1:]))


def _dense_trace(dm, basis, slot, dof_index, coherent):
    """(basis, data) of the trace of `dof_index` at `slot`, or None.  The
    coherent sum adds over the ket axis first, as K rho does before K^dagger
    (from two quarter-size temporaries).  The kernel adds onto 0: (0 + a) + b
    is (a + b) + 0, which stores -0.0 as +0.0."""
    plan = _dense_plan(basis.slots, slot, dof_index)
    if plan is None:
        return None
    shape, traced = plan
    t = dm.data.reshape(shape)
    if coherent:
        out = t[:, 0, :, :, 0] + t[:, 1, :, :, 0]
        out += t[:, 0, :, :, 1] + t[:, 1, :, :, 1]
    else:
        out = t[:, 0, :, :, 0] + t[:, 1, :, :, 1]
    out += 0.0
    return traced, out.reshape(dm.data.shape[:-2] + (len(traced),) * 2)


def project_one_per_region(dm, regions):
    """Project onto the sector with exactly one particle in each listed region."""
    regions = list(regions)
    if len(set(regions)) != len(regions):
        raise ValueError("regions must be distinct")

    return _reduce(dm, (_sector_images, (tuple(sorted(regions)),)),
                   "no weight in the one-particle-per-region sector")


def _sector_images(kets, wanted):
    """One key: a tuple maps to itself when its regions are `wanted` (sorted)."""
    return [(None, 1.0, kets)] if tuple(sorted(k.region for k in kets)) == wanted else []


def _norm_ratio(big, small, eta):
    return math.sqrt(tuple_overlap(small, small, eta) / tuple_overlap(big, big, eta))


def _slot_images(kets, region, eta, dof_index):
    """Images (key, coeff, reduced_tuple) of a tuple under one `region` slot.

    With `dof_index` None the slot is removed and the key is its ket; else
    the slot keeps its ket minus that DoF under one shared key (slots
    without the DoF have no image), which makes the DoF trace coherent.
    """
    out = []
    for i, k in enumerate(kets):
        if k.region != region:
            continue
        if dof_index is None:
            key, replacement = k, ()
        elif k.value(dof_index) is None:
            continue
        else:
            key, replacement = None, (k.drop(dof_index),)
        reduced = kets[:i] + replacement + kets[i + 1:]
        sign = 1 if (eta == DISTINGUISHABLE or i % 2 == 0) else eta
        reduced_c, csign = canonical(reduced, eta)
        if csign == 0:
            continue
        coeff = sign * csign * _norm_ratio(kets, reduced_c, eta)
        out.append((key, coeff, reduced_c))
    return out


def trace_region(dm, region):
    """Standard partial trace over one spatial region (one particle there)."""
    if not any(k.region == region for kets in dm.basis for k in kets):
        raise ValueError(f"unknown region {region!r}")
    return _reduce(dm, (_slot_images, (region, dm.eta, None)),
                   f"tracing region {region!r} left nothing")


def trace_dof_indist(dm, sub):
    """Trace one DoF of one region out of an indistinguishable-particle matrix."""
    if sub.dof_index is None:
        raise ValueError("subsystem must name a dof_index")
    product = _product_slots(dm)
    present = (product.dofs if product is not None else
               {i for kets in dm.basis for k in kets for i, _ in k.dofs})
    if sub.dof_index not in present:
        raise ValueError(f"dof index {sub.dof_index} not present")
    ndof = dm.n_dofs_orig or len(present)
    if ndof <= 1:
        # single-DoF systems: the rule degenerates to the localized particle trace
        return trace_region(dm, sub.region)
    if product is not None and sub.region in product.regions:
        dense = _dense_trace(dm, product, product.regions.index(sub.region),
                             sub.dof_index, coherent=True)
        if dense is not None:
            return _renormalized(dm, *dense, "DoF trace left nothing", ndof)
    return _reduce(dm, (_slot_images, (sub.region, dm.eta, sub.dof_index)),
                   "DoF trace left nothing", ndof)


def trace_dof_dist(dm, particle, dof_index):
    """Partial trace over DoF `dof_index` of labelled particle slot `particle`."""
    if dm.eta != DISTINGUISHABLE:
        raise ShapeError("trace_dof_dist expects the distinguishable representation")
    if not 0 <= particle < len(dm.basis[0]):
        raise ValueError("particle slot out of range")
    product = _product_slots(dm)
    if product is not None:
        dense = _dense_trace(dm, product, particle, dof_index, coherent=False)
        if dense is not None:
            return _renormalized(dm, *dense, "DoF trace left nothing")
    return _reduce(dm, (_value_images, (particle, dof_index)),
                   "DoF trace left nothing")


def _value_images(kets, particle, dof_index):
    """Key = the value of DoF `dof_index` on slot `particle`, which is dropped."""
    k = kets[particle]
    value = k.value(dof_index)
    if value is None:
        raise ValueError(f"dof index {dof_index} not present on that particle")
    return [(value, 1.0,
             kets[:particle] + (k.drop(dof_index),) + kets[particle + 1:])]


@functools.lru_cache(maxsize=256)
def _layout_rule(basis, dof_specs):
    """(in_order, dim, rule) of `basis` in the qubit array of size `dim`.

    The rule, `_position_images` with the layout's per-region ket orders,
    maps each tuple to its position in the array, so a tuple the layout
    cannot place raises only when a call keeps it.  `in_order` says that the
    basis fills the array in its own order.
    """
    regions = sorted({k.region for kets in basis for k in kets})
    if len(regions) != len(basis[0]):
        raise ShapeError("subsystem count does not match remaining slots")

    orders = []
    for r in regions:
        slot_kets = sorted({k for kets in basis for k in kets if k.region == r})
        idxs = {i for k in slot_kets for i, _ in k.dofs}
        if len(idxs) > 1:
            raise ShapeError(f"region {r!r} still carries several DoFs")
        if idxs:
            di = next(iter(idxs))
            declared = value_order(basis, dof_specs, di)
            if len(declared) == 2:
                use = declared  # embed into the full qubit space
            else:
                use = [v for v in declared if any(k.value(di) == v for k in slot_kets)]
            if len(use) > 2:
                raise ShapeError(f"region {r!r} is not a qubit here")
            orders.append(tuple(Ket(r, ((di, v),)) for v in use))
        else:
            orders.append((Ket(r),))
    dim = math.prod(len(o) for o in orders)
    # tuple i holds the kets of position i, one per region
    in_order = [{k.region: k for k in kets} for kets in basis] == [
        dict(zip(regions, combo)) for combo in itertools.product(*orders)]
    return in_order, dim, (_position_images, (tuple(orders),))


def _position_images(kets, orders):
    """One key: a tuple maps to its position in the qubit array whose slots
    take the kets of `orders`, one tuple of kets per region."""
    by_region = {k.region: k for k in kets}
    p = 0
    for o in orders:
        ket = by_region[o[0].region]
        if ket not in o:
            raise ValueError(f"{ket!r} has no place in the qubit layout")
        p = p * len(o) + o.index(ket)
    return [(None, 1.0, p)]


def to_qubit_array(dm):
    """Densify a reduced matrix into a standard tensor-ordered numpy array.

    Every remaining slot must carry at most a single DoF with at most two
    values.  Slots are ordered by region label; within a slot the DoF's
    declared eigenvalue order fixes |0>,|1>.  Tuples whose row and column
    are all zero are left out, so a basis already in qubit order is copied.
    A (k, N, N) stack gives a (k, dim, dim) array.
    """
    in_order, dim, rule = _layout_rule(tuple(dm.basis), tuple(dm.dof_specs))
    if in_order:
        return dm.data + 0.0  # + 0.0 stores -0.0 as +0.0, as the kernel does
    cells, data = _operator_sum(dm, rule)
    cells = np.array(cells, dtype=np.intp)
    out = np.zeros(data.shape[:-2] + (dim, dim), dtype=complex)
    out[..., cells[:, None], cells] = data
    return out
