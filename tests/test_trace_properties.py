"""Property tests of the trace rules.

The operator-sum engine in `qdof.trace` is checked against the per-entry
reference engine in `reference_trace` on random bosonic, fermionic and
distinguishable states (2-3 particles, bunched tuples, DoFs with 2 or 3
values) and on the circuit and catalogue states: same basis, same data within
1e-12 and the same exception.  A reduction keeps exactly the tuples whose
row or column has a non-zero entry, so every state may carry amplitudes near
1e-8, whose diagonal entries sit far below their cross terms.  Every reduced
matrix must be Hermitian, of unit trace and positive: along chains of
reductions that start from the sector of such tiny terms, and for traces
over two different subsystems, which must also commute.

On full-product states built by `trace._product_basis` the two DoF traces
take their dense branch, which must give the kernel's result bit for bit;
inputs just outside its conditions, a plain-tuple copy of such a basis
among them, must still reach the kernel.  The trace plans and qubit layouts
are cached, so a second pair grid on such a basis builds and lays out
nothing, and `to_qubit_array`'s short path must give the general path's
bytes.

The kernel replays a plan cached per basis, rule and support;
`_per_call_operator_sum`, the kernel as it was when it mapped every tuple
afresh on each call, is its byte-for-byte oracle, on the random and named
states and on states where many keys add into one entry, which is where the
order of the key sum shows in the last bits.

`to_qubit_array` lays matrices out through the kernel by a rule cached per
basis and specs; its array must equal, byte for byte (signed zeros
included), the one a rule built afresh on each call gives, and it must fail
with the same errors.  Its kernel plan is cached per support too, so a
second matrix on the same basis, with other rows zeroed, must still be laid
out (or fail) by its own rows.  Each chain of
drawn reductions ends with the layout: of its last matrix with one row and
column zeroed, then of that matrix, both against the per-entry engine.

A call that replays a cached plan must give the basis, bytes or error of a
call made with the plan caches cleared, and no plan may hold an array of
len(basis)**2 entries, such as a dense K or an unpacked mask.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import reference_trace as ref
from oracles import unshared_pair_grid
from qdof import fidelity, trace
from qdof.circuits import KINDS, PhaseConfig, li_circuit, pol_oam_pair
from qdof.measures import case_state, random_case
from qdof.states import (BOSON, DISTINGUISHABLE, FERMION, DegenerateStateError,
                         DensityMatrix, DofSpec, Ket, ShapeError, StackError,
                         SymState, normalize, to_density)
from qdof.trace import Subsystem

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                             database=None,
                             suppress_health_check=[HealthCheck.too_slow,
                                                    HealthCheck.filter_too_much])

ANGLE = st.floats(0.0, 2 * math.pi)


@st.composite
def random_states(draw):
    eta = draw(st.sampled_from([BOSON, FERMION, DISTINGUISHABLE]))
    n_particles = draw(st.integers(2, 3))
    sizes = draw(st.lists(st.integers(2, 3), min_size=1, max_size=2))
    specs = tuple(DofSpec(i + 1, tuple("xyz"[:d])) for i, d in enumerate(sizes))
    ket = st.builds(
        lambda region, values: Ket(region, tuple(
            (spec.index, v) for spec, v in zip(specs, values))),
        st.sampled_from("abc"),
        st.tuples(*[st.sampled_from(spec.values) for spec in specs]))
    # amplitudes of 1e-9 to 1e-7 give diagonal entries far smaller than
    # their cross terms with O(1) amplitudes; each keeps its tuple like any
    # other non-zero entry
    amplitude = st.one_of(
        st.complex_numbers(min_magnitude=1e-3, max_magnitude=1.0,
                           allow_nan=False, allow_infinity=False),
        st.sampled_from([1e-7, -3e-9, 1e-9j]))
    terms = draw(st.dictionaries(
        st.lists(ket, min_size=n_particles, max_size=n_particles).map(tuple),
        amplitude, min_size=1, max_size=6))
    try:
        return normalize(SymState(eta, terms, specs))
    except DegenerateStateError:
        assume(False)


@st.composite
def straddling_states(draw):
    """Large terms outside region c beside small terms that reach into c.

    Small amplitudes of 3e-9 to 3e-8 give entries among the small terms far
    below their cross terms with the large ones; tracing region c keeps only
    their sector.
    """
    eta = draw(st.sampled_from([BOSON, FERMION, DISTINGUISHABLE]))
    n_particles = draw(st.integers(2, 3))
    xy = DofSpec(1, ("x", "y"))

    def kets(regions):
        ket = st.builds(lambda region, v: Ket(region, ((1, v),)),
                        st.sampled_from(regions), st.sampled_from(xy.values))
        return st.lists(ket, min_size=n_particles,
                        max_size=n_particles).map(tuple)

    large = st.complex_numbers(min_magnitude=1e-3, max_magnitude=1.0,
                               allow_nan=False, allow_infinity=False)
    small = st.builds(lambda m, phase: m * phase, st.floats(3e-9, 3e-8),
                      st.sampled_from([1, -1, 1j, -1j]))
    terms = draw(st.dictionaries(kets("ab"), large, min_size=1, max_size=2))
    terms.update(draw(st.dictionaries(
        kets("abc").filter(lambda t: any(k.region == "c" for k in t)),
        small, min_size=2, max_size=3)))
    try:
        return normalize(SymState(eta, terms, (xy,)))
    except DegenerateStateError:
        assume(False)


@st.composite
def named_states(draw):
    source = draw(st.sampled_from(["li_circuit", "case_state", "pol_oam_pair"]))
    if source == "li_circuit":
        phases = PhaseConfig(*(draw(ANGLE) for _ in range(4)))
        return li_circuit(draw(st.sampled_from(KINDS)), phases)
    if source == "case_state":
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
        return case_state(random_case(draw(st.integers(1, 13)), rng))
    return pol_oam_pair(draw(ANGLE), draw(ANGLE))


STATES = st.one_of(random_states(), named_states())


def _run(fn, *args):
    try:
        return fn(*args), None
    except Exception as exc:  # the engines must fail alike
        return None, exc


def _assert_density_matrix(dm):
    assert np.allclose(dm.data, dm.data.conj().T, atol=1e-12)
    assert abs(np.trace(dm.data) - 1.0) < 1e-12
    assert np.linalg.eigvalsh(dm.data).min() > -1e-9


def _assert_same(new, old):
    if isinstance(old, np.ndarray):
        assert new.shape == old.shape
        assert np.allclose(new, old, rtol=0.0, atol=1e-12)
        return
    assert new.basis == old.basis
    assert new.n_dofs_orig == old.n_dofs_orig
    assert np.allclose(new.data, old.data, rtol=0.0, atol=1e-12)


def _draw_reduction(data, dm):
    """One (name, args) reduction step drawn against the current basis."""
    regions = sorted({k.region for kets in dm.basis for k in kets})
    dofs = sorted({i for kets in dm.basis for k in kets for i, _ in k.dofs})
    region = st.sampled_from(regions + ["elsewhere"])
    dof = st.sampled_from(dofs + [9])
    name = data.draw(st.sampled_from(
        ["project_one_per_region", "trace_region", "trace_dof_indist",
         "trace_dof_dist", "to_qubit_array"]))
    if name == "project_one_per_region":
        return name, (data.draw(st.lists(region, min_size=1, unique=True)),)
    if name == "trace_region":
        return name, (data.draw(region),)
    if name == "trace_dof_indist":
        return name, (Subsystem(data.draw(region), data.draw(dof)),)
    if name == "trace_dof_dist":
        return name, (data.draw(st.integers(-1, len(dm.basis[0]))),
                      data.draw(dof))
    return name, ()


def _same_result(name, dm, *args):
    """Run `name` on both engines: the same error, or the same result, which
    is returned (None after an error)."""
    new, new_exc = _run(getattr(trace, name), dm, *args)
    old, old_exc = _run(getattr(ref, name), dm, *args)
    assert type(new_exc) is type(old_exc), (name, args, new_exc, old_exc)
    if old_exc is not None:
        assert str(new_exc) == str(old_exc)
        return None
    _assert_same(new, old)
    return new


@PROPERTY_SETTINGS
@given(state=st.one_of(random_states(), named_states()),
       data=st.data())
def test_operator_sums_match_the_per_entry_engine(state, data):
    dm = to_density(state)
    for _ in range(data.draw(st.integers(1, 4))):
        name, args = _draw_reduction(data, dm)
        new = _same_result(name, dm, *args)
        if not isinstance(new, DensityMatrix):
            break
        dm = new
    # every chain ends with layouts, which a drawn step picks about one time
    # in five: of a copy with one row and column zeroed (another support on
    # the same basis), then of the matrix itself
    row = data.draw(st.integers(0, len(dm.basis) - 1))
    for other in (_zeroed(dm.data, row), dm.data):
        _same_result("to_qubit_array", DensityMatrix(
            dm.basis, other, dm.eta, dm.dof_specs, dm.n_dofs_orig))


@PROPERTY_SETTINGS
@given(state=straddling_states(), data=st.data())
def test_reduction_chains_stay_positive(state, data):
    # the first step keeps the sector of the small terms only
    dm = to_density(state)
    name, args = "trace_region", ("c",)
    steps = data.draw(st.integers(1, 4))
    for step in range(steps + 1):
        reduced, exc = _run(getattr(trace, name), dm, *args)
        if exc is not None:
            return
        if isinstance(reduced, np.ndarray):
            assert np.linalg.eigvalsh(reduced).min() > -1e-9
            return
        _assert_density_matrix(reduced)
        dm = reduced
        # the chain ends with a layout, as in the test above
        name, args = (_draw_reduction(data, dm) if step < steps - 1
                      else ("to_qubit_array", ()))


def _commute(first, second, dm):
    """first(second(dm)) == second(first(dm)), or both orders fail.

    Every reduced matrix on the way must be a density matrix.
    """
    a, a_exc = _run(lambda m: first(second(m)), dm)
    b, b_exc = _run(lambda m: second(first(m)), dm)
    assert (a_exc is None) == (b_exc is None), (a_exc, b_exc)
    for reduced in (_run(first, dm)[0], _run(second, dm)[0], a, b):
        if reduced is not None:
            _assert_density_matrix(reduced)
    if a_exc is None:
        assert a.basis == b.basis
        assert np.allclose(a.data, b.data, atol=1e-9)


@PROPERTY_SETTINGS
@given(state=STATES, data=st.data())
def test_reductions_are_density_matrices_and_commute(state, data):
    dm = to_density(state)
    regions = sorted({k.region for kets in dm.basis for k in kets})
    dofs = sorted({i for kets in dm.basis for k in kets for i, _ in k.dofs})
    assume(len(regions) >= 2)
    r1, r2 = data.draw(st.lists(st.sampled_from(regions), min_size=2,
                                max_size=2, unique=True))
    d1, d2 = (data.draw(st.sampled_from(dofs)) for _ in range(2))
    _commute(lambda m: trace.trace_region(m, r1),
             lambda m: trace.trace_region(m, r2), dm)
    if dm.eta == DISTINGUISHABLE:
        p1, p2 = (data.draw(st.integers(0, len(dm.basis[0]) - 1))
                  for _ in range(2))
        assume((p1, d1) != (p2, d2))
        _commute(lambda m: trace.trace_dof_dist(m, p1, d1),
                 lambda m: trace.trace_dof_dist(m, p2, d2), dm)
        return
    # the coherent DoF trace acts on the one-particle-per-region sector
    projected, exc = _run(trace.project_one_per_region, dm, regions)
    assume(exc is None)
    _commute(lambda m: trace.trace_dof_indist(m, Subsystem(r1, d1)),
             lambda m: trace.trace_dof_indist(m, Subsystem(r2, d2)), projected)


def _per_call_operator_sum(dm, rule):
    """`trace._operator_sum` before it tabled the images: every call maps
    each mapped tuple afresh; kept as its byte-for-byte oracle."""
    images_of, args = rule
    linked = trace._linked(dm)
    by_key = {}
    for col in np.flatnonzero(linked.any(axis=1)):
        for key, coeff, reduced in images_of(dm.basis[col], *args):
            by_key.setdefault(key, []).append((col, coeff, reduced))
    for key, images in by_key.items():
        reach = linked[:, [col for col, _, _ in images]].any(axis=1)
        by_key[key] = [im for im in images if reach[im[0]]]
    basis = tuple(sorted({r for images in by_key.values() for _, _, r in images}))
    index = {b: i for i, b in enumerate(basis)}
    data = np.zeros((len(basis), len(basis)), dtype=complex)
    for images in by_key.values():
        k = np.zeros((len(basis), len(dm.basis)), dtype=complex)
        for col, coeff, reduced in images:
            k[index[reduced], col] += coeff
        data += k @ dm.data @ k.conj().T
    return basis, data


def _assert_same_operator_sum(dm, rule):
    new, new_exc = _run(trace._operator_sum, dm, rule)
    old, old_exc = _run(_per_call_operator_sum, dm, rule)
    assert type(new_exc) is type(old_exc), (new_exc, old_exc)
    if old_exc is not None:
        assert str(new_exc) == str(old_exc)
        return
    assert new[0] == old[0]
    assert new[1].tobytes() == old[1].tobytes()


def _draw_rule(data, dm):
    """One of the trace rules, (images function, arguments), drawn against
    the basis."""
    regions = sorted({k.region for kets in dm.basis for k in kets})
    dofs = sorted({i for kets in dm.basis for k in kets for i, _ in k.dofs})
    region = data.draw(st.sampled_from(regions))
    dof = data.draw(st.sampled_from(dofs + [9]))
    return data.draw(st.sampled_from([
        (trace._slot_images, (region, dm.eta, None)),
        (trace._slot_images, (region, dm.eta, dof)),
        (trace._value_images,
         (data.draw(st.integers(0, len(dm.basis[0]) - 1)), dof)),
        (trace._sector_images, (tuple(sorted(
            data.draw(st.lists(st.sampled_from(regions), min_size=1,
                               unique=True)))),)),
    ]))


@PROPERTY_SETTINGS
@given(state=st.one_of(random_states(), straddling_states(),
                       named_states()),
       data=st.data())
def test_tabled_operator_sum_matches_the_per_call_kernel_byte_for_byte(state,
                                                                      data):
    dm = to_density(state)
    for _ in range(data.draw(st.integers(1, 3))):
        rule = _draw_rule(data, dm)
        _assert_same_operator_sum(dm, rule)
        # and again on the same basis with other data, from the warm table
        rows = data.draw(st.lists(st.integers(0, len(dm.basis) - 1),
                                  max_size=2))
        other = dm.data.copy()
        other[rows, :] = other[:, rows] = 0.0
        _assert_same_operator_sum(
            DensityMatrix(dm.basis, other, dm.eta, dm.dof_specs, dm.n_dofs_orig),
            rule)


@pytest.mark.parametrize("eta", [BOSON, FERMION, DISTINGUISHABLE])
def test_many_keys_into_one_entry_sum_in_the_per_call_order(eta):
    """Nine kets at region a beside two at b: tracing a adds nine keys into
    each entry of b, and tracing DoF 1 of slot 0 adds three."""
    rng = np.random.default_rng(5)
    specs = (DofSpec(1, ("x", "y", "z")), DofSpec(2, ("u", "v", "w")))
    terms = {(Ket("a", ((1, s), (2, t))), Ket("b", ((1, q), (2, "u")))):
             complex(*rng.normal(size=2))
             for s in "xyz" for t in "uvw" for q in "xy"}
    dm = to_density(normalize(SymState(eta, terms, specs)))
    _assert_same_operator_sum(dm, (trace._slot_images, ("a", eta, None)))
    _assert_same_operator_sum(dm, (trace._slot_images, ("a", eta, 1)))
    _assert_same_operator_sum(dm, (trace._value_images, (0, 1)))


def _product_density(eta, regions, values, rng, mixture):
    """Random matrix on the sorted full product; `values[r]` lists the value
    tuple of each DoF of region r.  A product of two-valued DoFs is built by
    `trace._product_basis`, so it carries its slots; any other stays a plain
    tuple."""
    per_slot = [[Ket(region, tuple(enumerate(combo, start=1)))
                 for combo in itertools.product(*map(sorted, vals))]
                for region, vals in zip(regions, values)]
    basis = tuple(itertools.product(*per_slot))
    if all(len(v) == 2 for vals in values for v in vals):
        product = trace._product_basis(tuple(
            (region, tuple(enumerate(map(tuple, map(sorted, vals)), start=1)))
            for region, vals in zip(regions, values)))
        assert product == basis
        basis = product
    dim = len(basis)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    data = np.outer(v, v.conj())
    if mixture == "mixed":
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        data = a @ a.conj().T
    elif mixture == "noisy":
        data = 0.3 * data / np.trace(data).real + 0.7 * np.eye(dim) / dim
    ndof = max(len(vals) for vals in values)
    specs = tuple(DofSpec(i, vals) for i, vals in
                  enumerate(max(values, key=len), start=1))
    return DensityMatrix(basis, data / np.trace(data).real, eta, specs, ndof)


@st.composite
def product_densities(draw):
    """Two regions with 1-3 two-valued DoFs each, pure, mixed or noisy."""
    eta = draw(st.sampled_from([BOSON, FERMION, DISTINGUISHABLE]))
    regions = (draw(st.sampled_from([("A", "B"), ("B", "A")]))
               if eta == DISTINGUISHABLE else ("s1", "s2"))
    labels = draw(st.sampled_from([("0", "1"), ("dn", "up"), ("V", "H")]))
    values = [(labels,) * draw(st.integers(1, 3)) for _ in regions]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mixture = draw(st.sampled_from(["pure", "mixed", "noisy"]))
    return _product_density(eta, regions, values, rng, mixture)


def _kernel_only(fn, *args):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trace, "_product_slots", lambda dm: None)
        return fn(*args)


@PROPERTY_SETTINGS
@given(dm=product_densities(), data=st.data())
def test_dense_branch_matches_the_kernel_bit_for_bit(dm, data):
    dense_calls = []
    dense_trace = trace._dense_trace

    def spy(*args, **kwargs):
        dense_calls.append(args[3])
        return dense_trace(*args, **kwargs)

    for _ in range(data.draw(st.integers(1, 3))):
        assert trace._product_slots(dm) is not None
        slots = [s for s, k in enumerate(dm.basis[0]) if k.dofs]
        if not slots:
            return
        slot = data.draw(st.sampled_from(slots))
        ket = dm.basis[0][slot]
        dof = data.draw(st.sampled_from([i for i, _ in ket.dofs]))
        if dm.eta == DISTINGUISHABLE and data.draw(st.booleans()):
            fn, args = trace.trace_dof_dist, (slot, dof)
        else:
            fn, args = trace.trace_dof_indist, (Subsystem(ket.region, dof),)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(trace, "_dense_trace", spy)
            reduced = fn(dm, *args)
        kernel = _kernel_only(fn, dm, *args)
        assert reduced.basis == kernel.basis
        assert reduced.n_dofs_orig == kernel.n_dofs_orig
        assert np.array_equal(reduced.data, kernel.data)
        # single-DoF layouts trace the region (on the kernel) instead, which
        # leaves a plain tuple: the chain ends there
        if fn is not trace.trace_dof_dist and dm.n_dofs_orig <= 1:
            return
        assert dense_calls[-1] == dof
        dm = reduced


def _li_projected():
    state = li_circuit("boson", PhaseConfig(0.1, 0.2, 0.3, 0.4))
    return trace.project_one_per_region(to_density(state), ["s1", "s2"])


def _zero_row(eta):
    """A pure full product with tuple 3's row and column zeroed: the kernel
    leaves that tuple out."""
    rng = np.random.default_rng(5)
    dm = _product_density(eta, ("s1", "s2"), [(("0", "1"),) * 2] * 2, rng,
                          "pure")
    dm.data[3, :] = dm.data[:, 3] = 0.0
    return dm


def _three_valued(eta):
    rng = np.random.default_rng(6)
    return _product_density(eta, ("s1", "s2"), [(("x", "y", "z"), ("0", "1"))] * 2,
                            rng, "mixed")


def _regions_out_of_order(eta):
    """A full product with slot regions (s2, s1): not canonical tuples for
    the symmetrized kinds."""
    rng = np.random.default_rng(10)
    return _product_density(eta, ("s2", "s1"), [(("0", "1"),) * 2] * 2, rng,
                            "mixed")


def _unsorted_basis(eta):
    rng = np.random.default_rng(7)
    dm = _product_density(eta, ("s1", "s2"), [(("0", "1"),) * 2] * 2, rng,
                          "mixed")
    order = [0, 2, 1] + list(range(3, len(dm.basis)))
    return DensityMatrix(tuple(dm.basis[i] for i in order),
                         dm.data[np.ix_(order, order)], eta, dm.dof_specs,
                         dm.n_dofs_orig)


def _refuse_dense(*args, **kwargs):
    raise AssertionError("dense branch taken")


@pytest.mark.parametrize("dm, fn, args", [
    (_zero_row(BOSON), "trace_dof_indist", (Subsystem("s1", 2),)),
    (_zero_row(DISTINGUISHABLE), "trace_dof_dist", (0, 2)),
    (_three_valued(FERMION), "trace_dof_indist", (Subsystem("s2", 2),)),
    (_three_valued(DISTINGUISHABLE), "trace_dof_dist", (1, 1)),
    (_unsorted_basis(BOSON), "trace_dof_indist", (Subsystem("s2", 1),)),
    (_unsorted_basis(DISTINGUISHABLE), "trace_dof_dist", (0, 1)),
    (_regions_out_of_order(BOSON), "trace_dof_indist", (Subsystem("s2", 1),)),
    (_li_projected(), "trace_dof_indist", (Subsystem("s1", 1),)),
], ids=["zero-row-indist", "zero-row-dist",
        "three-valued-indist", "three-valued-dist", "unsorted-basis-indist",
        "unsorted-basis-dist", "regions-out-of-order-indist", "li_circuit"])
def test_inputs_outside_the_dense_branch_take_the_kernel(monkeypatch, dm, fn,
                                                          args):
    monkeypatch.setattr(trace, "_dense_trace", _refuse_dense)
    _assert_same(getattr(trace, fn)(dm, *args), getattr(ref, fn)(dm, *args))


@pytest.mark.parametrize("eta, fn, args", [
    (BOSON, "trace_dof_indist", (Subsystem("A", 2),)),
    (DISTINGUISHABLE, "trace_dof_dist", (1, 1)),
], ids=["indist", "dist"])
def test_plain_tuple_copy_of_a_product_basis_takes_the_kernel(eta, fn, args):
    """A full product not built by `_product_basis` carries no slots: it
    takes the kernel, which gives the dense branch's bytes."""
    rng = np.random.default_rng(11)
    dm = _product_density(eta, ("A", "B"), [(("0", "1"),) * 2] * 2, rng,
                          "mixed")
    assert trace._product_slots(dm) is not None
    dense = getattr(trace, fn)(dm, *args)
    copy = DensityMatrix(tuple(dm.basis), dm.data, eta, dm.dof_specs,
                         dm.n_dofs_orig)
    assert type(copy.basis) is tuple and copy.basis == dm.basis
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trace, "_dense_trace", _refuse_dense)
        kernel = getattr(trace, fn)(copy, *args)
    assert kernel.basis == dense.basis
    assert kernel.data.tobytes() == dense.data.tobytes()


@pytest.mark.parametrize("slots, message", [
    ((("s1", ((1, ("x", "y", "z")),)), ("s2", ((1, ("x", "y")),))),
     "two values"),
    ((("s1", ((1, ("y", "x")),)), ("s2", ((1, ("x", "y")),))), "sorted order"),
    ((("s1", ((1, ("x", "y")),)), ("s1", ((1, ("x", "y")),))), "distinct region"),
], ids=["three-valued", "unsorted-values", "repeated-region"])
def test_product_basis_rejects_what_the_dense_branch_cannot_take(slots,
                                                                 message):
    with pytest.raises(ValueError, match=message):
        trace._product_basis(slots)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", ["distinguishable", "indistinguishable"])
def test_a_second_grid_builds_no_plan_and_lays_out_no_basis(kind, n):
    layout = fidelity.ChannelLayout(kind, n)
    fidelity._pair_matrices(fidelity.two_param_state(0.37, layout), layout)
    caches = (trace._dense_plan, trace._layout_rule, trace._kernel_plan)
    misses = [cache.cache_info().misses for cache in caches]
    dm = fidelity.two_param_state(0.8, layout)
    grid = fidelity._pair_matrices(dm, layout)
    assert [cache.cache_info().misses for cache in caches] == misses
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trace, "_product_slots", lambda dm: None)
        kernel = fidelity._pair_matrices(
            DensityMatrix(tuple(dm.basis), dm.data, dm.eta, dm.dof_specs,
                          dm.n_dofs_orig), layout)
    assert grid.tobytes() == kernel.tobytes()


def _kernel_qubit_array(dm):
    """The qubit array through the operator-sum kernel, with a layout rule
    built afresh on every call: the byte-for-byte oracle of
    `to_qubit_array`'s cached rule and of its copy path."""
    nslots = len(dm.basis[0])
    regions = sorted({k.region for kets in dm.basis for k in kets})
    if len(regions) != nslots:
        raise ShapeError("subsystem count does not match remaining slots")
    orders = []
    for r in regions:
        slot_kets = sorted({k for kets in dm.basis for k in kets if k.region == r})
        idxs = {i for k in slot_kets for i, _ in k.dofs}
        if len(idxs) > 1:
            raise ShapeError(f"region {r!r} still carries several DoFs")
        if idxs:
            di = next(iter(idxs))
            declared = dm.value_order(di)
            if len(declared) == 2:
                use = declared
            else:
                use = [v for v in declared if any(k.value(di) == v for k in slot_kets)]
            if len(use) > 2:
                raise ShapeError(f"region {r!r} is not a qubit here")
            orders.append([Ket(r, ((di, v),)) for v in use])
        else:
            orders.append([Ket(r)])
    dims = [len(o) for o in orders]
    dim = int(np.prod(dims))
    out = np.zeros((dim, dim), dtype=complex)

    def embed(kets):
        by_region = {k.region: k for k in kets}
        pos = 0
        for o, d in zip(orders, dims):
            ket = by_region[o[0].region]
            if ket not in o:
                raise ValueError(f"{ket!r} has no place in the qubit layout")
            pos = pos * d + o.index(ket)
        return [(None, 1.0, pos)]

    positions, data = trace._operator_sum(dm, (embed, ()))
    out[np.ix_(np.array(positions, dtype=int), np.array(positions, dtype=int))] = data
    return out


def _with_negative_zeros(dm):
    """`dm` with every zero real or imaginary part stored as -0.0."""
    re, im = dm.data.real.copy(), dm.data.imag.copy()
    re[re == 0] = -0.0
    im[im == 0] = -0.0
    data = np.empty_like(dm.data)
    data.real, data.imag = re, im
    return DensityMatrix(dm.basis, data, dm.eta, dm.dof_specs, dm.n_dofs_orig)


def _assert_same_layout(dm):
    new, new_exc = _run(trace.to_qubit_array, dm)
    old, old_exc = _run(_kernel_qubit_array, dm)
    assert type(new_exc) is type(old_exc), (new_exc, old_exc)
    if old_exc is not None:
        assert str(new_exc) == str(old_exc)
        return
    assert new.shape == old.shape
    assert new.tobytes() == old.tobytes()


@st.composite
def qubit_states(draw):
    """One particle in each of 2-3 regions, each with one two-valued DoF:
    states `to_qubit_array` lays out without a reduction.  Real, imaginary
    and tiny amplitudes leave exact zeros inside the kept block."""
    eta = draw(st.sampled_from([BOSON, FERMION, DISTINGUISHABLE]))
    regions = draw(st.sampled_from(["ab", "abc", "ba", "cab"]))
    xy = DofSpec(1, ("x", "y"))
    kets = st.tuples(*[st.sampled_from(xy.values) for _ in regions]).map(
        lambda values: tuple(Ket(r, ((1, v),)) for r, v in zip(regions, values)))
    amplitude = st.one_of(st.floats(-1.0, 1.0).filter(lambda a: abs(a) > 1e-3),
                          st.sampled_from([1j, -0.5j, 1e-9, -3e-9j]),
                          st.complex_numbers(min_magnitude=1e-3, max_magnitude=1.0,
                                             allow_nan=False, allow_infinity=False))
    terms = draw(st.dictionaries(kets, amplitude, min_size=1, max_size=5))
    try:
        return normalize(SymState(eta, terms, (xy,)))
    except DegenerateStateError:
        assume(False)


def _layout_after_steps(dm, negative_zeros, data):
    """Reduce `dm` by 0-3 drawn steps, then compare the two layouts."""
    for _ in range(data.draw(st.integers(0, 3))):
        name, args = _draw_reduction(data, dm)
        if name == "to_qubit_array":
            break
        reduced, exc = _run(getattr(trace, name), dm, *args)
        if exc is not None:
            break
        dm = reduced
    if negative_zeros:
        dm = _with_negative_zeros(dm)
    _assert_same_layout(dm)


@PROPERTY_SETTINGS
@given(state=st.one_of(random_states(), straddling_states(),
                       named_states()),
       negative_zeros=st.booleans(), data=st.data())
def test_qubit_layout_matches_the_kernel_byte_for_byte(state, negative_zeros,
                                                       data):
    _layout_after_steps(to_density(state), negative_zeros, data)


@PROPERTY_SETTINGS
@given(state=qubit_states(), negative_zeros=st.booleans(), data=st.data())
def test_qubit_layout_of_qubit_states_matches_the_kernel_byte_for_byte(
        state, negative_zeros, data):
    _layout_after_steps(to_density(state), negative_zeros, data)


def _swapped_slots(n_particles):
    """Distinguishable particles over every slot order of regions a, b, c:
    several basis tuples land on one qubit-array position."""
    xy = DofSpec(1, ("x", "y"))
    regions = "abc"[:n_particles]
    rng = np.random.default_rng(n_particles)
    terms = {}
    for order in itertools.permutations(regions):
        for values in itertools.product("xy", repeat=n_particles):
            amp = complex(rng.normal(), rng.normal())
            terms[tuple(Ket(r, ((1, v),)) for r, v in zip(order, values))] = amp
    return to_density(normalize(SymState(DISTINGUISHABLE, terms, (xy,))))


def _swapped_half_zero():
    """`_swapped_slots(2)` with the (b, a) half zeroed, so only the (a, b)
    tuples, already in qubit order, are laid out."""
    dm = _swapped_slots(2)
    low = [i for i, kets in enumerate(dm.basis) if kets[0].region == "b"]
    dm.data[low, :] = dm.data[:, low] = 0.0
    return dm


def _slots_out_of_order():
    """Distinguishable particles in slots (b, a) on three of the four value
    pairs: the layout reorders the tuples and leaves a position empty."""
    xy = DofSpec(1, ("x", "y"))
    terms = {(Ket("b", ((1, vb),)), Ket("a", ((1, va),))): amp
             for vb, va, amp in (("y", "y", 0.3 + 0.4j), ("y", "x", -2j),
                                 ("x", "y", -0.5))}
    return to_density(normalize(SymState(DISTINGUISHABLE, terms, (xy,))))


def _misfit(tuples):
    """Equal superposition of boson `tuples` that no qubit array can hold."""
    xyz = DofSpec(1, ("x", "y", "z"))
    return to_density(normalize(SymState(
        BOSON, {t: 1.0 for t in tuples}, (xyz, DofSpec(2, ("0", "1"))))))


def _zero_row_pair():
    rng = np.random.default_rng(8)
    dm = _product_density(BOSON, ("s1", "s2"), [(("0", "1"),)] * 2, rng, "mixed")
    dm.data[1, :] = dm.data[:, 1] = 0.0
    return dm


def _li_pair():
    dm = _li_projected()
    for region in ("s1", "s2"):
        dm = trace.trace_dof_indist(dm, Subsystem(region, 2))
    return dm


@pytest.mark.parametrize("dm, message", [
    (_zero_row_pair(), None),
    (_li_pair(), None),
    (_with_negative_zeros(_li_pair()), None),
    (_swapped_slots(2), None),
    (_swapped_slots(3), None),
    (_swapped_half_zero(), None),
    (_with_negative_zeros(_swapped_slots(2)), None),
    (_with_negative_zeros(_slots_out_of_order()), None),
    (_misfit([(Ket("a", ((1, "x"),)), Ket("a", ((1, "y"),)))]),
     "subsystem count does not match remaining slots"),
    (_misfit([(Ket("a", ((1, "x"), (2, "0"))), Ket("b", ((1, "y"),)))]),
     "region 'a' still carries several DoFs"),
    (_misfit([(Ket("a", ((1, v),)), Ket("b", ((1, "x"),))) for v in "xyz"]),
     "region 'a' is not a qubit here"),
], ids=["zero-row", "li-circuit-pair", "li-circuit-pair-negative-zeros",
        "swapped-2", "swapped-3", "swapped-half-zero",
        "swapped-2-negative-zeros", "slots-out-of-order-negative-zeros",
        "slot-count", "several-dofs", "not-a-qubit"])
def test_qubit_layout_edge_cases_match_the_kernel(dm, message):
    _assert_same_layout(dm)
    if message is not None:
        with pytest.raises(ShapeError) as exc:
            trace.to_qubit_array(dm)
        assert str(exc.value) == message


def _zeroed(data, row):
    data = data.copy()
    data[row, :] = data[:, row] = 0.0
    return data


def _product_pair():
    """A full-rank two-qubit matrix, then row 1 of it zeroed."""
    rng = np.random.default_rng(8)
    dm = _product_density(BOSON, ("s1", "s2"), [(("0", "1"),)] * 2, rng, "mixed")
    return dm, [dm.data, _zeroed(dm.data, 1)]


def _bunched_pair():
    """Bosons at (a, b) beside a bunched (a, a) tuple, which has no position
    in the qubit array: first zeroed, then kept."""
    xy = DofSpec(1, ("x", "y"))
    bunched = (Ket("a", ((1, "x"),)), Ket("a", ((1, "y"),)))
    terms = {(Ket("a", ((1, "x"),)), Ket("b", ((1, v),))): amp
             for v, amp in (("x", 0.6), ("y", -0.3j))}
    terms[bunched] = 0.2
    dm = to_density(normalize(SymState(BOSON, terms, (xy,))))
    return dm, [_zeroed(dm.data, dm.basis.index(bunched)), dm.data]


@pytest.mark.parametrize("case", [_product_pair, _bunched_pair],
                         ids=["zero-row-second", "bunched-kept-second"])
def test_qubit_layout_takes_each_calls_rows(case):
    """Two calls on one basis object lay out (or reject) the rows each
    call's own data keeps."""
    dm, datas = case()
    for data in datas:
        _assert_same_layout(DensityMatrix(dm.basis, data, dm.eta, dm.dof_specs,
                                          dm.n_dofs_orig))


def _qubit_pair(data=None, specs=None):
    """A two-qubit matrix on a `ProductBasis`, with other data or specs."""
    rng = np.random.default_rng(12)
    dm = _product_density(BOSON, ("s1", "s2"), [(("0", "1"),)] * 2, rng, "mixed")
    return DensityMatrix(dm.basis, dm.data if data is None else data, dm.eta,
                         specs or dm.dof_specs, dm.n_dofs_orig)


def _zero_diagonal_entry():
    dm = _qubit_pair()
    dm.data[2, 2] = 0.0
    return dm


@pytest.mark.parametrize("dm, short", [
    (_qubit_pair(), True),
    (_with_negative_zeros(_qubit_pair(_qubit_pair().data.real + 0j)), True),
    (_zero_diagonal_entry(), False),
    (_qubit_pair(specs=(DofSpec(1, ("1", "0")),)), False),
], ids=["full", "negative-zeros", "zero-diagonal-entry", "reversed-values"])
def test_qubit_layout_short_path_matches_the_general_path(monkeypatch, dm,
                                                           short):
    """On a `ProductBasis` in qubit order with every diagonal entry non-zero,
    `to_qubit_array` copies the matrix without laying it out; its bytes
    are those of a plain-tuple copy of the basis, which takes the general
    path, and those of the kernel's layout."""
    assert type(dm.basis) is trace.ProductBasis
    masks = []
    linked = trace._linked
    monkeypatch.setattr(trace, "_linked", lambda dm: masks.append(dm) or linked(dm))
    got = trace.to_qubit_array(dm)
    assert (masks == []) is short
    plain = DensityMatrix(tuple(dm.basis), dm.data, dm.eta, dm.dof_specs,
                          dm.n_dofs_orig)
    assert got.tobytes() == trace.to_qubit_array(plain).tobytes()
    assert got.tobytes() == _kernel_qubit_array(dm).tobytes()


def _clear_plans():
    for cache in (trace._kernel_plan, trace._layout_rule, trace._dense_plan):
        cache.cache_clear()


def _assert_same_bytes(got, want):
    """Two `_run` results: the same error, or the same basis and bytes."""
    (new, new_exc), (old, old_exc) = got, want
    assert type(new_exc) is type(old_exc), (new_exc, old_exc)
    assert str(new_exc) == str(old_exc)
    if old is not None:
        if not isinstance(old, np.ndarray):
            assert new.basis == old.basis
            new, old = new.data, old.data
        assert new.shape == old.shape
        assert new.tobytes() == old.tobytes()


@PROPERTY_SETTINGS
@given(state=st.one_of(random_states(), straddling_states(),
                       named_states(), qubit_states()),
       data=st.data())
def test_warm_plans_give_a_cold_calls_basis_and_bytes(state, data):
    """Drawn reductions, then the qubit layout, on a matrix and on a copy
    with one mapped row and column zeroed (another support on the same
    basis): a call that replays a cached plan gives the basis, bytes or
    error of a call made just after the plan caches were cleared."""
    dm = to_density(state)
    mapped = np.flatnonzero(trace._linked(dm).any(axis=1))
    assume(mapped.size)
    other = dm.data.copy()
    row = data.draw(st.sampled_from(mapped.tolist()))
    other[row, :] = other[:, row] = 0.0
    matrices = (dm, DensityMatrix(dm.basis, other, dm.eta, dm.dof_specs,
                                  dm.n_dofs_orig))
    steps = [_draw_reduction(data, dm)
             for _ in range(data.draw(st.integers(1, 3)))]
    for name, args in steps + [("to_qubit_array", ())]:
        fn = getattr(trace, name)
        cold = []
        for m in matrices:
            _clear_plans()
            cold.append(_run(fn, m, *args))
        # the first round fills the caches with both supports' plans, the
        # second replays them
        for _ in range(2):
            for m, want in zip(matrices, cold):
                _assert_same_bytes(_run(fn, m, *args), want)


def _arrays(plan):
    if isinstance(plan, np.ndarray):
        yield plan
    elif isinstance(plan, tuple):
        for part in plan:
            yield from _arrays(part)


@pytest.mark.parametrize("kind, n", [("distinguishable", 5),
                                     ("indistinguishable", 5)])
def test_plans_hold_no_dense_map(monkeypatch, kind, n):
    """The p = 1 endpoint of a five-DoF pair grid runs on the kernel, its
    DoF traces and its qubit layouts alike.  No array a plan holds has
    len(basis)**2 or more entries, nor more than one per tuple and slot of
    its basis, so no plan pins a dense K or an unpacked mask."""
    held = []

    def spy(basis, *args, fn=trace._kernel_plan):
        plan = fn(basis, *args)
        held.append((basis, plan))
        return plan

    monkeypatch.setattr(trace, "_kernel_plan", spy)
    layout = fidelity.ChannelLayout(kind, n)
    fidelity._pair_matrices(fidelity.two_param_state(1.0, layout), layout)
    assert max(len(basis) for basis, _ in held) >= 256
    # a layout's reduced basis holds array positions, a trace's ket tuples
    assert {type(reduced[0]) for _, (reduced, _) in held} == {int, tuple}
    for basis, plan in held:
        for a in _arrays(plan):
            assert a.size < len(basis) ** 2
            assert a.size <= len(basis) * len(basis[0])


def _row_matrices(kind, n, i, k, rng):
    """k random matrices on the basis of a pair-grid row: party 1 keeps its
    DoF i, party 2 all its n DoFs, each two-valued, as `trace._product_basis`
    builds it."""
    regions, eta = ((("A", "B"), DISTINGUISHABLE) if kind == "distinguishable"
                    else (("s1", "s2"), BOSON))
    values = ("0", "1")
    basis = trace._product_basis((
        (regions[0], ((i, values),)),
        (regions[1], tuple((j, values) for j in range(1, n + 1)))))
    dim = len(basis)
    data = np.empty((k, dim, dim), dtype=complex)
    for m in range(k):
        a = rng.normal(size=(dim, 1 + m)) + 1j * rng.normal(size=(dim, 1 + m))
        data[m] = a @ a.conj().T  # rank 1 + m
    specs = tuple(DofSpec(j, values) for j in range(1, n + 1))
    return basis, data, eta, specs


def _planted_zero(n, rng):
    """A pure indistinguishable state of `n` >= 2 DoFs per region whose
    party-1 row n, the last matrix of the stack, alone has amplitudes at
    B_2 = 1 that are minus those at B_2 = 0 (where A_n = B_1 = B_3 = ... =
    0): tracing B_2 coherently leaves that row with a diagonal entry of
    exactly 0, as sums of negated terms are the negated sums."""
    layout = fidelity.ChannelLayout("indistinguishable", n)
    basis, eta, specs = fidelity._space(layout)
    t = (rng.normal(size=(2,) * (2 * n))
         + 1j * rng.normal(size=(2,) * (2 * n)))
    at = (slice(None),) * (n - 1) + (0, 0)
    t[at + (1,) + (0,) * (n - 2)] = -t[at + (0,) + (0,) * (n - 2)]
    v = t.reshape(-1) / np.linalg.norm(t)
    return layout, DensityMatrix(basis, np.outer(v, v.conj()), eta, specs, n)


@PROPERTY_SETTINGS
@given(kind=st.sampled_from(["distinguishable", "indistinguishable"]),
       n=st.integers(1, 5), k=st.integers(1, 4), data=st.data(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_a_stack_gives_each_matrix_its_bytes_alone(kind, n, k, data, seed):
    """A (k, N, N) stack of pair-grid rows through party 2's dense DoF
    traces and the qubit layout: every matrix gets the basis and bytes it
    gets alone (n = 4-5 rows of 32-64 tuples give traces of 8 or more
    entries, which numpy sums pairwise).  The
    kernel, `check`, `trace`, `to_json` and `to_csv` refuse the stack.  A
    planted zero diagonal entry in one row's coherent trace sends the pair
    grid's stack back to row by row, with the unshared grid's bytes."""
    rng = np.random.default_rng(seed)
    i = data.draw(st.integers(1, n))
    basis, matrices, eta, specs = _row_matrices(kind, n, i, k, rng)
    stack = DensityMatrix(basis, matrices, eta, specs, n)
    if kind == "distinguishable":
        rule = trace.trace_dof_dist
    else:
        def rule(dm, side, j):
            return trace.trace_dof_indist(dm, Subsystem(("s1", "s2")[side], j))
    pairs = fidelity._each_dof(stack, 1, rule, n)
    for m in range(k):
        alone = fidelity._each_dof(
            DensityMatrix(basis, matrices[m], eta, specs, n), 1, rule, n)
        for pair, single in zip(pairs, alone):
            assert pair.basis is single.basis
            assert pair.data[m].tobytes() == single.data.tobytes()
            assert (trace.to_qubit_array(pair)[m].tobytes()
                    == trace.to_qubit_array(single).tobytes())

    refusals = [lambda: trace._operator_sum(stack, (trace._value_images, (1, 1))),
                stack.check, lambda: stack.trace, stack.to_json, stack.to_csv]
    for refuse in refusals:
        with pytest.raises(ShapeError):
            refuse()

    if kind == "indistinguishable" and n >= 2:
        layout, dm = _planted_zero(n, rng)
        refused = []
        operator_sum = trace._operator_sum

        def spy(dm, rule):
            refused.append(dm.data.ndim == 3)
            return operator_sum(dm, rule)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(trace, "_operator_sum", spy)
            grid = fidelity._pair_matrices(dm, layout)
        assert refused[0]  # the stack reached the kernel first
        assert grid.tobytes() == unshared_pair_grid(dm, layout).tobytes()



def _divided(data):
    """`trace._renormalized`'s arithmetic as first written: each matrix
    divided by its real trace."""
    tr = data.trace(axis1=-2, axis2=-1).real
    return data / (tr if data.ndim == 2 else tr[:, None, None])


def _negative_zeros(data):
    """How many real or imaginary parts of `data` are -0.0."""
    return sum(np.count_nonzero((part == 0) & np.signbit(part))
               for part in (data.real, data.imag))


def _signed_zero_matrices(kind, n, k, rng):
    """Random matrices on the product basis of `fidelity._space`, one or a
    stack of `k`, with about a third of the real and of the imaginary parts
    set to +0.0 and a third to -0.0, and a positive real diagonal, so that
    the dense branch takes them."""
    basis, eta, specs = fidelity._space(fidelity.ChannelLayout(kind, n))
    dim = len(basis)
    shape = (dim, dim) if k is None else (k, dim, dim)
    data = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    for part in (data.real, data.imag):
        draw = rng.random(shape)
        part[draw < 1 / 3] = 0.0
        part[draw > 2 / 3] = -0.0
    diagonal = np.arange(dim)
    data[..., diagonal, diagonal] = rng.uniform(0.5, 1.0, size=shape[:-1])
    return DensityMatrix(basis, data, eta, specs, n)


@pytest.mark.parametrize("k", [None, 3], ids=["single", "stack"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["distinguishable", "indistinguishable"])
def test_reductions_store_no_negative_zero_and_renormalize_by_division(kind,
                                                                       n, k):
    """Every dense DoF trace of a matrix with planted -0.0 parts (a stack
    too) and every kernel reduction of one (each DoF and region trace)
    returns no -0.0 part.  So `_renormalized`, which multiplies by the
    reciprocal trace, gives the bytes of the division `_divided` on what
    both branches hand it: the two differ only on -0.0 parts.  A one-DoF
    indistinguishable region is traced on the kernel, which takes no
    stack."""
    rng = np.random.default_rng(1000 * n + (k or 0))
    dm = _signed_zero_matrices(kind, n, k, rng)
    assert _negative_zeros(dm.data) > 0
    product, coherent = dm.basis, kind == "indistinguishable"
    if coherent and n == 1 and k is not None:
        with pytest.raises(StackError):
            trace.trace_dof_indist(dm, Subsystem(product.regions[0], 1))
        return
    for slot, region in enumerate(product.regions):
        for dof in range(1, n + 1):
            if coherent:
                reduced = trace.trace_dof_indist(dm, Subsystem(region, dof))
            else:
                reduced = trace.trace_dof_dist(dm, slot, dof)
            assert _negative_zeros(reduced.data) == 0
            if not (coherent and n == 1):
                basis, data = trace._dense_trace(dm, product, slot, dof,
                                                 coherent)
                assert _negative_zeros(data) == 0
                got = trace._renormalized(dm, basis, data.copy(), "")
                assert got.data.tobytes() == _divided(data).tobytes()
            if k is not None:
                continue
            plain = DensityMatrix(tuple(product), dm.data, dm.eta,
                                  dm.dof_specs, n)
            rules = [(trace._slot_images, (region, dm.eta, None))]
            if coherent:
                rules.append((trace._slot_images, (region, dm.eta, dof)))
            else:
                rules.append((trace._value_images, (slot, dof)))
            for rule in rules:
                basis, data = trace._operator_sum(plain, rule)
                assert _negative_zeros(data) == 0
                got = trace._renormalized(plain, basis, data.copy(), "")
                assert got.data.tobytes() == _divided(data).tobytes()
