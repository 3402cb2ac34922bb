"""Property tests of the trace rules.

The operator-sum engine in `qdof.trace` is checked against the per-entry
reference engine in `reference_trace` on random bosonic, fermionic and
distinguishable states (2-3 particles, bunched tuples, DoFs with 2 or 3
values) and on the circuit and catalogue states: same basis, same data within
1e-12 and the same exception.  Every reduced matrix must be Hermitian, of
unit trace and positive: along chains of reductions that start from the
sector of terms whose entries straddle the 1e-16 weight cut, and, on states
whose amplitudes stay well above that cut, for traces over two different
subsystems, which must also commute.
"""

import math

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import reference_trace as ref
from qdof import trace
from qdof.circuits import KINDS, PhaseConfig, li_circuit, pol_oam_pair
from qdof.measures import case_state, random_case
from qdof.states import (BOSON, DISTINGUISHABLE, FERMION, DegenerateStateError,
                         DofSpec, Ket, SymState, normalize, to_density)
from qdof.trace import Subsystem

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                             database=None,
                             suppress_health_check=[HealthCheck.too_slow,
                                                    HealthCheck.filter_too_much])

ANGLE = st.floats(0.0, 2 * math.pi)


@st.composite
def random_states(draw, tiny_amplitudes):
    eta = draw(st.sampled_from([BOSON, FERMION, DISTINGUISHABLE]))
    n_particles = draw(st.integers(2, 3))
    sizes = draw(st.lists(st.integers(2, 3), min_size=1, max_size=2))
    specs = tuple(DofSpec(i + 1, tuple("xyz"[:d])) for i, d in enumerate(sizes))
    ket = st.builds(
        lambda region, values: Ket(region, tuple(
            (spec.index, v) for spec, v in zip(specs, values))),
        st.sampled_from("abc"),
        st.tuples(*[st.sampled_from(spec.values) for spec in specs]))
    amplitude = st.complex_numbers(min_magnitude=1e-3, max_magnitude=1.0,
                                   allow_nan=False, allow_infinity=False)
    if tiny_amplitudes:
        # amplitudes near 1e-8 put diagonal entries below the 1e-16 weight
        # cut while cross terms with O(1) amplitudes stay above it
        amplitude = st.one_of(amplitude, st.sampled_from([1e-7, -3e-9, 1e-9j]))
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

    Small amplitudes of 3e-9 to 3e-8 put the entries among the small terms on
    both sides of the 1e-16 weight cut, while their cross terms with the
    large ones stay above it; tracing region c keeps only their sector.
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


STATES = st.one_of(random_states(tiny_amplitudes=False), named_states())


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


@PROPERTY_SETTINGS
@given(state=st.one_of(random_states(tiny_amplitudes=True), named_states()),
       data=st.data())
def test_operator_sums_match_the_per_entry_engine(state, data):
    dm = to_density(state)
    for _ in range(data.draw(st.integers(1, 4))):
        name, args = _draw_reduction(data, dm)
        new, new_exc = _run(getattr(trace, name), dm, *args)
        old, old_exc = _run(getattr(ref, name), dm, *args)
        assert type(new_exc) is type(old_exc), (name, args, new_exc, old_exc)
        if old_exc is not None:
            assert str(new_exc) == str(old_exc)
            return
        _assert_same(new, old)
        if isinstance(new, np.ndarray):
            return
        dm = new


@PROPERTY_SETTINGS
@given(state=straddling_states(), data=st.data())
def test_reduction_chains_stay_positive(state, data):
    # the first step keeps the sector of the small terms only
    dm = to_density(state)
    name, args = "trace_region", ("c",)
    for _ in range(data.draw(st.integers(1, 4))):
        reduced, exc = _run(getattr(trace, name), dm, *args)
        if exc is not None:
            return
        if isinstance(reduced, np.ndarray):
            assert np.linalg.eigvalsh(reduced).min() > -1e-9
            return
        _assert_density_matrix(reduced)
        dm = reduced
        name, args = _draw_reduction(data, dm)


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
