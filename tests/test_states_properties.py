"""Property tests of canonical ket tuples and of the states built on them.

`tuple_overlap` must equal the permanent / determinant oracle on canonical
tuples of bosons, fermions and distinguishable particles (2-4 particles,
bosons bunched up to four times, equal and unequal pairs) and give the
`repr` of its `Counter` form (1-4 particles), and the one-pass
`symmetric_inner` must equal the sum over every pair of terms, with the
`repr` of its `np.conj` form.

A `Ket` is a plain tuple; `canonical` on it must give the tuple and sign that
the dataclass oracle gives, and hashes, sorted bases and set orders must be
the oracle's.  `scaled` and `normalize` keep the canonical terms as they
are, so they must give, amplitude for amplitude in `repr`, the state the
constructor builds from the rescaled terms, tiny and subnormal amplitudes
(whose products can round to zero, the one amplitude a state drops) and
signed zeros included.
"""

import math

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from oracles import (DataclassKet, counter_tuple_overlap, dataclass_canonical,
                     numpy_symmetric_inner, pairwise_inner, permutation_overlap)
from qdof.states import (BOSON, DISTINGUISHABLE, FERMION, DegenerateStateError,
                         DofSpec, Ket, SymState, canonical, norm_squared,
                         normalize, symmetric_inner, tuple_overlap)

PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True,
                             database=None,
                             suppress_health_check=[HealthCheck.filter_too_much])

SPIN = DofSpec(1, ("dn", "up"))
KETS = st.builds(lambda region, v: Ket(region, ((1, v),)),
                 st.sampled_from("ab"), st.sampled_from(SPIN.values))
ETAS = st.sampled_from([BOSON, FERMION, DISTINGUISHABLE])
BUNCHED = (Ket("a", ((1, "up"),)),) * 4


def _canonical_tuple(kets, eta):
    kets, sign = canonical(kets, eta)
    assume(sign != 0)
    return kets


@PROPERTY_SETTINGS
@given(eta=ETAS, s=st.lists(KETS, min_size=2, max_size=4),
       t=st.none() | st.lists(KETS, min_size=2, max_size=4))
@example(eta=BOSON, s=list(BUNCHED), t=None)
def test_tuple_overlap_matches_the_permutation_sum(eta, s, t):
    s = _canonical_tuple(s, eta)
    t = s if t is None else _canonical_tuple(t, eta)
    assert tuple_overlap(s, t, eta) == permutation_overlap(s, t, eta)


@PROPERTY_SETTINGS
@given(eta=ETAS, s=st.lists(KETS, min_size=1, max_size=4),
       t=st.none() | st.lists(KETS, min_size=1, max_size=4))
@example(eta=BOSON, s=list(BUNCHED[:3]) + [Ket("b", ((1, "dn"),))], t=None)
def test_tuple_overlap_run_lengths_match_the_counter(eta, s, t):
    s = _canonical_tuple(s, eta)
    t = s if t is None else _canonical_tuple(t, eta)
    assert repr(tuple_overlap(s, t, eta)) == repr(counter_tuple_overlap(s, t, eta))


@PROPERTY_SETTINGS
@given(eta=ETAS, n_particles=st.integers(2, 4), data=st.data())
def test_symmetric_inner_matches_the_pairwise_sum(eta, n_particles, data):
    tuples = st.lists(KETS, min_size=n_particles,
                      max_size=n_particles).map(tuple)
    amplitudes = st.complex_numbers(max_magnitude=1.0, allow_nan=False,
                                    allow_infinity=False)
    a, b = (SymState(eta, data.draw(st.dictionaries(tuples, amplitudes,
                                                    max_size=8)), (SPIN,))
            for _ in range(2))
    assert symmetric_inner(a, b) == pairwise_inner(a, b)
    assert repr(symmetric_inner(a, b)) == repr(numpy_symmetric_inner(a, b))


# few enough kets that tuples repeat them, with DoF tuples of unequal length
POOL = [(region, dofs) for region in ("a", "b")
        for dofs in ((), ((1, "dn"),), ((1, "up"),), ((1, "dn"), (2, "H")))]
POOL_TUPLES = st.lists(st.sampled_from(POOL), min_size=1, max_size=4)


def _pairs(kets):
    return [(k.region, k.dofs) for k in kets]


@PROPERTY_SETTINGS
@given(eta=ETAS, drawn=st.lists(POOL_TUPLES, min_size=1, max_size=6))
def test_canonical_matches_the_dataclass_oracle(eta, drawn):
    new, old = [], []
    for pairs in drawn:
        kets, sign = canonical(tuple(Ket(*p) for p in pairs), eta)
        want, want_sign = dataclass_canonical(
            tuple(DataclassKet(*p) for p in pairs), eta)
        assert (_pairs(kets), sign) == (_pairs(want), want_sign)
        assert [hash(k) for k in kets] == [hash(k) for k in want]
        assert hash(kets) == hash(want)
        new.append(kets)
        old.append(want)
    assert [_pairs(k) for k in sorted(new)] == [_pairs(k) for k in sorted(old)]
    assert [_pairs(k) for k in set(new)] == [_pairs(k) for k in set(old)]


TINY = (st.sampled_from([0.0, -0.0, 5e-324, -5e-324])
        | st.floats(-4e-15, 4e-15))
AMPLITUDES = (st.complex_numbers(max_magnitude=1.0, allow_nan=False,
                                 allow_infinity=False)
              | st.builds(complex, TINY, TINY))
FACTORS = st.sampled_from([0.0, -0.0, 1.0, -1.0]) | st.floats(-3.0, 3.0)


def _terms(state):
    return (state.eta, state.dof_specs,
            [(k, repr(v)) for k, v in state.terms.items()])


def _rebuilt(state, factor):
    """The state the constructor builds from the rescaled terms."""
    return SymState(state.eta, {k: v * factor for k, v in state.terms.items()},
                    state.dof_specs)


@PROPERTY_SETTINGS
@given(eta=ETAS, n_particles=st.integers(1, 4), factor=FACTORS,
       data=st.data())
def test_scaled_and_normalize_keep_the_constructors_terms(eta, n_particles,
                                                          factor, data):
    tuples = st.lists(KETS, min_size=n_particles,
                      max_size=n_particles).map(tuple)
    s = SymState(eta, data.draw(st.dictionaries(tuples, AMPLITUDES,
                                                max_size=8)), (SPIN,))
    assert _terms(s.scaled(factor)) == _terms(_rebuilt(s, factor))
    n2 = norm_squared(s)
    assert repr(n2) == repr(numpy_symmetric_inner(s, s).real)
    if n2 <= 1e-24:
        with pytest.raises(DegenerateStateError):
            normalize(s)
        return
    assert _terms(normalize(s)) == _terms(_rebuilt(s, 1.0 / math.sqrt(n2)))
