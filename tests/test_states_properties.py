"""Property tests of the closed-form overlap of canonical ket tuples.

`tuple_overlap` must equal the permanent / determinant oracle on canonical
tuples of bosons, fermions and distinguishable particles (2-4 particles,
bosons bunched up to four times, equal and unequal pairs), and the one-pass
`symmetric_inner` must equal the sum over every pair of terms.
"""

from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from oracles import pairwise_inner, permutation_overlap
from qdof.states import (BOSON, DISTINGUISHABLE, FERMION, DofSpec, Ket,
                         SymState, canonical, symmetric_inner, tuple_overlap)

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
