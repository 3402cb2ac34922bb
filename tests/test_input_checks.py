"""Every input check of the library raises its own type with its own message.

One row per check that no other test reaches: each call is made on the
smallest input that trips it.
"""

import numpy as np
import pytest

from qdof import circuits, fidelity, hardy, measurement, measures, protocols
from qdof.states import (BOSON, FERMION, DensityMatrix, DofSpec, Ket,
                         ShapeError, SymState, mix, symmetric_inner,
                         to_density)
from qdof.trace import (EmptySubspaceError, Subsystem, project_one_per_region,
                        trace_dof_indist, trace_region)

SPIN = DofSpec(1, ("dn", "up"))
ORBITAL = DofSpec(2, ("+l", "-l"))
ONE = SymState(BOSON, {(Ket("r1", ((1, "dn"),)),): 1.0}, (SPIN,))
TWO_KETS = (Ket("r1", ((1, "dn"),)), Ket("r2", ((1, "up"),)))


def _pair(eta=BOSON, scale=1.0):
    """The density matrix of one particle in each of regions r1 and r2."""
    dm = to_density(SymState(eta, {TWO_KETS: 1.0}, (SPIN,)))
    dm.data *= scale
    return dm


def _matrix(data):
    """A 2x2 DensityMatrix on two one-particle kets."""
    basis = ((Ket("r1", ((1, "dn"),)),), (Ket("r1", ((1, "up"),)),))
    return DensityMatrix(basis, np.array(data), BOSON, (SPIN,))


_GHZ = np.array([1, 0, 0, 0, 0, 0, 0, 1]) / np.sqrt(2)

CHECKS = {
    "layout kind": (lambda: fidelity.ChannelLayout("foo", 2),
                    ValueError, "unknown kind 'foo'"),
    "layout n": (lambda: fidelity.ChannelLayout("distinguishable", 0),
                 ValueError, "v1 supports n >= 1 two-level DoFs"),
    "relation grid": (lambda: fidelity.relation_check(
        fidelity.ChannelLayout("distinguishable", 1), []),
        ValueError, "p_grid needs at least one point"),
    "noise probability": (lambda: hardy.NoiseModel(depolarizing=1.5),
                          ValueError, "noise probabilities must lie in [0, 1]"),
    "empty sample set": (lambda: hardy.SampleSet([]),
                         ValueError, "a sample set needs at least one value"),
    "t tail": (lambda: hardy.t_quantile(0.6, 3),
               ValueError, "tail probability must lie in (0, 0.5)"),
    "observable": (lambda: measurement.coincidence_table(
        circuits.li_circuit("boson", circuits.PhaseConfig()), "foo",
        "external"), ValueError, "unknown observable 'foo'"),
    "ensemble weights": (lambda: measures.mixed_monogamy_check(
        [(0.7, _GHZ), (0.7, _GHZ)]), ValueError, "weights must be convex"),
    "case superposition": (lambda: measures.ThreeParticleCase(
        1, ((1, (1.0, 1.0)), (1, (1.0, 0.0)), (1, (1.0, 0.0))), (1, 1, 1),
        (1.0,)), ValueError, "superposition weights must be normalized"),
    "case id": (lambda: measures.random_case(14, np.random.default_rng(0)),
                ValueError, "case_id must be 1..13"),
    "signaling dofs": (lambda: protocols.SignalingConfig(n_dofs=1),
                       ValueError, "n_dofs must lie in 2..30"),
    "signaling trials": (lambda: protocols.SignalingConfig(trials=0),
                         ValueError, "need at least one trial"),
    "copies": (lambda: protocols.signaling_multicopy(0),
               ValueError, "need at least one copy"),
    "dof values": (lambda: DofSpec(1, ("a",)),
                   ValueError, "a DoF needs at least two eigenvalues"),
    "dof labels": (lambda: DofSpec(1, ("a", "a")),
                   ValueError, "eigenvalue labels must be distinct"),
    "inner layouts": (lambda: symmetric_inner(
        ONE, SymState(BOSON, ONE.terms, (SPIN, ORBITAL))),
        ShapeError, "DoF layouts differ"),
    "inner particles": (lambda: symmetric_inner(
        ONE, SymState(BOSON, {TWO_KETS: 1.0}, (SPIN,))),
        ShapeError, "particle numbers differ"),
    "matrix shape": (lambda: _matrix(np.eye(3)), ShapeError,
                     "matrix shape does not match basis size"),
    "not hermitian": (lambda: _matrix([[0.5, 1.0], [0.0, 0.5]]).check(),
                      ValueError, "matrix is not Hermitian"),
    "trace": (lambda: _matrix(np.eye(2)).check(),
              ValueError, "trace differs from 1"),
    "negative eigenvalue": (lambda: _matrix([[1.5, 0.0], [0.0, -0.5]]).check(),
                            ValueError, "matrix has a negative eigenvalue"),
    "empty mix": (lambda: mix([]), ValueError, "empty ensemble"),
    "mixed statistics": (lambda: mix([(0.5, _pair(BOSON)),
                                      (0.5, _pair(FERMION))]),
                         ShapeError, "cannot mix different statistics"),
    "mixed layouts": (lambda: mix([
        (0.5, _pair()),
        (0.5, to_density(SymState(BOSON, {TWO_KETS: 1.0},
                                  (DofSpec(1, ("up", "dn")),))))]),
        ShapeError, "cannot mix different DoF layouts"),
    "repeated region": (lambda: project_one_per_region(_pair(), ["r1", "r1"]),
                        ValueError, "regions must be distinct"),
    "no dof index": (lambda: trace_dof_indist(_pair(), Subsystem("r1")),
                     ValueError, "subsystem must name a dof_index"),
    "particle kind": (lambda: circuits.li_circuit("anyon",
                                                  circuits.PhaseConfig()),
                      ValueError, "unknown particle kind 'anyon'"),
    "empty reduction": (lambda: trace_region(_pair(scale=1e-30), "r1"),
                        EmptySubspaceError,
                        "reduction produced an empty subspace"),
}


@pytest.mark.parametrize("name", list(CHECKS))
def test_input_check_raises_its_type_and_message(name):
    call, exc_type, message = CHECKS[name]
    with pytest.raises(exc_type) as info:
        call()
    assert type(info.value) is exc_type
    assert str(info.value) == message
