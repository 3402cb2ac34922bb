import json
import math
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from qdof.states import (BOSON, DISTINGUISHABLE, FERMION, DegenerateStateError,
                         DensityMatrix, DofSpec, Ket, ShapeError, SymState,
                         mix, normalize, norm_squared, symmetric_inner,
                         to_density)
from qdof.trace import to_qubit_array

SPIN = DofSpec(1, ("dn", "up"))


def purity(dm):
    """tr(rho^2) of a DensityMatrix."""
    return float(np.trace(dm.data @ dm.data).real)


def k(region, value):
    return Ket(region, ((1, value),))


def state(eta, terms):
    return SymState(eta, terms, (SPIN,))


PHI = k("a", "dn")
PSI = k("b", "up")


def test_inner_product_pauli_zero_for_fermions():
    s = state(FERMION, {(PHI, PHI): 1.0})
    assert not s.terms  # excluded at construction
    t = state(FERMION, {(PHI, PSI): 1.0})
    assert symmetric_inner(t, t) == pytest.approx(1.0)


def test_inner_product_orthonormal_cases():
    s = state(BOSON, {(PHI, PSI): 1.0})
    assert symmetric_inner(s, s) == pytest.approx(1.0)
    # swapped ordering picks up the statistics sign for fermions
    a = state(FERMION, {(PHI, PSI): 1.0})
    b = state(FERMION, {(PSI, PHI): 1.0})
    assert symmetric_inner(a, b) == pytest.approx(-1.0)


def test_exchange_symmetry_is_canonicalized():
    for eta in (BOSON, FERMION):
        s = state(eta, {(PSI, PHI): 0.5})
        canon = state(eta, {(PHI, PSI): 0.5 * (1 if eta == BOSON else -1)})
        assert s.terms == canon.terms


def test_bunched_boson_norm_and_normalize():
    s = state(BOSON, {(PHI, PHI): 1.0})
    assert norm_squared(s) == pytest.approx(2.0)
    n = normalize(s)
    assert n.terms[(PHI, PHI)] == pytest.approx(1 / math.sqrt(2))
    assert symmetric_inner(n, n) == pytest.approx(1.0)


def test_normalize_orthonormal_pair_already_unit():
    s = normalize(state(BOSON, {(PHI, PSI): 1.0}))
    assert symmetric_inner(s, s) == pytest.approx(1.0)


def test_normalize_rejects_pauli_excluded_state():
    with pytest.raises(DegenerateStateError):
        normalize(state(FERMION, {(PHI, PHI): 1.0}))


def test_inner_rejects_mismatched_statistics():
    a = state(BOSON, {(PHI, PSI): 1.0})
    b = state(FERMION, {(PHI, PSI): 1.0})
    with pytest.raises(ShapeError):
        symmetric_inner(a, b)


def test_random_states_unit_norm_after_normalize():
    rng = np.random.default_rng(5)
    kets = [k(r, v) for r in ("a", "b") for v in ("dn", "up")]
    for eta in (BOSON, FERMION):
        for _ in range(20):
            terms = {}
            for _ in range(6):
                pair = tuple(rng.choice(len(kets), size=2))
                amp = rng.normal() + 1j * rng.normal()
                terms[(kets[pair[0]], kets[pair[1]])] = amp
            try:
                s = normalize(SymState(eta, terms, (SPIN,)))
            except DegenerateStateError:
                continue
            assert symmetric_inner(s, s).real == pytest.approx(1.0, abs=1e-9)


def test_to_density_bell_state():
    # |01> - |10> over two labelled qubits
    up_a, dn_b = k("a", "up"), k("b", "dn")
    s = normalize(SymState(DISTINGUISHABLE,
                           {(PHI, k("b", "up")): 1.0, (up_a, dn_b): -1.0},
                           (SPIN,)))
    dm = to_density(s)
    assert dm.trace == pytest.approx(1.0)
    assert purity(dm) == pytest.approx(1.0)
    dm.check()


def test_to_density_positive_and_hermitian_random():
    rng = np.random.default_rng(11)
    kets = [k(r, v) for r in ("a", "b") for v in ("dn", "up")]
    for _ in range(10):
        terms = {(kets[i], kets[j]): rng.normal() + 1j * rng.normal()
                 for i in range(4) for j in range(4)}
        try:
            s = normalize(SymState(BOSON, terms, (SPIN,)))
        except DegenerateStateError:
            continue
        to_density(s).check()


def test_mix_identity_and_diagonal():
    s00 = normalize(SymState(DISTINGUISHABLE, {(PHI, dn_b()): 1.0},
                             (SPIN,)))
    s11 = normalize(SymState(DISTINGUISHABLE, {(k("a", "up"), k("b", "up")): 1.0},
                             (SPIN,)))
    d0, d1 = to_density(s00), to_density(s11)
    assert np.allclose(mix([(1.0, d0)]).data, d0.data)
    m = mix([(0.5, d0), (0.5, d1)])
    assert m.trace == pytest.approx(1.0)
    assert purity(m) == pytest.approx(0.5)
    assert purity(m) < max(purity(d0), purity(d1))
    # a matrix that declares no layout takes the layout of the others
    bare = DensityMatrix(d1.basis, d1.data, d1.eta)
    assert mix([(0.5, bare), (0.5, d0)]).dof_specs == (SPIN,)


def dn_b():
    return k("b", "dn")


def test_mix_rejects_bad_weights():
    d = to_density(normalize(SymState(DISTINGUISHABLE, {(PHI, dn_b()): 1.0},
                                      (SPIN,))))
    with pytest.raises(ValueError):
        mix([(-0.1, d), (1.1, d)])
    with pytest.raises(ValueError):
        mix([(0.4, d)])


def test_json_round_trip():
    s = normalize(SymState(FERMION, {(PHI, PSI): 0.6 + 0.8j}, (SPIN,)))
    doc = s.to_json()
    back = SymState.from_json(doc)
    assert back.eta == FERMION
    assert set(back.terms) == set(s.terms)
    for key in s.terms:
        assert back.terms[key] == pytest.approx(s.terms[key])
    assert doc == ('{"eta": "fermion", "dof_specs": [[1, ["dn", "up"]]], '
                   '"terms": [{"kets": [["a", [[1, "dn"]]], ["b", [[1, "up"]]]], '
                   '"re": 0.6, "im": 0.8}]}')


def test_density_csv_shape():
    s = normalize(SymState(BOSON, {(PHI, PSI): 1.0}, (SPIN,)))
    dm = to_density(s)
    rows = dm.to_csv().strip().split("\n")
    assert len(rows) == len(dm.basis)
    assert len(rows[0].split(",")) == 2 * len(dm.basis)


def test_density_json_lists_basis_and_parts():
    up, dn = k("r1", "up"), k("r2", "dn")
    flipped = k("r1", "dn"), k("r2", "up")
    dm = to_density(SymState(DISTINGUISHABLE, {(up, dn): 0.6,
                                               flipped: 0.8j}, (SPIN,)))
    text = dm.to_json()
    assert text == ('{"basis": [[["r1", [[1, "dn"]]], ["r2", [[1, "up"]]]], '
                    '[["r1", [[1, "up"]]], ["r2", [[1, "dn"]]]]], '
                    '"re": [[0.6400000000000001, 0.0], [0.0, 0.36]], '
                    '"im": [[0.0, 0.48], [-0.48, 0.0]]}')
    doc = json.loads(text)
    # the sorted basis: r1 down before r1 up
    assert doc["basis"] == [[["r1", [[1, "dn"]]], ["r2", [[1, "up"]]]],
                            [["r1", [[1, "up"]]], ["r2", [[1, "dn"]]]]]
    # v = (0.8i, 0.6): |v_a|^2 on the diagonal, v_a v_b^* = 0.48i off it
    assert np.allclose(doc["re"], [[0.64, 0.0], [0.0, 0.36]], rtol=0, atol=1e-15)
    assert np.allclose(doc["im"], [[0.0, 0.48], [-0.48, 0.0]], rtol=0, atol=1e-15)


def test_undeclared_dof_is_laid_out_in_sorted_value_order():
    # no DofSpec: |0>, |1> of each region are its values sorted, "dn", "up"
    terms = {(k("r1", "up"), k("r2", "dn")): 0.6,
             (k("r1", "dn"), k("r2", "up")): 0.8}
    dm = to_density(SymState(DISTINGUISHABLE, terms))
    assert dm.value_order(1) == ["dn", "up"]
    v = np.array([0.0, 0.8, 0.6, 0.0])  # |01> = (dn, up), |10> = (up, dn)
    assert np.allclose(to_qubit_array(dm), np.outer(v, v), rtol=0, atol=1e-15)


@pytest.mark.parametrize("region, dofs", [
    ("a", ()), ("s1", ((1, "0"),)), ("idl", ((1, "V"), (2, "-l")))])
def test_ket_hash_is_the_hash_of_its_fields(region, dofs):
    """A ket hashes as the tuple of its fields, the value the dataclass gave,
    so set and dict orders stay as they were."""
    ket = Ket(region, dofs)
    assert hash(ket) == hash((region, dofs))
    assert hash(ket.drop(1)) == hash((region, tuple(p for p in dofs if p[0] != 1)))


def test_unpickled_ket_hashes_as_a_new_one():
    """An unpickled ket hashes as one built where it is loaded: str hashes
    differ between processes, so a restored value would miss equal kets."""
    code = ("import pickle, sys; from qdof.states import Ket; "
            "k = pickle.loads(sys.stdin.buffer.read()); "
            "print(hash(k) == hash(Ket(k.region, k.dofs)))")
    env = {**os.environ, "PYTHONHASHSEED": "1"}
    run = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         input=pickle.dumps(Ket("a", ((1, "x"),))),
                         capture_output=True)
    assert run.stdout == b"True\n"
