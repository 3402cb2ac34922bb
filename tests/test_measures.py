import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdof.circuits import PhaseConfig, li_circuit
from qdof.fidelity import (average_teleport_fidelity, singlet_fraction,
                           teleport_fidelity, teleport_output)
from qdof.measures import (CATALOGUE, MonogamyReport, ThreeParticleCase,
                           _case_configs, _monogamy_reports,
                           case_state, concurrence, log_negativity,
                           mixed_monogamy_check, monogamy_report,
                           monogamy_report_qubits, negativity,
                           random_case, three_particle_cases,
                           tangle_one_vs_rest, vn_entropy)
from qdof.states import DegenerateStateError, _check_density, to_density
from qdof.trace import Subsystem, project_one_per_region, to_qubit_array, trace_dof_indist

from oracles import (abs_trace_accepts, per_case_monogamy_report,
                     per_case_three_particle, z_form_pair, z_form_tangle)

PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)

BELL = np.zeros((4, 4))
BELL[0, 0] = BELL[0, 3] = BELL[3, 0] = BELL[3, 3] = 0.5


def _haar_unitary(rng, d=2):
    z = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize("measure, dim", [
    (concurrence, 4), (negativity, 4),
    (tangle_one_vs_rest, 2), (average_teleport_fidelity, 4),
    (lambda rho: teleport_fidelity(rho, [1, 0]), 4),
    (lambda rho: teleport_output(rho, [1, 0]), 4),
], ids=["concurrence", "negativity", "tangle_one_vs_rest",
        "average_teleport_fidelity", "teleport_fidelity", "teleport_output"])
def test_zero_trace_matrices_raise_degenerate_state_error(measure, dim):
    with pytest.raises(DegenerateStateError):
        measure(np.zeros((dim, dim)))


def _mixed_with(dim, entries):
    rho = np.eye(dim, dtype=complex) / dim
    for (i, j), value in entries.items():
        rho[i, j] = value
    return rho


@pytest.mark.parametrize("measure, rho", [
    (concurrence, _mixed_with(4, {(0, 0): np.inf})),
    (concurrence, _mixed_with(4, {(0, 1): np.inf, (1, 0): np.inf})),
    (negativity, _mixed_with(4, {(3, 3): np.nan})),
    (negativity, _mixed_with(4, {(1, 2): complex(0, np.inf),
                                 (2, 1): complex(0, -np.inf)})),
    (tangle_one_vs_rest, _mixed_with(2, {(1, 1): np.inf})),
    (tangle_one_vs_rest, _mixed_with(2, {(0, 1): np.nan, (1, 0): np.nan})),
], ids=["concurrence-inf-diagonal", "concurrence-inf-pair",
        "negativity-nan-diagonal", "negativity-inf-pair",
        "tangle-inf-diagonal", "tangle-nan-pair"])
def test_non_finite_matrices_are_refused(measure, rho):
    with pytest.raises(ValueError, match="matrix has non-finite entries"):
        measure(rho)


def _passes_hermitian_test(rho):
    try:
        _check_density(rho, len(rho))
    except ValueError as err:
        return str(err) != "matrix is not Hermitian"
    return True


@st.composite
def near_hermitian(draw):
    dim = draw(st.sampled_from((2, 4)))
    entry = st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                               allow_infinity=False)
    a = np.array(draw(st.lists(entry, min_size=dim * dim, max_size=dim * dim)),
                 dtype=complex).reshape(dim, dim)
    scale = draw(st.sampled_from((0.0, 1e-12, 1e-9, 1e-7, 1e-5, 1e-3, 1.0)))
    e = np.array(draw(st.lists(entry, min_size=dim * dim, max_size=dim * dim)),
                 dtype=complex).reshape(dim, dim)
    return (a + a.conj().T) / 2 + scale * e


@PROPERTY_SETTINGS
@given(rho=near_hermitian())
def test_hermitian_test_gives_the_allclose_verdict(rho):
    # the test runs on the matrix over its trace, after the degenerate ones
    # are refused as such and those with a negative trace as such; the
    # Hermitian verdict is then that of -rho
    tr = np.trace(rho).real
    if abs(tr) <= 1e-12 * np.abs(rho).max():
        with pytest.raises(DegenerateStateError):
            _check_density(rho, len(rho))
        return
    if tr < 0:
        with pytest.raises(ValueError, match="^matrix has a negative trace$"):
            _check_density(rho, len(rho))
        rho, tr = -rho, -tr
    unit = rho / tr
    assert _passes_hermitian_test(rho) == np.allclose(unit, unit.conj().T,
                                                      atol=1e-7)


@PROPERTY_SETTINGS
@given(rho=near_hermitian(), b=st.floats(-1e3, 1e3),
       ulps=st.sampled_from((-1, 0, 1)))
def test_hermitian_test_at_and_one_ulp_either_side_of_the_bound(rho, b, ulps):
    # a diagonal of 1/dim gives a trace of exactly 1, so the matrix over its
    # trace is rho itself; rho[0, 1] - conj(rho[1, 0]) is exactly the real
    # gap: the imaginary parts cancel, and the bound atol + 1e-5 |adj| is
    # 1e-7 + 1e-5 |b|
    rho = (rho + rho.conj().T) / 2
    np.fill_diagonal(rho, 1 / len(rho))
    assert np.trace(rho).real == 1.0
    bound = 1e-7 + 1e-5 * abs(b)
    gap = bound if ulps == 0 else np.nextafter(bound, ulps * np.inf)
    rho[0, 1], rho[1, 0] = complex(gap, b), complex(0.0, -b)
    expected = np.allclose(rho, rho.conj().T, atol=1e-7)
    assert expected == (ulps <= 0)
    assert _passes_hermitian_test(rho) == expected


def test_hermiticity_is_judged_after_dividing_by_the_trace():
    # entry (0, 3) is 0.9 off its mirror: at scale 1e-8 that gap is 9e-9,
    # inside an absolute 1e-7, yet the matrix is no closer to Hermitian
    lone = np.zeros((4, 4))
    lone[0, 3] = 0.9
    for measure in (concurrence, negativity):
        for scale in (1.0, 1e-8):
            with pytest.raises(ValueError, match="^matrix is not Hermitian$"):
                measure(scale * (BELL + lone))


def _verdict(rho):
    """(exception type, message) of `_check_density` on `rho`, or None."""
    try:
        _check_density(rho, len(rho))
    except ValueError as err:
        return type(err), str(err)
    return None


@st.composite
def judged_matrices(draw):
    """(kind, matrix): a random unit-trace density matrix, or one made
    non-Hermitian, not positive, or traceless from it."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dim = draw(st.sampled_from((2, 4)))
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    kind = draw(st.sampled_from(("valid", "non-hermitian", "not-psd",
                                 "zero-trace")))
    if kind == "non-hermitian":
        rho[0, dim - 1] += 0.1
    elif kind == "not-psd":
        w, v = np.linalg.eigh(rho)
        w[0] = -0.1  # the smallest of a unit sum: the trace stays positive
        rho = (v * w) @ v.conj().T
    elif kind == "zero-trace":
        rho = rho - np.eye(dim) / dim
    return kind, rho


@PROPERTY_SETTINGS
@given(case=judged_matrices())
def test_the_verdict_on_a_scaled_matrix_is_the_verdict_on_the_matrix(case):
    kind, rho = case
    verdict = _verdict(rho)
    assert (verdict is None) == (kind == "valid")
    for c in (1e-300, 1e-8, 1.0, 1e8):
        assert _verdict(c * rho) == verdict


@PROPERTY_SETTINGS
@given(rho=st.one_of(near_hermitian(),
                     judged_matrices().map(lambda case: case[1])),
       sign=st.sampled_from((1, -1)))
def test_the_gate_accepts_what_the_absolute_trace_rule_accepts(rho, sign):
    """Refusing a negative trace in the gate moves only a message: the
    density check accepts a matrix, or its negated copy, exactly when the
    rule over |trace| does, and names a negative trace above the zero cut."""
    rho = sign * rho
    verdict = _verdict(rho)
    assert (verdict is None) == abs_trace_accepts(rho)
    tr = np.trace(rho).real
    if -tr > 1e-12 * np.abs(rho).max():
        assert verdict == (ValueError, "matrix has a negative trace")


@st.composite
def density_stacks(draw):
    """A (k, 4, 4) stack of random density matrices of every rank, each mixed
    with some white noise, so that zero and positive concurrences both occur."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    stack = []
    for _ in range(draw(st.integers(1, 6))):
        rank = draw(st.integers(1, 4))
        a = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
        rho = a @ a.conj().T
        p = draw(st.sampled_from((0.0, 0.3, 0.7, 1.0)))
        stack.append((1 - p) * rho / np.trace(rho).real + p * np.eye(4) / 4)
    return np.array(stack)


@PROPERTY_SETTINGS
@given(stack=density_stacks())
def test_concurrence_of_a_stack_is_each_matrixs_own_bit_for_bit(stack):
    lone = [concurrence(rho) for rho in stack]
    assert all(type(c) is float for c in lone)
    values = concurrence(stack)
    assert values.shape == (len(stack),)
    assert values.tobytes() == np.array(lone).tobytes()


@pytest.mark.parametrize("measure, dim, shapes", [
    (concurrence, 4, [(4,), (3, 3), (2, 4, 4, 4)]),
    (negativity, 4, [(4,), (3, 3), (1, 4, 4), (3, 4, 4)]),
    (tangle_one_vs_rest, 2, [(2,), (4, 4), (1, 2, 2), (3, 2, 2)]),
], ids=["concurrence", "negativity", "tangle_one_vs_rest"])
def test_only_concurrence_takes_a_stack(measure, dim, shapes):
    for shape in shapes:
        with pytest.raises(ValueError, match=f"^expected a {dim}x{dim} matrix$"):
            measure(np.ones(shape, dtype=complex))


@pytest.mark.parametrize("measure", [
    concurrence, singlet_fraction, average_teleport_fidelity,
], ids=["concurrence", "singlet_fraction", "average_teleport_fidelity"])
def test_an_empty_stack_gives_no_values(measure):
    values = measure(np.empty((0, 4, 4)))
    assert values.shape == (0,)
    assert _check_density(np.empty((0, 2, 2)), 2, stack=True).shape == (0, 2, 2)


def test_a_stack_is_refused_when_any_matrix_is():
    bad = _mixed_with(4, {(0, 1): 0.5, (1, 0): -0.5})
    with pytest.raises(ValueError, match="matrix is not Hermitian"):
        concurrence(np.array([BELL, bad]))
    with pytest.raises(DegenerateStateError):
        concurrence(np.array([BELL, np.zeros((4, 4))]))


def test_concurrence_bell_and_product():
    assert concurrence(BELL) == pytest.approx(1.0)
    product = np.zeros((4, 4))
    product[0, 0] = 1.0
    assert concurrence(product) == pytest.approx(0.0)


def test_concurrence_local_unitary_invariant():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    base = concurrence(rho)
    for _ in range(50):
        u = np.kron(_haar_unitary(rng), _haar_unitary(rng))
        assert concurrence(u @ rho @ u.conj().T) == pytest.approx(base, abs=1e-9)


def test_audit_flip_spectrum_of_bell():
    # each pair is divided by its trace before its flip spectrum is taken
    rep = _monogamy_reports([(2 * BELL, np.eye(4) / 4, np.eye(2) / 2)])[0]
    assert rep.audit["flip_spectrum_ab"] == pytest.approx([1, 0, 0, 0],
                                                          abs=1e-9)
    assert rep.audit["flip_spectrum_ac"] == pytest.approx([1 / 16] * 4,
                                                          abs=1e-9)


def test_negativity_values():
    assert negativity(BELL) == pytest.approx(0.5)
    assert log_negativity(BELL) == pytest.approx(1.0)
    assert negativity(np.eye(4) / 4) == pytest.approx(0.0, abs=1e-12)


def test_vn_entropy_values():
    pure = np.zeros((2, 2))
    pure[0, 0] = 1.0
    assert vn_entropy(pure) == pytest.approx(0.0, abs=1e-12)
    assert vn_entropy(np.eye(2) / 2) == pytest.approx(math.log(2))


def test_vn_entropy_checks_its_input_like_the_other_measures():
    assert vn_entropy(5 * np.eye(3)) == pytest.approx(math.log(3))
    with pytest.raises(ValueError, match="^matrix is not positive semidefinite$"):
        vn_entropy(np.diag([1.5, -0.5, 0, 0]))
    lone = np.eye(4) / 4
    lone[0, 3] = 0.9
    with pytest.raises(ValueError, match="^matrix is not Hermitian$"):
        vn_entropy(lone)
    for shape in [(), (4,), (3, 4), (2, 4, 4)]:
        with pytest.raises(ValueError):
            vn_entropy(np.ones(shape))


@PROPERTY_SETTINGS
@given(case=judged_matrices())
def test_vn_entropy_of_a_scaled_matrix_is_judged_as_the_matrix(case):
    kind, rho = case
    verdict = _verdict(rho)
    lams = np.linalg.eigvalsh(rho)
    lams = lams[lams > 1e-12]
    for c in (1e-300, 1e-8, 1.0, 1e8):
        if kind == "valid":
            assert vn_entropy(c * rho) == pytest.approx(
                -(lams * np.log(lams)).sum(), abs=1e-12)
        else:
            with pytest.raises(ValueError) as err:
                vn_entropy(c * rho)
            assert (type(err.value), str(err.value)) == verdict


def test_monogamy_verdicts():
    assert MonogamyReport(0.0, 0.0, 1.0).verdict == "holds"
    assert MonogamyReport(0.5, 0.5, 1.0).verdict == "equality"
    assert MonogamyReport(0.9, 0.9, 1.0).verdict == "violated"
    assert MonogamyReport(1.0, 1.0, 1.0).verdict == "violated_maximally"


def test_interferometer_state_maximally_violates():
    ph = PhaseConfig(0.3, 1.4, -0.6, 0.9)
    dm = project_one_per_region(to_density(li_circuit("boson", ph)),
                                ["s1", "s2"])
    rep = monogamy_report(dm, Subsystem("s1", 2), Subsystem("s2", 2),
                          Subsystem("s2", 1))
    assert rep.c2_ab == pytest.approx(1.0, abs=1e-9)
    assert rep.c2_ac == pytest.approx(1.0, abs=1e-9)
    assert rep.verdict == "violated_maximally"
    # log-negativity agrees on both pairwise reductions
    ss = trace_dof_indist(trace_dof_indist(dm, Subsystem("s1", 1)),
                          Subsystem("s2", 1))
    sp = trace_dof_indist(trace_dof_indist(dm, Subsystem("s1", 1)),
                          Subsystem("s2", 2))
    assert log_negativity(to_qubit_array(ss)) == pytest.approx(1.0, abs=1e-9)
    assert log_negativity(to_qubit_array(sp)) == pytest.approx(1.0, abs=1e-9)


def test_ghz_state_holds():
    ghz = np.zeros(8)
    ghz[0] = ghz[7] = 1 / math.sqrt(2)
    rep = monogamy_report_qubits(ghz)
    assert rep.c2_ab == pytest.approx(0.0, abs=1e-12)
    assert rep.c2_ac == pytest.approx(0.0, abs=1e-12)
    assert rep.verdict == "holds"


def test_ckw_holds_for_random_three_qubit_states():
    rng = np.random.default_rng(7)
    for _ in range(100):
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        assert monogamy_report_qubits(v).residual >= -1e-9


def test_case_equality_and_patterns():
    rng = np.random.default_rng(42)
    for cid in range(1, 14):
        for _ in range(10):
            case = random_case(cid, rng)
            rep, pattern = three_particle_cases([case])[0]
            assert abs(rep.residual) <= 1e-9, (cid, rep.residual)
            want = CATALOGUE[cid][2]
            for got, expect in zip(pattern, want):
                if expect == "zero":
                    assert got == "zero", (cid, pattern)


def _fields(report):
    return {key: repr(value) for key, value in report.to_dict().items()}


@pytest.mark.parametrize("seed", range(6))
def test_stacked_catalogue_equals_the_per_case_oracle(seed):
    rng = np.random.default_rng(seed)
    some = rng.choice(np.arange(1, 14), size=int(rng.integers(2, 13)),
                      replace=False)
    for ids in ([int(rng.integers(1, 14))], some.tolist(), list(range(1, 14))):
        cases = [random_case(cid, rng) for cid in ids]
        got = three_particle_cases(cases)
        assert len(got) == len(cases)
        for case, (rep, pattern) in zip(cases, got):
            want, want_pattern = per_case_three_particle(case)
            assert pattern == want_pattern
            assert _fields(rep) == _fields(want), case.case_id
        assert _fields(three_particle_cases(cases[-1:])[0][0]) == \
            _fields(got[-1][0])


@pytest.mark.parametrize("kind", ["boson", "fermion"])
def test_interferometer_report_equals_the_per_case_oracle(kind):
    rng = np.random.default_rng(14)
    for _ in range(5):
        ph = PhaseConfig(*rng.uniform(-math.pi, math.pi, size=4))
        dm = project_one_per_region(to_density(li_circuit(kind, ph)),
                                    ["s1", "s2"])
        subs = (Subsystem("s1", 2), Subsystem("s2", 2), Subsystem("s2", 1))
        assert _fields(monogamy_report(dm, *subs)) == \
            _fields(per_case_monogamy_report(dm, *subs))


@pytest.mark.parametrize("bad", [
    _mixed_with(4, {(0, 1): 0.5, (1, 0): -0.5}), np.zeros((4, 4))],
    ids=["non-hermitian", "zero-trace"])
@pytest.mark.parametrize("slot", range(6))
def test_stacked_measure_raises_what_a_lone_concurrence_raises(bad, slot):
    triples = [[BELL, np.eye(4) / 4, np.eye(2) / 2] for _ in range(3)]
    triples[slot // 2][slot % 2] = bad
    with pytest.raises((ValueError, DegenerateStateError)) as lone:
        concurrence(bad)
    with pytest.raises(type(lone.value),
                       match=f"^{re.escape(str(lone.value))}$"):
        _monogamy_reports(triples)


def test_case_two_matches_closed_forms():
    z = (0.0, 1 / math.sqrt(2), 1 / math.sqrt(2))
    case = ThreeParticleCase(2, ((1, (1.0, 0.0)), (1, (1.0, 0.0)),
                                 (1, (0.0, 1.0))), (1, 1, 1), z)
    rep, _ = three_particle_cases([case])[0]
    assert rep.c2_ab == pytest.approx(1.0, abs=1e-9)
    assert rep.c2_ac == pytest.approx(0.0, abs=1e-9)
    assert rep.c2_a_bc == pytest.approx(1.0, abs=1e-9)
    assert rep.verdict == "equality"

    r3 = 1 / math.sqrt(3)
    case = ThreeParticleCase(2, ((1, (1.0, 0.0)), (1, (1.0, 0.0)),
                                 (1, (0.0, 1.0))), (1, 1, 1), (r3, r3, r3))
    rep, _ = three_particle_cases([case])[0]
    assert rep.c2_ab == pytest.approx(4 / 9, abs=1e-9)
    assert rep.c2_ac == pytest.approx(4 / 9, abs=1e-9)
    assert rep.c2_a_bc == pytest.approx(8 / 9, abs=1e-9)
    assert rep.c2_ab == pytest.approx(z_form_pair(r3, r3), abs=1e-9)
    assert rep.c2_a_bc == pytest.approx(z_form_tangle(r3), abs=1e-9)


@pytest.mark.parametrize("measured, weights, configs, c2_ab", [
    ((1, 2, 2), (1.0,), [(0, 1, 2)], 0.0),
    ((1, 1, 2), (0.6, 0.8), [(0, 1, 2), (1, 0, 2)], 4 * 0.36 * 0.64),
])
def test_distinct_same_dof_pair_exchanges_only_where_measured_alike(
        measured, weights, configs, c2_ab):
    """Particles 1 and 2, distinct, are both prepared in DoF 1: they exchange
    when regions 1 and 2 both read DoF 1, else everyone stays put and the
    state is a product.  Exchanged with weights (0.6, 0.8), A and B hold
    0.6|01> + 0.8|10>, whose C^2 is (2 * 0.6 * 0.8)^2."""
    particles = ((1, (1.0, 0.0)), (1, (0.0, 1.0)), (2, (1.0, 0.0)))
    case = ThreeParticleCase(99, particles, measured, weights)
    assert _case_configs(case) == configs
    rep, _ = three_particle_cases([case])[0]
    assert rep.c2_ab == pytest.approx(c2_ab, abs=1e-12)
    assert rep.c2_ac == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError, match=f"expected {len(configs)} weights"):
        case_state(ThreeParticleCase(99, particles, measured, (0.6, 0.64, 0.48)))


def test_case_two_z_form_tangle_random_complex():
    rng = np.random.default_rng(8)
    for _ in range(20):
        case = random_case(2, rng)
        rep, _ = three_particle_cases([case])[0]
        assert rep.c2_a_bc == pytest.approx(z_form_tangle(case.weights[2]),
                                            abs=1e-9)


def test_case_one_and_five_all_zero():
    rng = np.random.default_rng(9)
    for cid in (1, 5):
        case = random_case(cid, rng)
        rep, pattern = three_particle_cases([case])[0]
        assert pattern == ("zero", "zero", "zero")


def test_mixed_convexity_holds():
    rng = np.random.default_rng(10)
    for _ in range(50):
        v1 = rng.normal(size=8) + 1j * rng.normal(size=8)
        v2 = rng.normal(size=8) + 1j * rng.normal(size=8)
        w = rng.uniform(0.1, 0.9)
        _, _, holds = mixed_monogamy_check([(w, v1), (1 - w, v2)])
        assert holds


def test_mixed_single_element_matches_pure_report():
    rng = np.random.default_rng(11)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    rep, roof, holds = mixed_monogamy_check([(1.0, v)])
    pure = monogamy_report_qubits(v)
    assert roof == pytest.approx(pure.c2_a_bc, abs=1e-12)
    assert rep.c2_ab == pytest.approx(pure.c2_ab, abs=1e-12)
    assert holds


def test_mixed_product_ensemble_all_zero():
    v1 = np.zeros(8)
    v1[0] = 1.0
    v2 = np.zeros(8)
    v2[7] = 1.0
    rep, roof, holds = mixed_monogamy_check([(0.5, v1), (0.5, v2)])
    assert rep.c2_ab == pytest.approx(0.0, abs=1e-12)
    assert roof == pytest.approx(0.0, abs=1e-12)
    assert holds


def test_tangle_matches_concurrence_for_pure_two_qubit():
    rng = np.random.default_rng(12)
    for _ in range(10):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        rho = np.outer(v, v.conj())
        rho_a = rho.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)
        assert tangle_one_vs_rest(rho_a) == pytest.approx(
            concurrence(rho) ** 2, abs=1e-9)


def test_monogamy_report_json_carries_audit_spectra():
    import json
    ph = PhaseConfig(0.2, 0.9, -0.3, 0.5)
    dm = project_one_per_region(to_density(li_circuit("boson", ph)),
                                ["s1", "s2"])
    rep = monogamy_report(dm, Subsystem("s1", 2), Subsystem("s2", 2),
                          Subsystem("s2", 1))
    rec = json.loads(rep.to_json())
    assert rec["audit"]["flip_spectrum_ab"][0] == pytest.approx(1.0, abs=1e-9)
    assert len(rec["audit"]["marginal_spectrum_a"]) == 2
