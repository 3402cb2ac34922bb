import contextlib
import io
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import qdof.trace
from qdof import fidelity
from qdof.circuits import PhaseConfig, li_circuit, pol_oam_pair
from qdof.cli import main
from qdof.fidelity import (ChannelLayout, FidelityParams, PHI_PLUS,
                           average_teleport_fidelity,
                           generalized_singlet_fraction,
                           generalized_teleportation_fidelity, relation_check,
                           sf_upper_bound_check, singlet_fraction,
                           teleport_fidelity, teleport_output,
                           two_param_state)
from qdof.measures import concurrence, tangle_one_vs_rest
from qdof.states import (DISTINGUISHABLE, DegenerateStateError, DensityMatrix,
                         DofSpec, to_density)
from qdof.trace import project_one_per_region

from oracles import (AXIS_STATES, MONOGAMY_MIN_TANGLE, _fef_closed,
                     _six_run_output, closed_form_singlet_fraction,
                     eye_two_param_data,
                     monogamy_ascent, optimized_singlet_fraction,
                     per_point_relation_check, pure_vector_grid,
                     singlet_fraction_ascent, singlet_fraction_grid,
                     six_run_teleport_fidelity,
                     star_ceiling_state, star_projector_sum,
                     unshared_pair_grid, werner_grid)

BELL = np.outer(PHI_PLUS, PHI_PLUS.conj())


def _stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    return out.getvalue()


def _random_rho(rng):
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def test_singlet_fraction_endpoints():
    assert singlet_fraction(BELL) == pytest.approx(1.0)
    assert singlet_fraction(np.eye(4) / 4) == pytest.approx(0.25)


def test_singlet_fraction_range_and_rotation_invariance():
    rng = np.random.default_rng(0)
    for _ in range(10):
        rho = _random_rho(rng)
        f = optimized_singlet_fraction(rho, restarts=2)
        assert 0.25 - 1e-9 <= f <= 1.0 + 1e-9
        # invariant under 1 x U rotations
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(z)
        u = np.kron(np.eye(2), q @ np.diag(np.diag(r) / np.abs(np.diag(r))))
        assert optimized_singlet_fraction(u @ rho @ u.conj().T,
                                          restarts=2) == \
            pytest.approx(f, abs=1e-6)


def test_optimizer_agrees_with_grid_oracle():
    rng = np.random.default_rng(1)
    for _ in range(20):
        rho = _random_rho(rng)
        f_opt = optimized_singlet_fraction(rho, restarts=6)
        f_grid = singlet_fraction_grid(rho, points_per_axis=22, refine=2)
        assert abs(f_opt - f_grid) <= 1e-4


def test_optimizer_agrees_with_closed_form():
    rng = np.random.default_rng(2)
    for _ in range(10):
        rho = _random_rho(rng)
        assert optimized_singlet_fraction(rho, restarts=6) == \
            pytest.approx(_fef_closed(rho), abs=1e-8)


def test_singlet_fraction_spread_flag():
    value, spread = optimized_singlet_fraction(BELL, restarts=4,
                                               return_spread=True)
    assert value == pytest.approx(1.0)
    assert spread <= 1e-6


def test_singlet_fraction_rejects_zero_trace():
    with pytest.raises(DegenerateStateError):
        singlet_fraction(np.zeros((4, 4)))
    with pytest.raises(DegenerateStateError):
        singlet_fraction(np.diag([0.5, -0.5, 0.0, 0.0]))


def test_photon_pair_has_half_singlet_fraction():
    layout = ChannelLayout("distinguishable", 2)
    dm = to_density(pol_oam_pair(0.61, 0.3))
    for matrix in fidelity._pair_matrices(dm, layout).reshape(-1, 4, 4):
        assert singlet_fraction(matrix) == pytest.approx(0.5, abs=1e-4)
    assert generalized_singlet_fraction(dm, layout) == pytest.approx(1.0,
                                                                     abs=1e-4)


def test_interferometer_state_reaches_two():
    ph = PhaseConfig(0.2, 1.0, -0.4, 0.7)
    dm = project_one_per_region(to_density(li_circuit("boson", ph)),
                                ["s1", "s2"])
    layout = ChannelLayout("indistinguishable", 2)
    assert generalized_singlet_fraction(dm, layout) == pytest.approx(2.0,
                                                                     abs=1e-4)


def test_teleport_bell_channel_is_perfect():
    rng = np.random.default_rng(3)
    for _ in range(5):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        assert teleport_fidelity(BELL, v) == pytest.approx(1.0)


def test_teleport_white_noise_gives_half():
    for v in AXIS_STATES:
        out = teleport_output(np.eye(4) / 4, v)
        assert np.allclose(out, np.eye(2) / 2, atol=1e-12)
    assert average_teleport_fidelity(np.eye(4) / 4) == pytest.approx(0.5)


def test_teleport_noisy_singlet_linear_fidelity():
    for p in (0.0, 0.25, 0.7, 1.0):
        ch = p * BELL + (1 - p) * np.eye(4) / 4
        assert average_teleport_fidelity(ch) == pytest.approx(p + (1 - p) / 2)


def _noise_pair_matrices():
    for kind in ("distinguishable", "indistinguishable"):
        for n in (1, 2, 3):
            layout = ChannelLayout(kind, n)
            for p in (0.0, 0.37, 0.9, 1.0):
                grid = fidelity._pair_matrices(two_param_state(p, layout),
                                               layout)
                yield from grid.reshape(-1, 4, 4)


def test_average_teleport_fidelity_matches_six_runs():
    """The closed form (2 <Phi+|rho|Phi+> + 1) / 3 against six full protocol
    runs, non-Hermitian and x1e-7 channels included."""
    rng = np.random.default_rng(4)
    channels = [_random_rho(rng) for _ in range(100)]
    channels += [rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
                 for _ in range(50)]
    channels += [1e-7 * _random_rho(rng) for _ in range(50)]
    channels += list(_noise_pair_matrices())
    for channel in channels:
        assert average_teleport_fidelity(channel) == \
            pytest.approx(six_run_teleport_fidelity(channel), rel=1e-14, abs=0)


def _sf_bound_pair_matrices():
    layout = ChannelLayout("distinguishable", 3)
    for seed in range(10):
        dm = _random_pure(layout, seed)
        yield from fidelity._pair_matrices(dm, layout).reshape(-1, 4, 4)


def _byte_test_matrices(seed):
    rng = np.random.default_rng(seed)
    matrices = [_random_rho(rng) for _ in range(100)]
    matrices += [rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
                 for _ in range(50)]
    matrices += [1e-7 * _random_rho(rng) for _ in range(50)]
    matrices += list(_noise_pair_matrices())
    matrices += list(_sf_bound_pair_matrices())
    return matrices


def test_singlet_fraction_matches_nine_products():
    """The magic-basis eigenvalue against the signed singular values of the
    correlation matrix, built from nine 4x4 products, I/4 (t = 0, det = +-0)
    included."""
    matrices = _byte_test_matrices(5)
    assert any(np.array_equal(m, np.eye(4) / 4) for m in matrices)
    for matrix in matrices:
        assert singlet_fraction(matrix) == \
            pytest.approx(closed_form_singlet_fraction(matrix), rel=1e-14,
                          abs=0)


_SF_KINDS = ("psd", "indefinite", "non-hermitian", "negative-trace")


def _drawn_matrix(rng, kind):
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    if kind == "psd":
        return a @ a.conj().T
    if kind == "indefinite":
        return a + a.conj().T
    if kind == "non-hermitian":
        return a
    return -(a @ a.conj().T)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       drawn=st.lists(st.tuples(st.sampled_from(_SF_KINDS), st.floats(-8, 8)),
                      min_size=1, max_size=25))
def test_singlet_fraction_stack_matches_the_correlation_oracle(seed, drawn):
    """Stacks of 1-25 Hermitian PSD, Hermitian indefinite, non-Hermitian and
    negative-trace matrices, each scaled by 10^e for e in [-8, 8]: every
    value is within 1e-14 relative of `closed_form_singlet_fraction` (which
    reads the Hermitian part, over the signed trace) and is the value its
    matrix gets alone, bit for bit."""
    rng = np.random.default_rng(seed)
    stack = np.array([10.0 ** e * _drawn_matrix(rng, kind)
                      for kind, e in drawn])
    tr = np.abs(stack.trace(axis1=1, axis2=2).real)
    assume((tr > 1e-12 * np.abs(stack).max(axis=(1, 2))).all())
    values = singlet_fraction(stack)
    assert values.shape == (len(drawn),)
    for matrix, value in zip(stack, values.tolist()):
        assert value == pytest.approx(closed_form_singlet_fraction(matrix),
                                      rel=1e-14, abs=0)
        assert np.float64(singlet_fraction(matrix)).tobytes() == \
            np.float64(value).tobytes()
    assert singlet_fraction(BELL) == 1.0
    assert singlet_fraction(1e-13 * BELL) == 1.0


def test_teleport_output_matches_one_run_byte_for_byte():
    rng = np.random.default_rng(6)
    channels = [_random_rho(rng) for _ in range(50)]
    # density matrices up to a positive factor: the protocol divides it out
    channels += [rng.uniform(1e-3, 1e3) * _random_rho(rng) for _ in range(30)]
    for channel in channels:
        psi = 3.7 * (rng.normal(size=2) + 1j * rng.normal(size=2))
        got = teleport_output(channel, psi)
        assert got.tobytes() == _six_run_output(channel, psi).tobytes()


@pytest.mark.parametrize("measure", [singlet_fraction,
                                     average_teleport_fidelity])
def test_stacked_values_are_each_matrix_alone(measure):
    """Stacks of 1-9 matrices, with repeats, in shuffled order: each value is
    the one its matrix gets in a call of its own, bit for bit."""
    rng = np.random.default_rng(8)
    pool = _byte_test_matrices(9)
    alone = {i: np.float64(measure(m)).tobytes() for i, m in enumerate(pool)}
    for size in range(1, 10):
        for _ in range(20):
            picks = rng.integers(len(pool), size=size)
            if size > 1:
                picks[-1] = picks[0]  # one repeat at least
            rng.shuffle(picks)
            values = measure(np.array([pool[i] for i in picks]))
            assert values.shape == (size,)
            assert [v.tobytes() for v in values] == [alone[i] for i in picks]


@pytest.mark.parametrize("measure, message", [
    (singlet_fraction, "singlet fraction of a zero-trace matrix"),
    (average_teleport_fidelity, "teleportation through a zero-trace channel"),
])
def test_a_later_zero_trace_matrix_fails_the_stack(measure, message):
    stack = np.array([BELL, np.eye(4) / 4, np.diag([0.5, -0.5, 0.0, 0.0])])
    with pytest.raises(DegenerateStateError, match=f"^{message}$"):
        measure(stack)


@pytest.mark.parametrize("measure", [singlet_fraction,
                                     average_teleport_fidelity])
def test_a_small_scale_is_not_a_zero_trace(measure):
    """The zero-trace cut is relative to each matrix's largest entry: a Bell
    state scaled by 1e-13 normalizes to the Bell state."""
    assert measure(1e-13 * BELL) == 1.0
    assert measure(np.array([BELL, 1e-13 * BELL])).tolist() == [1.0, 1.0]


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", [(0, 0), (0, 3)], ids=["diagonal", "off"])
@pytest.mark.parametrize("measure", [singlet_fraction,
                                     average_teleport_fidelity])
def test_non_finite_entries_are_refused(measure, entry, value):
    """A nan or an infinity on or off the diagonal of I/4, alone or as the
    second matrix of a stack, is refused as non-finite, never measured or
    called a zero trace."""
    rho = np.eye(4, dtype=complex) / 4
    rho[entry] = value
    for matrices in (rho, np.array([BELL, rho])):
        with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
            measure(matrices)


@pytest.mark.parametrize("shape", [(2, 2), (3, 3), (4,), (4, 8), (8, 8),
                                   (2, 4, 3), (2, 2, 4, 4)])
@pytest.mark.parametrize("measure", [singlet_fraction,
                                     average_teleport_fidelity,
                                     lambda rho: teleport_output(rho, [1, 0])],
                         ids=["singlet_fraction", "average_teleport_fidelity",
                              "teleport_output"])
def test_non_two_qubit_input_raises_value_error(measure, shape):
    matrix = np.ones(shape, dtype=complex)
    with pytest.raises(ValueError, match="two-qubit"):
        measure(matrix)


_LONE_09 = np.eye(4) / 4  # I/4 with a lone 0.9 at entry (0, 3)
_LONE_09[0, 3] = 0.9


@pytest.mark.parametrize("channel, message", [
    (np.diag([1.5, -0.5, 0.0, 0.0]), "not positive semidefinite"),
    (_LONE_09, "not Hermitian"),
    (-BELL, "not positive semidefinite"),
], ids=["negative-eigenvalue", "non-hermitian", "negative-trace"])
@pytest.mark.parametrize("run", [teleport_output, teleport_fidelity])
def test_teleport_refuses_a_channel_that_is_no_density_matrix(run, channel,
                                                              message):
    # a shape-and-trace check passes all three: fidelities 1.5 and 0.95, and
    # -BELL divided by its trace into BELL
    with pytest.raises(ValueError, match=message):
        run(channel, [1, 0])


def test_teleport_output_takes_one_channel():
    with pytest.raises(ValueError, match="two-qubit"):
        teleport_output(np.array([BELL]), [1, 0])


@pytest.mark.parametrize("psi_in, message", [
    ([0, 0], "^cannot teleport an input vector of zero norm$"),
    ([1, 0, 0], "^v1 teleports one qubit: psi_in must have length 2$"),
    (np.eye(2), "^v1 teleports one qubit: psi_in must have length 2$"),
], ids=["zero", "length-3", "2x2"])
@pytest.mark.parametrize("run", [teleport_output, teleport_fidelity])
def test_bad_teleport_input_raises_value_error(run, psi_in, message):
    with pytest.raises(ValueError, match=message):
        run(BELL, psi_in)


@pytest.mark.parametrize("channel", [BELL, _random_rho(np.random.default_rng(4))],
                         ids=["bell", "random"])
def test_input_whose_squared_norm_underflows_is_teleported(channel):
    for tiny, unit in (([1e-200, 0], [1, 0]), ([3e-190, -4e-190j], [3, -4j])):
        assert teleport_fidelity(channel, tiny) == pytest.approx(
            teleport_fidelity(channel, unit), rel=0, abs=1e-15)
    with pytest.raises(ValueError, match="zero norm"):
        teleport_fidelity(channel, [0, 0])


@pytest.mark.parametrize("kind", ["distinguishable", "indistinguishable"])
def test_layouts_hold_at_most_six_dofs(kind):
    assert ChannelLayout(kind, 6).n == 6
    with pytest.raises(ValueError) as exc:
        ChannelLayout(kind, 7)
    assert str(exc.value) == "v1 builds dense 4^n x 4^n matrices: n <= 6"


def test_two_param_state_endpoints():
    for kind in ("distinguishable", "indistinguishable"):
        layout = ChannelLayout(kind, 2)
        top = two_param_state(1.0, layout)
        bottom = two_param_state(0.0, layout)
        dim = len(top.basis)
        assert np.allclose(bottom.data, np.eye(dim) / dim)
        assert top.trace == pytest.approx(1.0)
    with pytest.raises(ValueError):
        two_param_state(1.5, ChannelLayout("distinguishable", 1))


def test_maximally_mixed_generalized_values():
    for kind in ("distinguishable", "indistinguishable"):
        for n in (1, 2):
            layout = ChannelLayout(kind, n)
            dm = two_param_state(0.0, layout)
            assert generalized_singlet_fraction(dm, layout) == \
                pytest.approx(n / 4, abs=1e-9)
            f = generalized_teleportation_fidelity(dm, layout)
            assert f == pytest.approx(0.5, abs=1e-9)


def test_relation_residuals_both_kinds():
    for kind in ("distinguishable", "indistinguishable"):
        for n in (1, 2, 3):
            recs = relation_check(ChannelLayout(kind, n))
            assert max(abs(r["residual"]) for r in recs) <= 1e-6


def test_relation_single_dof_reduces_to_classic_form():
    recs = relation_check(ChannelLayout("distinguishable", 1))
    for r in recs:
        assert r["f_g"] == pytest.approx((2 * r["F_g"] + 1) / 3, abs=1e-9)


def test_relation_endpoints_hit_ceilings():
    layout = ChannelLayout("indistinguishable", 2)
    recs = relation_check(layout)
    top = recs[-1]
    assert top["p"] == pytest.approx(1.0)
    assert top["F_g"] == pytest.approx(2.0, abs=1e-9)
    assert top["f_g"] == pytest.approx(5 / 6, abs=1e-9)


def test_indistinguishable_fidelity_capped():
    layout = ChannelLayout("indistinguishable", 2)
    dm = two_param_state(1.0, layout)
    params = FidelityParams(0.9, 2.0)
    assert generalized_teleportation_fidelity(dm, layout, params) == \
        pytest.approx(0.9, abs=1e-9)


def test_distinguishable_bound_never_exceeded():
    for n in (1, 2, 3):
        rep = sf_upper_bound_check(ChannelLayout("distinguishable", n),
                                   samples=60, seed=1)
        assert rep["within"]
        assert rep["bound"] == pytest.approx(1.0 + (n - 1) / 2)


def _random_rank(rng, rank):
    a = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_teleport_fidelity_never_beats_its_singlet_fraction_bound(rank):
    # Horodecki, Horodecki & Horodecki, PRA 60, 1888 (1999): the standard
    # protocol's f is at most (2 F + 1) / 3, F the fully entangled fraction
    rng = np.random.default_rng(40 + rank)
    stack = np.array([_random_rank(rng, rank) for _ in range(500)])
    bound = (2.0 * singlet_fraction(stack) + 1.0) / 3.0
    assert (average_teleport_fidelity(stack) - bound).max() <= 1e-12


def test_singlet_fraction_bound_is_met_when_phi_plus_leads():
    # on a Bell-diagonal state F is the largest Bell weight, so the bound
    # is met exactly when that weight is Phi+'s
    rng = np.random.default_rng(45)
    bells = [np.outer(b, b.conj()) for b in fidelity._BELL]
    weights = [np.array([1.0, 0, 0, 0]), np.full(4, 0.25)]
    for _ in range(200):
        w = np.sort(rng.dirichlet(np.ones(4)))[::-1]
        weights.append(np.concatenate([w[:1], rng.permutation(w[1:])]))
    for w in weights:
        rho = sum(wk * bell for wk, bell in zip(w, bells))
        assert abs(average_teleport_fidelity(rho)
                   - (2.0 * singlet_fraction(rho) + 1.0) / 3.0) <= 1e-14


def _pure_state(v, layout):
    """|v><v| on the layout's product basis."""
    basis, eta, specs = fidelity._space(layout)
    return DensityMatrix(basis, np.outer(v, v.conj()), eta, specs, layout.n)


def _random_unit_vectors(rng, n, count):
    for _ in range(count):
        v = rng.normal(size=4 ** n) + 1j * rng.normal(size=4 ** n)
        yield v / np.linalg.norm(v)


@pytest.mark.parametrize("n", [2, 3])
def test_pairs_of_a_pure_indistinguishable_state_are_rank_one(n):
    # why the indistinguishable ceiling F_g <= n cannot fail on pure states
    layout = ChannelLayout("indistinguishable", n)
    for v in _random_unit_vectors(np.random.default_rng(50 + n), n, 20):
        grid = fidelity._pair_matrices(_pure_state(v, layout), layout)
        grid = grid / np.trace(grid, axis1=2, axis2=3).real[..., None, None]
        assert np.abs(np.linalg.eigvalsh(grid)[..., :3]).max() <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pure_vector_grid_matches_the_trace_rules(n):
    layout = ChannelLayout("distinguishable", n)
    for v in _random_unit_vectors(np.random.default_rng(60 + n), n, 10):
        grid = fidelity._pair_matrices(_pure_state(v, layout), layout)
        assert np.abs(grid - pure_vector_grid(v, n)).max() <= 1e-14


@pytest.mark.parametrize("n", [2, 3])
def test_singlet_fraction_ascent_reaches_the_distinguishable_ceiling(n):
    # random states stay far below the ceiling from n = 3 on, so only a
    # maximizer can show that the ceiling is neither too low nor too high
    layout = ChannelLayout("distinguishable", n)
    ceiling = FidelityParams.for_layout(layout).big_f_max
    assert sf_upper_bound_check(layout, samples=1)["bound"] == ceiling
    v, value, largest = singlet_fraction_ascent(n, starts=4, seed=n)
    reached = generalized_singlet_fraction(_pure_state(v, layout),
                                           layout)
    assert abs(reached - value) <= 1e-12
    assert ceiling - 1e-6 <= reached <= ceiling + 1e-9
    assert largest <= ceiling + 1e-9


def _ceiling_misses(ceiling, readings):
    """Names of the `readings` (name -> value) that miss `ceiling` by more
    than 1e-12."""
    return [name for name, value in readings.items()
            if abs(value - ceiling) > 1e-12]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_star_hamiltonian_certifies_the_distinguishable_ceiling(n):
    # F_g's supremum is the top eigenvalue of H_n (see oracles): exact, with
    # no optimizer, where random states stay far below the ceiling
    layout = ChannelLayout("distinguishable", n)
    ceiling = FidelityParams.for_layout(layout).big_f_max
    assert ceiling == (n + 1) / 2
    top = np.linalg.eigvalsh(star_projector_sum(n))[-1]
    readings = {"top eigenvalue": top}
    if n <= 3:
        readings["sf-bound"] = sf_upper_bound_check(layout, samples=1)["bound"]
    if n <= 5:
        dm = _pure_state(star_ceiling_state(n, seed=80 + n), layout)
        readings["top eigenvector"] = generalized_singlet_fraction(dm, layout)
    assert _ceiling_misses(ceiling, readings) == []
    for scale in (1.01, 0.99):
        assert _ceiling_misses(scale * ceiling, readings)


def _monogamy_sides(dm, layout):
    """Per DoF i of party 1: sum_j C^2(A_i, B_j), from one stacked
    `concurrence` call on the pair grid, and 4 det rho_{A_i}."""
    n = layout.n
    grid = fidelity._pair_matrices(dm, layout)
    c2 = concurrence(grid.reshape(-1, 4, 4)).reshape(n, n) ** 2
    tangles = [tangle_one_vs_rest(np.einsum("abcb->ac", pair.reshape(2, 2, 2, 2)))
               for pair in grid[:, 0]]
    return c2.sum(axis=1), np.array(tangles)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_pair_grid_of_pure_distinguishable_states_is_monogamous(n):
    # Osborne & Verstraete, PRL 96, 220503 (2006): on pure qubits
    # sum_k C^2(q_i, q_k) <= 4 det rho_{q_i}; the A_i-B_j terms alone obey it
    layout = ChannelLayout("distinguishable", n)
    for v in _random_unit_vectors(np.random.default_rng(70 + n), n, 20):
        rows, tangles = _monogamy_sides(_pure_state(v, layout), layout)
        assert (rows <= tangles + 1e-9).all()


def _w_state(n):
    """W state of A_1 and B_1..B_n, A_2..A_n in |0>, axes (A_1..A_n,
    B_1..B_n) as in the product basis."""
    v = np.zeros((2,) * (2 * n))
    for axis in [0] + list(range(n, 2 * n)):
        one = [0] * (2 * n)
        one[axis] = 1
        v[tuple(one)] = 1 / math.sqrt(n + 1)
    return v.reshape(-1)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_w_state_reaches_the_monogamy_bound(n):
    """The W state on A_1 and B_1..B_n reaches the Osborne-Verstraete bound
    through the library's pair grid: sum_j C^2(A_1, B_j) / 4 det rho_{A_1}
    is 1, with tangle 4n/(n+1)^2."""
    layout = ChannelLayout("distinguishable", n)
    rows, tangles = _monogamy_sides(_pure_state(_w_state(n), layout), layout)
    assert abs(tangles[0] - 4 * n / (n + 1) ** 2) <= 1e-12
    assert abs(rows[0] / tangles[0] - 1.0) <= 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_monogamy_ascent_approaches_the_bound_from_below(n):
    """The seeded ascent on sum_j C^2(A_i, B_j) / 4 det rho_{A_i}, over rows
    whose tangle is at least 0.1, comes within 1e-3 of 1 and never goes
    above it.  Unentangled rows are left out, so the ascent cannot settle on
    one."""
    layout = ChannelLayout("distinguishable", n)
    v, ratio, largest = monogamy_ascent(n, starts=2, seed=n)
    rows, tangles = _monogamy_sides(_pure_state(v, layout), layout)
    kept = tangles >= MONOGAMY_MIN_TANGLE
    # the concurrence takes square roots of flip eigenvalues near 0, which
    # turn the two grids' 1e-14 differences into up to about 1e-10 here
    assert abs((rows[kept] / tangles[kept]).max() - ratio) <= 1e-8
    assert 1.0 - 1e-3 <= ratio
    assert largest <= 1.0 + 1e-9


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_monogamy_is_tight_on_the_distinguishable_resource(n):
    layout = ChannelLayout("distinguishable", n)
    rows, tangles = _monogamy_sides(two_param_state(1.0, layout), layout)
    assert abs(rows[0] - tangles[0]) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_indistinguishable_resource_rows_sum_to_n(n):
    # claim (i) at n DoFs: each row holds n Bell pairs, n times what
    # distinguishable particles' monogamy allows A_i
    layout = ChannelLayout("indistinguishable", n)
    rows, tangles = _monogamy_sides(two_param_state(1.0, layout), layout)
    assert np.abs(rows - n).max() <= 1e-12
    assert np.abs(tangles - 1.0).max() <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("kind", ["distinguishable", "indistinguishable"])
def test_every_pair_grid_keeps_the_horodecki_bound(kind, n):
    """On random pure states, the unscaled f_g, the largest pair fidelity,
    is at most (2 max_ij F_ij + 1)/3 (Horodecki, Horodecki & Horodecki, PRA
    60, 1888, 1999), and the rescaled f_g of an indistinguishable layout at
    most its ceiling F_MAX_INDIST < 1, claim (ii) as the code encodes it."""
    layout = ChannelLayout(kind, n)
    rng = np.random.default_rng(80 + n)
    for v in _random_unit_vectors(rng, n, 30):
        dm = _pure_state(v, layout)
        stack = fidelity._pair_matrices(dm, layout).reshape(-1, 4, 4)
        raw = average_teleport_fidelity(stack).max()
        assert raw <= (2.0 * singlet_fraction(stack).max() + 1.0) / 3.0 + 1e-12
        if kind == "indistinguishable":
            assert (generalized_teleportation_fidelity(dm, layout)
                    <= fidelity.F_MAX_INDIST + 1e-12)


def test_bound_check_rejects_indistinguishable_layout():
    with pytest.raises(ValueError):
        sf_upper_bound_check(ChannelLayout("indistinguishable", 2))


def _per_pair_loop(dm, layout, params):
    """Both generalized quantities with one measurement per pair."""
    n = layout.n
    grid = fidelity._pair_matrices(dm, layout)
    pair_f = np.array([[singlet_fraction(grid[i, j]) for j in range(n)]
                       for i in range(n)])
    big_f = float(max(pair_f.sum(axis=1).max(), pair_f.sum(axis=0).max()))
    best = max(average_teleport_fidelity(grid[i, j])
               for i in range(n) for j in range(n))
    if layout.kind == "indistinguishable":
        best = fidelity._rescale_to_ceiling(best, params.f_max)
    return float(best), big_f


def _random_pure(layout, seed):
    rng = np.random.default_rng(seed)
    dim = 4 ** layout.n
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v /= np.linalg.norm(v)
    basis, _, specs = fidelity._space(layout)
    return DensityMatrix(basis, np.outer(v, v.conj()), DISTINGUISHABLE, specs,
                         layout.n)


@pytest.mark.parametrize("layout, dm", [
    (ChannelLayout("indistinguishable", 3),
     two_param_state(0.37, ChannelLayout("indistinguishable", 3))),
    (ChannelLayout("distinguishable", 3),
     two_param_state(0.37, ChannelLayout("distinguishable", 3))),
    (ChannelLayout("distinguishable", 3),
     _random_pure(ChannelLayout("distinguishable", 3), 3)),
], ids=["noise-indist", "noise-dist", "random-pure"])
def test_each_grid_is_measured_by_one_call(monkeypatch, layout, dm):
    params = FidelityParams.for_layout(layout)
    want = _per_pair_loop(dm, layout, params)
    received = {"average_teleport_fidelity": [], "singlet_fraction": []}
    for name in received:
        def spy(stack, measure=getattr(fidelity, name), name=name):
            received[name].append(len(stack))
            return measure(stack)
        monkeypatch.setattr(fidelity, name, spy)
    got = (generalized_teleportation_fidelity(dm, layout, params),
           generalized_singlet_fraction(dm, layout))
    # one call per grid, on the stack of its n^2 matrices
    assert received == {"average_teleport_fidelity": [9],
                        "singlet_fraction": [9]}
    assert got == want


def _count_reductions(monkeypatch):
    """Reset the grid memo and count `_pair_matrices` calls."""
    monkeypatch.setattr(fidelity, "_last_grid", None)
    calls = []
    pair_matrices = fidelity._pair_matrices

    def spy(dm, layout):
        calls.append(dm)
        return pair_matrices(dm, layout)

    monkeypatch.setattr(fidelity, "_pair_matrices", spy)
    return calls


def _both(dm, layout, params):
    return (generalized_teleportation_fidelity(dm, layout, params),
            generalized_singlet_fraction(dm, layout))


@pytest.mark.parametrize("kind", ["distinguishable", "indistinguishable"])
def test_one_state_is_reduced_once_for_both_quantities(monkeypatch, kind):
    layout = ChannelLayout(kind, 3)
    params = FidelityParams.for_layout(layout)
    dm = two_param_state(0.37, layout)
    want = _per_pair_loop(dm, layout, params)
    calls = _count_reductions(monkeypatch)
    measured = []

    def spy(stack, measure=fidelity.singlet_fraction):
        measured.append(stack)
        return measure(stack)

    monkeypatch.setattr(fidelity, "singlet_fraction", spy)
    assert _both(dm, layout, params) == want
    assert len(calls) == 1
    # one stack of the grid's n^2 matrices
    assert [len(stack) for stack in measured] == [9]
    # the memo's matrices reach the measures read-only
    assert not any(stack.flags.writeable for stack in measured)


def test_grid_is_rebuilt_after_the_data_changes_in_place(monkeypatch):
    layout = ChannelLayout("distinguishable", 2)
    params = FidelityParams.for_layout(layout)
    dm = two_param_state(0.37, layout)
    calls = _count_reductions(monkeypatch)
    before = _both(dm, layout, params)
    dm.data[...] = two_param_state(0.9, layout).data
    after = _both(dm, layout, params)
    assert len(calls) == 2
    assert after != before
    monkeypatch.undo()
    assert after == _per_pair_loop(dm, layout, params)


def test_equal_data_on_another_basis_object_is_reduced_again(monkeypatch):
    layout = ChannelLayout("indistinguishable", 2)
    params = FidelityParams.for_layout(layout)
    dm = two_param_state(0.37, layout)
    twin = DensityMatrix(tuple(list(dm.basis)), dm.data.copy(), dm.eta,
                         dm.dof_specs, dm.n_dofs_orig)
    assert twin.basis == dm.basis and twin.basis is not dm.basis
    calls = _count_reductions(monkeypatch)
    got = _both(dm, layout, params), _both(twin, layout, params)
    assert [c is dm for c in calls] == [True, False]
    monkeypatch.undo()
    assert got == (_per_pair_loop(dm, layout, params),) * 2


def test_bound_check_reduces_each_sample_past_the_memo(monkeypatch):
    """No random state repeats the last, so the memo is neither read nor
    left holding a sample."""
    calls = _count_reductions(monkeypatch)
    sf_upper_bound_check(ChannelLayout("distinguishable", 2), samples=3)
    assert len(calls) == 3
    assert fidelity._last_grid is None


def test_bound_check_builds_no_resource_matrix():
    """The random states need the layout's basis and specs only, not the
    4^n x 4^n resource matrix of the noise family."""
    fidelity._resource.cache_clear()
    sf_upper_bound_check(ChannelLayout("distinguishable", 3), samples=2)
    assert fidelity._resource.cache_info().currsize == 0


def test_relation_check_reduces_the_endpoint_once(monkeypatch):
    """Only the resource, the p = 1 endpoint whose grid the ceilings are
    measured on, is reduced, whatever the number of points, and no state of
    the family is built: the p = 0 grid is the constant I/4 grid."""
    calls = _count_reductions(monkeypatch)
    states = []
    build = fidelity.two_param_state
    monkeypatch.setattr(fidelity, "two_param_state",
                        lambda p, layout: states.append(p) or build(p, layout))
    for points in (1, 2, 21):
        calls.clear()
        relation_check(ChannelLayout("indistinguishable", 3),
                       np.linspace(0.0, 1.0, points))
        assert len(calls) == 1, points
    assert states == []


def test_relation_check_leaves_no_resource_matrix():
    """The resource is built past `_resource`'s cache, so no 4^n x 4^n
    matrix outlives the call."""
    fidelity._resource.cache_clear()
    relation_check(ChannelLayout("indistinguishable", 3))
    relation_check(ChannelLayout("distinguishable", 2), [0.0, 1.0])
    assert fidelity._resource.cache_info().currsize == 0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("kind", ["distinguishable", "indistinguishable"])
def test_relation_check_closed_forms_are_byte_exact(kind, n):
    """What `relation_check` uses in place of the family's endpoints: the
    reduced p = 0 state is the I/4 grid, and the resource is the p = 1
    state's matrix, byte for byte."""
    layout = ChannelLayout(kind, n)
    noise = fidelity._pair_matrices(two_param_state(0.0, layout), layout)
    constant = np.broadcast_to(np.eye(4, dtype=complex) / 4, (n, n, 4, 4))
    assert noise.tobytes() == np.ascontiguousarray(constant).tobytes()
    assert (fidelity._resource(layout).tobytes()
            == two_param_state(1.0, layout).data.tobytes())


@pytest.mark.parametrize("p_grid", [[0.5, 1.5], [math.nan], [-1e-9]])
def test_relation_check_refuses_a_bad_p_before_any_reduction(monkeypatch,
                                                             p_grid):
    calls = _count_reductions(monkeypatch)
    with pytest.raises(ValueError, match=r"^p must lie in \[0, 1\]$"):
        relation_check(ChannelLayout("distinguishable", 2), p_grid)
    assert calls == []


def _point_grids(layout, p_grid):
    """The pair grid of each point of `relation_check(layout, p_grid)`, as
    its F_g reads it."""
    grids = []

    def spy(grid, measure=fidelity._singlet_fraction_of):
        grids.append(grid)
        return measure(grid)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fidelity, "_singlet_fraction_of", spy)
        relation_check(layout, p_grid)
    return grids[1:]  # the first is the p = 1 endpoint's, for the ceiling


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["distinguishable", "indistinguishable"]),
       n=st.integers(1, 5), p=st.floats(0.0, 1.0))
def test_each_point_grid_is_the_grid_of_its_state(kind, n, p):
    """The affine grid p * grid(1) + (1 - p) * grid(0) is the pair grid of
    the state at p, and the Werner grid of the closed form."""
    layout = ChannelLayout(kind, n)
    (grid,) = _point_grids(layout, [p])
    reduced = fidelity._pair_matrices(two_param_state(p, layout), layout)
    assert np.abs(grid - reduced).max() <= 1e-15
    assert np.abs(grid - werner_grid(p, layout)).max() <= 1e-15


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("kind", ["distinguishable", "indistinguishable"])
def test_relation_records_are_the_per_point_records(kind, n):
    """At the 12 significant digits the CLI prints, the records read off
    the endpoint grids are those of a reduction at every point."""
    layout = ChannelLayout(kind, n)
    p_grid = np.linspace(0.0, 1.0, 21)

    def printed(records):
        return [{k: f"{v:.12g}" for k, v in r.items()} for r in records]

    assert (printed(relation_check(layout, p_grid))
            == printed(per_point_relation_check(layout, p_grid)))


def _dof_trace_calls(monkeypatch, dm, layout):
    """The DoF rules `_pair_matrices(dm, layout)` calls, in order."""
    calls = []
    for name in ("trace_dof_dist", "trace_dof_indist"):
        def spy(*args, rule=getattr(qdof.trace, name), name=name):
            calls.append(name)
            return rule(*args)
        monkeypatch.setattr(fidelity, name, spy)
    fidelity._pair_matrices(dm, layout)
    return calls


def _grid_traces(kind, n, groups):
    """(1 + groups)(n(n - 1)/2 + n - 1) calls of the kind's DoF rule: party 1
    to each of its DoFs, then each of `groups` stacks of distinct rows of one
    layout to each DoF of party 2, each sharing the traces of DoFs 1..i-1."""
    rule = ("trace_dof_dist" if kind == "distinguishable"
            else "trace_dof_indist")
    return [rule] * ((1 + groups) * (n * (n - 1) // 2 + n - 1))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("kind", ["distinguishable", "indistinguishable"])
def test_pair_grid_shares_its_dof_traces(monkeypatch, kind, n):
    """At p = 0.37 every indistinguishable row is the same matrix, and
    distinguishable rows 2..n are one matrix, stacked with row 1 on one
    layout: 0/4/10/18/28 calls at n = 1-5 either way.  At p = 0 every row
    is the same matrix."""
    layout = ChannelLayout(kind, n)
    for p in (0.37, 0.0):
        assert (_dof_trace_calls(monkeypatch, two_param_state(p, layout),
                                 layout)
                == _grid_traces(kind, n, 1)), p


@pytest.mark.parametrize("n", [1, 2, 3])
def test_random_state_reduces_every_row(monkeypatch, n):
    """A random pure state's rows all differ and share one layout, so they
    go through party 2 as one stack: 2(n(n - 1)/2 + n - 1) calls."""
    layout = ChannelLayout("distinguishable", n)
    basis, _, specs = fidelity._space(layout)
    rng = np.random.default_rng(n)
    v = rng.normal(size=4 ** n) + 1j * rng.normal(size=4 ** n)
    v /= np.linalg.norm(v)
    dm = DensityMatrix(basis, np.outer(v, v.conj()), DISTINGUISHABLE, specs, n)
    assert (_dof_trace_calls(monkeypatch, dm, layout)
            == _grid_traces("distinguishable", n, 1))


@pytest.mark.parametrize("p", [0.0, 0.37, 0.9, 1.0])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("kind", ["distinguishable", "indistinguishable"])
def test_shared_rows_give_the_unshared_grid_bytes(kind, n, p):
    layout = ChannelLayout(kind, n)
    dm = two_param_state(p, layout)
    assert (fidelity._pair_matrices(dm, layout).tobytes()
            == unshared_pair_grid(dm, layout).tobytes())


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["distinguishable", "indistinguishable"]),
       n=st.integers(1, 3), data=st.data())
def test_random_pure_states_give_the_unshared_grid_bytes(kind, n, data):
    """Drawn amplitudes, zeros included (which take the kernel), through
    both kinds' rules: shared or not, every row has the unshared bytes."""
    layout = ChannelLayout(kind, n)
    basis, eta, specs = fidelity._space(layout)
    parts = data.draw(arrays(float, (2, 4 ** n), elements=st.floats(
        -1, 1, allow_subnormal=False)))
    v = parts[0] + 1j * parts[1]
    assume(np.linalg.norm(v) > 1e-3)
    v /= np.linalg.norm(v)
    dm = DensityMatrix(basis, np.outer(v, v.conj()), eta, specs, n)
    assert (fidelity._pair_matrices(dm, layout).tobytes()
            == unshared_pair_grid(dm, layout).tobytes())


def test_a_reversed_value_order_keeps_its_own_row():
    """With DoF 2 declared ("1", "0"), rows 1 and 2 of an n = 2 noise state
    have the same bytes, but row 2's DoF is laid out the other way round:
    pair (2, 1) is a Werner state of Psi+, not of Phi+."""
    layout = ChannelLayout("indistinguishable", 2)
    basis, eta, _ = fidelity._space(layout)
    specs = (DofSpec(1, ("0", "1")), DofSpec(2, ("1", "0")))
    dm = DensityMatrix(basis, two_param_state(0.37, layout).data, eta, specs, 2)
    grid = fidelity._pair_matrices(dm, layout)
    assert grid.tobytes() == unshared_pair_grid(dm, layout).tobytes()
    psi_plus = np.array([0, 1, 1, 0]) / math.sqrt(2)
    werner = 0.37 * np.outer(psi_plus, psi_plus) + 0.63 * np.eye(4) / 4
    assert np.abs(grid[1, 0] - werner).max() <= 1e-14


@pytest.mark.parametrize("p", [0.0, 0.37, 0.9, 1.0, 1e-300])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("kind", ["distinguishable", "indistinguishable"])
def test_two_param_state_has_the_identity_forms_bytes(kind, n, p):
    layout = ChannelLayout(kind, n)
    assert (two_param_state(p, layout).data.tobytes()
            == eye_two_param_data(p, layout).tobytes())


@pytest.mark.parametrize("p", [0.0, 0.37, 0.9, 1.0])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("kind", ["distinguishable", "indistinguishable"])
def test_noise_family_pairs_are_werner_states(kind, n, p):
    layout = ChannelLayout(kind, n)
    grid = fidelity._pair_matrices(two_param_state(p, layout), layout)
    oracle = werner_grid(p, layout)
    assert grid.shape == oracle.shape == (n, n, 4, 4)
    for i, j in np.ndindex(n, n):
        assert np.abs(grid[i, j] - oracle[i, j]).max() <= 1e-14, (i + 1, j + 1)


def _stacked(oracle):
    return lambda stack: np.array([oracle(matrix) for matrix in stack])


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kind", ["distinguishable", "indistinguishable"])
def test_relation_records_do_not_depend_on_the_summation_order(monkeypatch,
                                                               kind, n):
    """Measured by the per-matrix oracles, whose sums run in another order,
    the printed records are the same bytes."""
    argvs = [["fidelity-relation", "--kind", kind, "--n", str(n),
              "--format", fmt] for fmt in ("json", "csv")]
    want = [_stdout(argv) for argv in argvs]
    monkeypatch.setattr(fidelity, "average_teleport_fidelity",
                        _stacked(six_run_teleport_fidelity))
    monkeypatch.setattr(fidelity, "singlet_fraction",
                        _stacked(closed_form_singlet_fraction))
    assert [_stdout(argv) for argv in argvs] == want


@pytest.mark.parametrize("kind", ["distinguishable", "indistinguishable"])
def test_relation_residuals_are_exactly_zero(kind):
    for n in (1, 2, 3, 4, 5):
        p_grid = None if n < 5 else [0.0, 1.0]
        for rec in relation_check(ChannelLayout(kind, n), p_grid):
            assert rec["residual"] == 0.0
            assert math.copysign(1.0, rec["residual"]) == 1.0  # not -0.0
