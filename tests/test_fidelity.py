import math

import numpy as np
import pytest

from qdof.circuits import PhaseConfig, li_circuit, pol_oam_pair
from qdof.fidelity import (AXIS_STATES, ChannelLayout, FidelityParams,
                           PHI_PLUS, _fef_closed, average_teleport_fidelity,
                           generalized_singlet_fraction,
                           generalized_teleportation_fidelity, relation_check,
                           sf_upper_bound_check, singlet_fraction,
                           teleport_fidelity, teleport_output,
                           two_param_state)
from qdof.states import DegenerateStateError, to_density
from qdof.trace import project_one_per_region

from oracles import optimized_singlet_fraction, singlet_fraction_grid

BELL = np.outer(PHI_PLUS, PHI_PLUS.conj())


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
    from qdof.fidelity import _pair_matrix
    for i in (1, 2):
        for j in (1, 2):
            assert singlet_fraction(_pair_matrix(dm, layout, i, j)) == \
                pytest.approx(0.5, abs=1e-4)
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
    params = FidelityParams.for_layout(layout, f_max_indist=0.9)
    assert generalized_teleportation_fidelity(dm, layout, params) == \
        pytest.approx(0.9, abs=1e-9)


def test_distinguishable_bound_never_exceeded():
    for n in (1, 2, 3):
        rep = sf_upper_bound_check(ChannelLayout("distinguishable", n),
                                   samples=60, seed=1)
        assert rep["within"]
        assert rep["bound"] == pytest.approx(1.0 + (n - 1) / 2)


def test_bound_check_rejects_indistinguishable_layout():
    with pytest.raises(ValueError):
        sf_upper_bound_check(ChannelLayout("indistinguishable", 2))
