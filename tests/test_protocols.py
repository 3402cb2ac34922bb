import math
from fractions import Fraction

import numpy as np
import pytest

from qdof import protocols
from qdof.circuits import PhaseConfig
from qdof.hardy import HardyParams, hardy_q
from qdof.protocols import (AttackConfig, SignalingConfig, hardy_attack,
                            hardy_q_swapped, qpq_sf, signaling_exact,
                            signaling_mc, signaling_multicopy, swap_verify)

from oracles import cascade_signaling_exact, words_signaling_hits

deg = math.radians


def test_signaling_exact_closed_form():
    for n in range(2, 11):
        assert signaling_exact(n) == 1 - Fraction(1, 2 ** n)
    assert float(signaling_exact(2)) == 0.75
    assert float(signaling_exact(3)) == 0.875


def test_signaling_exact_monotone_with_unit_limit():
    values = [signaling_exact(n) for n in range(2, 21)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert 1 - float(values[-1]) < 1e-6


def test_signaling_exact_is_the_cascade_enumeration():
    for n in range(2, 21):
        assert signaling_exact(n) == cascade_signaling_exact(n)


def test_signaling_exact_rejects_bad_n():
    with pytest.raises(ValueError, match="need at least two DoFs"):
        signaling_exact(1)
    for n in (21, 31):
        with pytest.raises(ValueError, match="cascade limited to 20 DoFs"):
            signaling_exact(n)


@pytest.mark.parametrize("n, mode, message", [
    (21, "dofs", "cascade limited to 20 DoFs"),
    (3, "widget", "mode must be 'dofs' or 'copies'"),
])
def test_signaling_mc_refuses_before_any_draw(monkeypatch, n, mode, message):
    def no_draws(seed):
        raise AssertionError("a generator was made")

    monkeypatch.setattr(protocols.np.random, "default_rng", no_draws)
    with pytest.raises(ValueError, match=message):
        signaling_mc(SignalingConfig(n, 10_000_000, 0), mode=mode)


def test_signaling_mc_within_four_sigma():
    for mode in ("dofs", "copies"):
        for n in (2, 3, 4):
            for seed in range(5):
                r = signaling_mc(SignalingConfig(n, 100_000, seed), mode=mode)
                assert abs(r["estimate"] - r["exact"]) <= 4 * r["stderr"]
                assert r["physical"] is False


def test_signaling_mc_single_trial_is_binary():
    r = signaling_mc(SignalingConfig(2, 1, 3))
    assert r["estimate"] in (0.0, 1.0)


def test_signaling_mc_deterministic_for_fixed_seed():
    a = signaling_mc(SignalingConfig(3, 50_000, 11))
    b = signaling_mc(SignalingConfig(3, 50_000, 11))
    assert a == b


@pytest.mark.parametrize("n", range(2, 21))
def test_signaling_mc_counts_the_hits_of_the_word_decoder(n):
    for seed in range(5):
        for trials in (1, 7, 5000):
            cfg = SignalingConfig(n, trials, seed)
            # the same float as hits / trials, so estimate * trials rounds to hits
            assert signaling_mc(cfg)["estimate"] == words_signaling_hits(cfg) / trials


@pytest.mark.parametrize("cfg, estimate, stderr, exact", [
    ((2, 1, 0), 0.0, 1e-06, 0.75),
    ((5, 1000, 3), 0.967, 0.005648982209212561, 0.96875),
    ((21, 100, 1), 1.0, 1e-07, 0.9999995231628418),
    ((30, 7, 4), 1.0, 3.779644730092272e-07, 0.9999999990686774),
])
def test_signaling_mc_copies_mode_record(cfg, estimate, stderr, exact):
    # the records 'copies' mode gave before 'dofs' mode counted from bits
    _, trials, seed = cfg
    assert signaling_mc(SignalingConfig(*cfg), mode="copies") == {
        "estimate": estimate, "stderr": stderr, "exact": exact,
        "trials": trials, "seed": seed, "mode": "copies", "physical": False}


def test_signaling_multicopy_values():
    assert float(signaling_multicopy(1)) == 0.5
    assert float(signaling_multicopy(2)) == 0.75
    assert 1 - float(signaling_multicopy(20)) < 1e-6


def test_qpq_particle_respects_two_particle_ceiling():
    for theta in np.linspace(0.05, math.pi / 2 - 0.01, 15):
        assert qpq_sf(theta, "particle") <= 1.5 + 1e-9


def test_qpq_dof_beats_ceiling_and_approaches_two():
    grid = np.linspace(0.05, math.pi / 2, 15)
    values = [qpq_sf(t, "dof") for t in grid]
    assert all(v > 1.5 for v in values)
    assert max(values) >= 1.99


def test_qpq_dof_dominates_particle():
    for theta in np.linspace(0.1, math.pi / 2 - 0.05, 9):
        assert qpq_sf(theta, "dof") >= qpq_sf(theta, "particle")


def test_qpq_rejects_bad_arguments():
    with pytest.raises(ValueError):
        qpq_sf(0.0, "particle")
    with pytest.raises(ValueError):
        qpq_sf(0.3, "widget")


def test_swap_verify_table_and_bound():
    res = swap_verify(PhaseConfig())
    assert res["table"].entry("H", "R") == pytest.approx(0.25)
    assert res["chsh"] == pytest.approx(2 * math.sqrt(2), abs=1e-9)
    rng = np.random.default_rng(0)
    for _ in range(5):
        ph = PhaseConfig(*rng.uniform(0, 2 * math.pi, 4))
        assert swap_verify(ph)["table"].total == pytest.approx(0.5, abs=1e-12)


def test_attack_endpoints_exact():
    theta = phi = deg(51.827)
    p = HardyParams(theta, phi)
    res0 = hardy_attack(AttackConfig(theta, phi, 0.0))
    res1 = hardy_attack(AttackConfig(theta, phi, 1.0))
    assert res0["q_alpha"] == res0["q_prime"] == hardy_q_swapped(p)
    assert res1["q_alpha"] == res1["q"] == hardy_q(p)


def test_attack_swapped_probability_value():
    p = HardyParams(deg(51.827), deg(51.827))
    # direct evaluation of the swapped-path amplitude
    assert hardy_q_swapped(p) == pytest.approx(0.224483, abs=1e-6)
    assert hardy_q_swapped(p) > hardy_q(p)


def test_attack_mixture_is_convex_parabola():
    theta = phi = deg(51.827)
    q = hardy_q(HardyParams(theta, phi))
    qp = hardy_q_swapped(HardyParams(theta, phi))
    alphas = np.linspace(0, 1, 11)
    vals = [hardy_attack(AttackConfig(theta, phi, a))["q_alpha"]
            for a in alphas]
    assert vals == pytest.approx([a ** 2 * q + (1 - a) ** 2 * qp
                                  for a in alphas])
    # overall drop from the fully swapped to the undisturbed value
    assert vals[0] > vals[-1]
    # decreasing until the analytic minimum at q'/(q+q')
    turn = qp / (q + qp)
    for a, b in zip(alphas, alphas[1:]):
        if b <= turn:
            assert vals[list(alphas).index(b)] < vals[list(alphas).index(a)]


def test_attack_rejects_alpha_outside_unit_interval():
    with pytest.raises(ValueError):
        AttackConfig(0.3, 0.3, 1.2)


def test_attack_rejects_singular_angles():
    with pytest.raises(ValueError):
        hardy_attack(AttackConfig(math.pi / 2, math.pi / 2, 0.5))
