import math

import numpy as np
import pytest

from qdof.hardy import (BoundaryError, EQUATIONS, HardyParams, NoiseModel,
                        Q_MAX, SampleSet, calibrate_offline,
                        chsh_hardy_lhs, diff_lower_bound, estimate_qlb,
                        hardy_probs, hardy_q, noisy_probabilities,
                        noisy_sample, qmax_solve, t_ci, t_quantile)

deg = math.radians

MES_PS_ROWS = [(45, 90), (0, 10), (0, 55), (30, 0), (60, 0), (90, 0),
               (90, 30), (90, 45), (0, 0)]


def test_probs_vanish_except_witness():
    p = HardyParams(deg(51.827), deg(51.827))
    probs = hardy_probs(p)
    assert probs["e1"] == pytest.approx(0.0, abs=1e-9)
    assert probs["e2"] == pytest.approx(0.0, abs=1e-9)
    assert probs["e3"] == pytest.approx(0.0, abs=1e-9)
    assert probs["e5"] == pytest.approx(0.09017, abs=1e-4)


def test_probs_match_closed_form_on_grid():
    rng = np.random.default_rng(0)
    for _ in range(25):
        p = HardyParams(rng.uniform(0.05, 1.5), rng.uniform(0.05, 1.5))
        probs = hardy_probs(p)
        assert probs["e5"] == pytest.approx(hardy_q(p), abs=1e-9)
        assert max(probs["e1"], probs["e2"], probs["e3"]) < 1e-9


def test_witness_zero_on_mes_and_ps_rows():
    for t, f in MES_PS_ROWS:
        assert hardy_q(HardyParams(deg(t), deg(f))) == pytest.approx(0.0,
                                                                     abs=1e-12)


def test_witness_special_values():
    assert hardy_q(HardyParams(deg(45), deg(45))) == pytest.approx(1 / 12)
    assert hardy_q(HardyParams(deg(30), deg(60))) == pytest.approx(0.0433,
                                                                   abs=5e-4)
    assert hardy_q(HardyParams(deg(30), deg(90))) == pytest.approx(0.0,
                                                                   abs=1e-12)


def test_witness_bounded_by_maximum_on_grid():
    for t in np.arange(1.0, 90.0, 1.0):
        for f in np.arange(1.0, 90.0, 1.0):
            assert hardy_q(HardyParams(deg(t), deg(f))) <= Q_MAX + 1e-9


def test_qmax_solver():
    t, f, q = qmax_solve()
    assert q == pytest.approx(Q_MAX, abs=1e-9)
    assert math.degrees(t) == pytest.approx(51.827, abs=1e-3)
    assert math.degrees(f) == pytest.approx(51.827, abs=1e-3)
    assert math.cos(2 * t) == pytest.approx(2 - math.sqrt(5), abs=1e-8)


def test_boundary_point_rejected():
    with pytest.raises(BoundaryError):
        HardyParams(math.pi / 2, math.pi / 2)


def test_zero_noise_matches_ideal():
    p = HardyParams(deg(40), deg(70))
    clean = noisy_probabilities(p, NoiseModel(0.0, 0.0, 0.0, 8192))
    ideal = hardy_probs(p)
    for name in ideal:
        assert clean[name] == pytest.approx(ideal[name], abs=1e-12)


def test_depolarizing_band_on_mes():
    p = HardyParams(deg(45), deg(90))
    val = noisy_probabilities(p, NoiseModel(0.05, 0.0, 0.0, 8192))["e5"]
    assert val == pytest.approx(0.05 / 4, abs=1e-12)
    assert 0.01 <= val <= 0.1


def test_noisy_sampling_deterministic():
    p = HardyParams(deg(51.827), deg(51.827))
    a = noisy_sample(p, NoiseModel(), n_runs=6, seed=5)
    b = noisy_sample(p, NoiseModel(), n_runs=6, seed=5)
    for name in a:
        assert np.array_equal(a[name].values, b[name].values)


def test_noisy_sampling_concentrates_with_shots():
    p = HardyParams(deg(51.827), deg(51.827))
    nm_small = NoiseModel(shots=256)
    nm_big = NoiseModel(shots=65536)
    sd_small = noisy_sample(p, nm_small, n_runs=40, seed=1)["e5"].sd
    sd_big = noisy_sample(p, nm_big, n_runs=40, seed=1)["e5"].sd
    assert sd_big < sd_small


def test_t_quantiles_against_tables():
    # six-decimal two-sided table values
    assert t_quantile(0.005, 9) == pytest.approx(3.249836, abs=1e-5)
    assert t_quantile(0.025, 9) == pytest.approx(2.262157, abs=1e-5)
    assert t_quantile(0.05, 9) == pytest.approx(1.833113, abs=1e-5)
    assert t_quantile(0.025, 39) == pytest.approx(2.022691, abs=1e-5)
    assert t_quantile(0.005, 1) == pytest.approx(63.656741, abs=1e-3)


def test_t_quantile_rejects_zero_dof():
    with pytest.raises(ValueError):
        t_quantile(0.025, 0)


def test_t_quantile_approaches_normal():
    assert t_quantile(0.025, 9999) == pytest.approx(1.95996, rel=0.01)


def test_t_ci_zero_spread_and_width_scaling():
    flat = SampleSet(np.full(10, 0.3))
    lo, hi = t_ci(flat, 0.01)
    assert lo == pytest.approx(0.3) and hi == pytest.approx(0.3)
    # width scales as t_quantile(nu)/sqrt(n); the pure 1/sqrt(n) part is 2,
    # the quantile drift at small n pushes the full ratio above it
    alpha = 0.05
    ratio = ((t_quantile(alpha / 2, 9) / math.sqrt(10))
             / (t_quantile(alpha / 2, 39) / math.sqrt(40)))
    assert 2.0 < ratio < 2.3
    s = SampleSet(np.concatenate([np.full(5, 0.2), np.full(5, 0.4)]))
    w10 = np.diff(t_ci(s, alpha))[0]
    assert w10 == pytest.approx(2 * t_quantile(alpha / 2, 9) * s.sd
                                / math.sqrt(10))


def test_diff_lower_bound_algebra():
    x = SampleSet(np.array([0.1, 0.2, 0.15, 0.12, 0.18]))
    zeros = SampleSet(np.zeros(5))
    assert diff_lower_bound(x, zeros, 0.05) == pytest.approx(
        t_ci(x, 0.05)[0])
    same = diff_lower_bound(x, x, 0.05)
    t = t_quantile(0.025, 4)
    assert same == pytest.approx(-t * math.sqrt(2) * x.sd / math.sqrt(5))
    # larger alpha -> larger lower bound
    assert diff_lower_bound(x, zeros, 0.2) > diff_lower_bound(x, zeros, 0.01)


def test_diff_lower_bound_requires_matching_n():
    with pytest.raises(ValueError):
        diff_lower_bound(SampleSet(np.zeros(4)), SampleSet(np.zeros(5)), 0.05)


def test_single_run_bounds_rejected():
    one = SampleSet(np.array([0.1]))
    with pytest.raises(ValueError):
        diff_lower_bound(one, one, 0.05)
    with pytest.raises(ValueError):
        estimate_qlb([one], one, 0.01)


def _offline(noise, runs=10, seed=100):
    pts = [(45, 90), (0, 0), (45, 0), (90, 0), (90, 45)]
    return [noisy_sample(HardyParams(deg(a), deg(b)), noise, n_runs=runs,
                         seed=seed + i)["e5"]
            for i, (a, b) in enumerate(pts)]


def test_estimator_sign_pattern():
    noise = NoiseModel()
    offline = _offline(noise)
    for (t, f), expect in [((51.827, 51.827), "nmes"), ((55, 55), "nmes"),
                           ((30, 60), "inconclusive")]:
        online = noisy_sample(HardyParams(deg(t), deg(f)), noise,
                              n_runs=10, seed=7)["e5"]
        res = estimate_qlb(offline, online, alpha=0.01)
        assert res["decision"] == expect, (t, f, res)


def test_estimator_monotone_flip_as_witness_shrinks():
    noise = NoiseModel()
    offline = _offline(noise)
    decisions = []
    for t, f in [(51.827, 51.827), (45, 45), (30, 60), (10, 80)]:
        online = noisy_sample(HardyParams(deg(t), deg(f)), noise,
                              n_runs=10, seed=13)["e5"]
        decisions.append(estimate_qlb(offline, online, 0.01)["decision"])
    assert decisions[0] == "nmes"
    assert decisions[-1] == "inconclusive"
    flipped = decisions.index("inconclusive")
    assert all(d == "inconclusive" for d in decisions[flipped:])


def test_estimator_zero_noise_recovers_witness_minus_margin():
    clean = NoiseModel(0.0, 0.0, 0.0, 8192)
    offline = _offline(clean)
    p = HardyParams(deg(51.827), deg(51.827))
    online = SampleSet(np.full(10, hardy_q(p)))
    res = estimate_qlb(offline, online, alpha=0.01)
    assert res["sigma4_bar"] == pytest.approx(0.0, abs=1e-6)
    assert res["q_lb_hat"] == pytest.approx(hardy_q(p) - res["delta"],
                                            abs=1e-6)


def test_calibrate_offline_picks_worst_background():
    sets = [SampleSet(np.full(4, 0.01)), SampleSet(np.full(4, 0.08)),
            SampleSet(np.full(4, 0.03))]
    state = calibrate_offline(sets, 0.01)
    assert state.sigma4_bar == pytest.approx(0.08)


def test_chsh_lhs_values():
    p = HardyParams(deg(51.827), deg(51.827))
    probs = hardy_probs(p)
    lhs = chsh_hardy_lhs(probs["e5"], probs["e1"], probs["e2"], probs["e3"])
    assert lhs == pytest.approx(hardy_q(p), abs=1e-9)
    assert chsh_hardy_lhs(0.2, 0.2, 0.2, 0.2) == pytest.approx(-0.4)
    sets = [SampleSet(np.full(3, v)) for v in (0.3, 0.1, 0.05, 0.05)]
    assert chsh_hardy_lhs(*sets) == pytest.approx(0.1)


def test_gate_built_state_gives_identical_probabilities():
    from qdof.circuits import hardy_state
    from qdof.hardy import measurement_operators, _outcome_distribution
    rng = np.random.default_rng(2)
    for _ in range(10):
        p = HardyParams(rng.uniform(0.05, 1.5), rng.uniform(0.05, 1.5))
        pair = hardy_state(p.theta, p.phi)
        (a1, a2), (b1, b2) = measurement_operators(p)
        for op_a in (a1, a2):
            for op_b in (b1, b2):
                da = _outcome_distribution(pair.analytic_vector, op_a, op_b)
                dg = _outcome_distribution(pair.gate_vector, op_a, op_b)
                assert np.abs(da - dg).max() <= 1e-9


def test_probs_at_maximally_entangled_point():
    probs = hardy_probs(HardyParams(deg(45), deg(90)))
    assert probs["e1"] == pytest.approx(0.0, abs=1e-12)
    assert probs["e2"] == pytest.approx(0.0, abs=1e-12)
    assert probs["e3"] == pytest.approx(0.0, abs=1e-12)
    assert probs["e5"] == pytest.approx(0.0, abs=1e-12)
