import math

import numpy as np
import pytest

from qdof import hardy
from qdof.hardy import (BoundaryError, HardyParams, NoiseModel,
                        OFFLINE_STATES_DEG, Q_MAX, SampleSet, estimate_qlb,
                        hardy_probs, hardy_q, noisy_probabilities,
                        noisy_sample, qmax_solve, t_margin, t_quantile)

from oracles import hardy_q_grid, numpy_exp_hardy_q

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


def test_qmax_solve_starts_at_the_argmax_of_the_full_grid(monkeypatch):
    step = hardy._QMAX_STEP_DEG
    grid = np.deg2rad(np.arange(step, 90.0, step))
    qs = hardy_q_grid(grid, grid)
    i, j = np.unravel_index(np.argmax(qs), qs.shape)
    starts = []

    def recording_hardy_q(p):
        starts.append((p.theta, p.phi))
        return hardy._q(p.theta, p.phi)

    monkeypatch.setattr(hardy, "hardy_q", recording_hardy_q)
    qmax_solve()
    assert starts == [(float(grid[i]), float(grid[j]))]


def test_qmax_solve_returns_the_recorded_bits():
    # where the refine ends is printed by `qdof hardy qmax`; a start one grid
    # step off ends at 51.8272918937 or 51.8272924743 degrees instead
    assert [x.hex() for x in qmax_solve()] == [
        "0x1.cf2214c8f3d91p-1", "0x1.cf2214b1ef957p-1", "0x1.715609f7c746fp-4"]


def test_hardy_q_at_the_closed_form_maximizer_is_q_max():
    angle = hardy.Q_MAX_ANGLE
    assert abs(hardy_q(HardyParams(angle, angle)) - Q_MAX) <= 1e-15


def test_hardy_q_gives_the_bits_of_the_numpy_exp_form():
    # the scalar form calls cmath.exp where the first form called np.exp;
    # a libm on which the two differ fails here, not only as a moved digest
    rng = np.random.default_rng(26)
    points = rng.uniform(0.0, math.pi / 2, size=(10 ** 4, 2))
    points = points[(points > 0).all(axis=1)]
    mismatched = [(t, f) for t, f in points
                  if hardy_q(HardyParams(t, f)).hex()
                  != numpy_exp_hardy_q(HardyParams(t, f)).hex()]
    assert mismatched == []


def test_pair_gate_is_np_kron_bit_for_bit():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, b = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                for _ in range(2))
        assert hardy._pair_gate(a, b).tobytes() == np.kron(a, b).tobytes()


def test_shared_operators_and_sample_values_are_read_only():
    (a1, _), (b1, _) = hardy.measurement_operators(HardyParams(0.3, 0.4))
    values = np.array([0.1, 0.2, 0.4])
    s = SampleSet(values)
    values[0] = 0.9  # the set holds a copy
    for array in (a1, b1, s.values):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0
    assert s.values[0] == 0.1 and s.mean == pytest.approx(0.7 / 3)
    with pytest.raises(AttributeError):
        s.values = np.zeros(3)


@pytest.mark.parametrize("theta, phi", [(90, 90), (270, 90), (-90, 90),
                                        (90, 270), (450, -90)])
def test_boundary_point_rejected(theta, phi):
    with pytest.raises(BoundaryError):
        HardyParams(deg(theta), deg(phi))


@pytest.mark.parametrize("theta, phi", [(math.nan, 0.5), (0.5, math.inf)])
def test_non_finite_angles_rejected(theta, phi):
    with pytest.raises(ValueError, match="finite"):
        HardyParams(theta, phi)


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


def test_t_margin_zero_spread_and_width_scaling():
    assert t_margin(0.01, 10, 0.0) == 0.0
    # width scales as t_quantile(nu)/sqrt(n); the pure 1/sqrt(n) part is 2,
    # the quantile drift at small n pushes the full ratio above it
    alpha = 0.05
    ratio = t_margin(alpha, 10, 1.0) / t_margin(alpha, 40, 1.0)
    assert 2.0 < ratio < 2.3
    s = SampleSet(np.concatenate([np.full(5, 0.2), np.full(5, 0.4)]))
    assert t_margin(alpha, s.n, s.sd) == pytest.approx(
        t_quantile(alpha / 2, 9) * s.sd / math.sqrt(10))


def test_estimate_qlb_algebra():
    x = SampleSet(np.array([0.1, 0.2, 0.15, 0.12, 0.18]))
    zeros = SampleSet(np.zeros(5))
    assert estimate_qlb([zeros], x, 0.05)["q_lb_hat"] == pytest.approx(
        x.mean - t_margin(0.05, 5, x.sd))
    # equal sets: the means cancel and the two spreads add in quadrature
    same = estimate_qlb([x], x, 0.05)["q_lb_hat"]
    t = t_quantile(0.025, 4)
    assert same == pytest.approx(-t * math.sqrt(2) * x.sd / math.sqrt(5))
    # larger alpha -> larger lower bound
    assert (estimate_qlb([zeros], x, 0.2)["q_lb_hat"]
            > estimate_qlb([zeros], x, 0.01)["q_lb_hat"])


def test_single_run_bounds_rejected():
    one = SampleSet(np.array([0.1]))
    # one run has no spread to estimate: 0.0, where ddof=1 would give nan
    assert one.sd == 0.0
    with pytest.raises(ValueError, match="at least two runs"):
        estimate_qlb([one], one, 0.01)
    with pytest.raises(ValueError, match="at least one calibration"):
        estimate_qlb([], SampleSet(np.zeros(3)), 0.01)


def _offline(noise, runs=10, seed=100):
    return [noisy_sample(HardyParams(deg(a), deg(b)), noise, n_runs=runs,
                         seed=seed + i)["e5"]
            for i, (a, b) in enumerate(OFFLINE_STATES_DEG)]


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


def test_estimate_qlb_picks_worst_background():
    sets = [SampleSet(np.full(4, 0.01)), SampleSet([0.07, 0.09, 0.08, 0.08]),
            SampleSet(np.full(4, 0.03))]
    res = estimate_qlb(sets, SampleSet(np.full(4, 0.2)), 0.01)
    assert res["sigma4_bar"] == pytest.approx(0.08)
    assert res["s_sigma4"] == sets[1].sd


def test_gate_built_state_gives_identical_probabilities():
    from qdof.circuits import gate_hardy_state, hardy_state
    from qdof.hardy import measurement_operators, _outcome_distribution
    rng = np.random.default_rng(2)
    for _ in range(10):
        p = HardyParams(rng.uniform(0.05, 1.5), rng.uniform(0.05, 1.5))
        analytic = hardy_state(p.theta, p.phi)
        gate = gate_hardy_state(p.theta, p.phi)
        (a1, a2), (b1, b2) = measurement_operators(p)
        for op_a in (a1, a2):
            for op_b in (b1, b2):
                da = _outcome_distribution(analytic, op_a, op_b)
                dg = _outcome_distribution(gate, op_a, op_b)
                assert np.abs(da - dg).max() <= 1e-9


def test_probs_at_maximally_entangled_point():
    probs = hardy_probs(HardyParams(deg(45), deg(90)))
    assert probs["e1"] == pytest.approx(0.0, abs=1e-12)
    assert probs["e2"] == pytest.approx(0.0, abs=1e-12)
    assert probs["e3"] == pytest.approx(0.0, abs=1e-12)
    assert probs["e5"] == pytest.approx(0.0, abs=1e-12)
