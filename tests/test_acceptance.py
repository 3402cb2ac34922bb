"""Acceptance suite: one test per numbered criterion, each printing a verdict
line (run with -s to see them inline) and enforcing its stated tolerance and
time budget."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

import reference_trace as ref
from qdof.circuits import (PhaseConfig, gate_hardy_state, hardy_state,
                           li_circuit, pol_oam_pair)
from qdof.fidelity import (ChannelLayout, generalized_singlet_fraction,
                           relation_check, sf_upper_bound_check,
                           singlet_fraction, _pair_matrices)
from qdof.hardy import (HardyParams, NoiseModel, OFFLINE_STATES_DEG, Q_MAX,
                        hardy_q, noisy_sample, estimate_qlb, qmax_solve)
from qdof.measures import (concurrence, log_negativity, mixed_monogamy_check,
                           monogamy_report_qubits, random_case,
                           three_particle_cases)
from qdof.measurement import ChshSettings, chsh, coincidence_table, generalized_table
from qdof.protocols import (AttackConfig, SignalingConfig, hardy_attack,
                            signaling_exact, signaling_mc, signaling_multicopy)
from qdof.states import BOSON, FERMION, DofSpec, Ket, SymState, normalize, to_density
from qdof.trace import (Subsystem, project_one_per_region, to_qubit_array,
                        trace_dof_indist, trace_region)

from oracles import z_form_tangle

deg = math.radians


def _verdict(number, ok, detail, elapsed, budget):
    flag = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d}: {flag} ({elapsed:.2f}s / {budget:.0f}s) "
          f"- {detail}")
    assert ok, detail
    assert elapsed < budget, f"criterion {number} exceeded {budget}s"


def test_criterion_01_fermion_tables():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        ph = PhaseConfig(*rng.uniform(0, 2 * math.pi, 4))
        st = li_circuit("fermion", ph)
        c2 = 0.25 * math.cos(ph.phi) ** 2
        s2 = 0.25 * math.sin(ph.phi) ** 2
        layouts = {("external", "external"): [[c2, s2], [s2, c2]],
                   ("internal", "internal"): [[s2, c2], [c2, s2]],
                   ("internal", "external"): [[s2, c2], [c2, s2]],
                   ("external", "internal"): [[c2, s2], [s2, c2]]}
        for obs, expect in layouts.items():
            got = coincidence_table(st, *obs).probs
            worst = max(worst, np.abs(got - np.array(expect)).max())
    _verdict(1, worst <= 1e-9, f"max table deviation {worst:.2e}",
             time.perf_counter() - t0, 1.0)


def test_criterion_02_chsh():
    t0 = time.perf_counter()
    bound = 2 * math.sqrt(2)
    dev_b = abs(chsh("boson") - bound)
    dev_f = abs(chsh("fermion") - bound)
    dev_d = abs(chsh("distinguishable"))
    rng = np.random.default_rng(102)
    worst_d = 0.0
    for _ in range(100):
        s = ChshSettings(*rng.uniform(-math.pi, math.pi, 4))
        worst_d = max(worst_d, chsh("distinguishable", s))
    ok = (dev_b <= 1e-9 and dev_f <= 1e-9 and dev_d <= 1e-9
          and worst_d <= 2.0 + 1e-9)
    _verdict(2, ok, f"dev boson {dev_b:.1e}, fermion {dev_f:.1e}, "
             f"dist {dev_d:.1e}, dist max over settings {worst_d:.2f}",
             time.perf_counter() - t0, 1.0)


def test_criterion_03_generalized_unification():
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    worst = 0.0
    for kind in ("boson", "fermion"):
        for _ in range(100):
            ph = PhaseConfig(*rng.uniform(0, 2 * math.pi, 4))
            st = li_circuit(kind, ph)
            gen = generalized_table(kind, ph.phi_d - ph.phi_l,
                                    ph.phi_r - ph.phi_u)
            for obs, g in gen.items():
                direct = coincidence_table(st, *obs)
                worst = max(worst, np.abs(direct.probs - g.probs).max())
    _verdict(3, worst <= 1e-9, f"max entrywise deviation {worst:.2e}",
             time.perf_counter() - t0, 1.0)


def test_criterion_04_monogamy_violation():
    t0 = time.perf_counter()
    ph = PhaseConfig(0.4, 1.3, -0.8, 0.6)
    worst = 0.0
    for kind in ("boson", "fermion"):
        dm = project_one_per_region(to_density(li_circuit(kind, ph)),
                                    ["s1", "s2"])
        ss = trace_dof_indist(trace_dof_indist(dm, Subsystem("s1", 1)),
                              Subsystem("s2", 1))
        sp = trace_dof_indist(trace_dof_indist(dm, Subsystem("s1", 1)),
                              Subsystem("s2", 2))
        for red in (ss, sp):
            rho = to_qubit_array(red)
            worst = max(worst, abs(concurrence(rho) - 1.0),
                        abs(log_negativity(rho) - 1.0))
    _verdict(4, worst <= 1e-9, f"max deviation from 1: {worst:.2e}",
             time.perf_counter() - t0, 1.0)


def test_criterion_05_three_particle_equality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(105)
    worst_eq = 0.0
    worst_z = 0.0
    for cid in range(1, 14):
        for _ in range(50):
            case = random_case(cid, rng)
            rep, _ = three_particle_cases([case])[0]
            worst_eq = max(worst_eq, abs(rep.residual))
            if cid == 2:
                # the closed-form tangle of the one-odd-spin family
                worst_z = max(worst_z, abs(rep.c2_a_bc
                                           - z_form_tangle(case.weights[2])))
    ok = worst_eq <= 1e-9 and worst_z <= 1e-9
    _verdict(5, ok, f"max |residual| {worst_eq:.2e}, "
             f"max z-form gap {worst_z:.2e}", time.perf_counter() - t0, 10.0)


def test_criterion_06_distinguishable_ckw():
    t0 = time.perf_counter()
    rng = np.random.default_rng(106)
    min_res = math.inf
    for _ in range(200):
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        min_res = min(min_res, monogamy_report_qubits(v).residual)
    convex_ok = True
    for _ in range(50):
        v1 = rng.normal(size=8) + 1j * rng.normal(size=8)
        v2 = rng.normal(size=8) + 1j * rng.normal(size=8)
        w = rng.uniform(0.05, 0.95)
        _, _, holds = mixed_monogamy_check([(w, v1), (1 - w, v2)])
        convex_ok = convex_ok and holds
    ok = min_res >= -1e-9 and convex_ok
    _verdict(6, ok, f"min residual {min_res:.2e}, convexity {convex_ok}",
             time.perf_counter() - t0, 10.0)


def test_criterion_07_fidelity_relation():
    t0 = time.perf_counter()
    worst = 0.0
    worst_classic = 0.0
    for kind in ("distinguishable", "indistinguishable"):
        for n in (1, 2, 3):
            recs = relation_check(ChannelLayout(kind, n))
            worst = max(worst, max(abs(r["residual"]) for r in recs))
            if n == 1 and kind == "distinguishable":
                # the classic single-channel form presumes a unit ceiling
                worst_classic = max(worst_classic,
                                    max(abs(r["f_g"] - (2 * r["F_g"] + 1) / 3)
                                        for r in recs))
    ok = worst <= 1e-6 and worst_classic <= 1e-9
    _verdict(7, ok, f"max residual {worst:.2e}, "
             f"single-DoF reduction gap {worst_classic:.2e}",
             time.perf_counter() - t0, 30.0)


def test_criterion_08_singlet_fraction_facts():
    t0 = time.perf_counter()
    layout2 = ChannelLayout("distinguishable", 2)
    dm = to_density(pol_oam_pair(0.67, 0.95))
    pair_dev = max(abs(singlet_fraction(matrix) - 0.5)
                   for matrix in _pair_matrices(dm, layout2).reshape(-1, 4, 4))
    fg_dev = abs(generalized_singlet_fraction(dm, layout2) - 1.0)
    hh = project_one_per_region(
        to_density(li_circuit("boson", PhaseConfig(0.3, 1.1, -0.2, 0.8))),
        ["s1", "s2"])
    hh_dev = abs(generalized_singlet_fraction(
        hh, ChannelLayout("indistinguishable", 2)) - 2.0)
    b2 = sf_upper_bound_check(ChannelLayout("distinguishable", 2),
                              samples=200, seed=108)
    b3 = sf_upper_bound_check(ChannelLayout("distinguishable", 3),
                              samples=60, seed=108)
    ok = (pair_dev <= 1e-4 and fg_dev <= 1e-4 and hh_dev <= 1e-4
          and b2["within"] and b3["within"])
    _verdict(8, ok, f"pair dev {pair_dev:.1e}, photon-pair F_g dev {fg_dev:.1e}, "
             f"two-mode F_g dev {hh_dev:.1e}, bounds held "
             f"(n=2 max {b2['max_observed']:.3f}, n=3 max {b3['max_observed']:.3f})",
             time.perf_counter() - t0, 60.0)


def test_criterion_09_signaling():
    t0 = time.perf_counter()
    exact_ok = all(signaling_exact(n) == 1 - Fraction(1, 2 ** n)
                   for n in range(2, 11))
    mc_ok = True
    for mode in ("dofs", "copies"):
        for n in (2, 3, 4):
            for seed in range(5):
                r = signaling_mc(SignalingConfig(n, 100_000, seed), mode=mode)
                mc_ok &= abs(r["estimate"] - r["exact"]) <= 4 * r["stderr"]
    multi_ok = all(signaling_multicopy(m) == 1 - Fraction(1, 2 ** m)
                   for m in range(1, 11))
    ok = exact_ok and mc_ok and multi_ok
    _verdict(9, ok, f"exact {exact_ok}, monte-carlo {mc_ok}, "
             f"multicopy {multi_ok}", time.perf_counter() - t0, 10.0)


def test_criterion_10_hardy_core():
    t0 = time.perf_counter()
    t, f, q = qmax_solve()
    qmax_ok = (abs(q - Q_MAX) <= 1e-9
               and abs(math.degrees(t) - 51.827) <= 1e-3
               and abs(math.degrees(f) - 51.827) <= 1e-3)
    rows = [(45, 90), (0, 10), (0, 55), (30, 0), (60, 0), (90, 0), (90, 30),
            (90, 45), (0, 0)]
    zero_ok = all(hardy_q(HardyParams(deg(a), deg(b))) <= 1e-12
                  for a, b in rows)
    mid_ok = abs(hardy_q(HardyParams(deg(45), deg(45))) - 0.0833) <= 5e-4
    rng = np.random.default_rng(110)
    gate_ok = True
    for _ in range(10):
        th, ph = rng.uniform(0.1, 1.4, 2)
        gate_ok &= abs(abs(np.vdot(hardy_state(th, ph),
                                   gate_hardy_state(th, ph))) - 1.0) <= 1e-9
    ok = qmax_ok and zero_ok and mid_ok and gate_ok
    _verdict(10, ok, f"qmax {qmax_ok}, zero rows {zero_ok}, midpoint {mid_ok}, "
             f"gate twin {gate_ok}", time.perf_counter() - t0, 5.0)


def test_criterion_11_hardy_estimator():
    t0 = time.perf_counter()
    noise = NoiseModel()
    offline = [noisy_sample(HardyParams(deg(a), deg(b)), noise, n_runs=10,
                            seed=200 + i)["e5"]
               for i, (a, b) in enumerate(OFFLINE_STATES_DEG)]
    results = {}
    for a, b in [(51.827, 51.827), (55, 55), (30, 60)]:
        online = noisy_sample(HardyParams(deg(a), deg(b)), noise, n_runs=10,
                              seed=300)["e5"]
        results[(a, b)] = estimate_qlb(offline, online, alpha=0.01)
    ok = (results[(51.827, 51.827)]["q_lb_hat"] > 0
          and results[(55, 55)]["q_lb_hat"] > 0
          and results[(30, 60)]["q_lb_hat"] <= 0)
    detail = ", ".join(f"({a},{b}): {r['q_lb_hat']:+.4f}"
                       for (a, b), r in results.items())
    _verdict(11, ok, detail, time.perf_counter() - t0, 30.0)


def test_criterion_12_hardy_attack_endpoints_and_values():
    t0 = time.perf_counter()
    theta = phi = deg(51.827)
    p = HardyParams(theta, phi)
    q = hardy_q(p)
    res1 = hardy_attack(AttackConfig(theta, phi, 1.0))
    res0 = hardy_attack(AttackConfig(theta, phi, 0.0))
    endpoints_ok = res1["q_alpha"] == q and res0["q_alpha"] == res0["q_prime"]
    grid = np.linspace(0.0, 1.0, 11)
    vals = [hardy_attack(AttackConfig(theta, phi, a))["q_alpha"] for a in grid]
    formula_ok = all(abs(v - (a ** 2 * q + (1 - a) ** 2 * res0["q_prime"]))
                     <= 1e-15 for a, v in zip(grid, vals))
    net_drop_ok = vals[0] > vals[-1]
    ok = endpoints_ok and formula_ok and net_drop_ok
    _verdict(12, ok, f"endpoints {endpoints_ok}, mixture values {formula_ok}, "
             f"net drop {net_drop_ok}", time.perf_counter() - t0, 1.0)


@pytest.mark.xfail(strict=True, reason=(
    "q_alpha = a^2 q + (1-a)^2 q' is a parabola with an interior minimum at "
    "a = q'/(q + q'); at theta = phi = 51.827 deg that is ~0.71, so the last "
    "grid steps increase and strict monotonic decrease over the full 11-point "
    "grid cannot hold for the published mixture form"))
def test_criterion_12_strict_monotonicity_as_stated():
    theta = phi = deg(51.827)
    grid = np.linspace(0.0, 1.0, 11)
    vals = [hardy_attack(AttackConfig(theta, phi, a))["q_alpha"] for a in grid]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_criterion_13_trace_rule_properties():
    t0 = time.perf_counter()
    rng = np.random.default_rng(113)
    # order independence on random two-particle, two-DoF states
    specs = (DofSpec(1, ("x0", "x1")), DofSpec(2, ("y0", "y1")))
    kets = [Ket(r, ((1, a), (2, b))) for r in ("s1", "s2")
            for a in ("x0", "x1") for b in ("y0", "y1")]
    worst_order = 0.0
    count = 0
    while count < 50:
        eta = BOSON if rng.integers(2) else FERMION
        terms = {}
        for _ in range(8):
            i, j = rng.integers(0, len(kets), size=2)
            terms[(kets[i], kets[j])] = rng.normal() + 1j * rng.normal()
        try:
            st = normalize(SymState(eta, terms, specs))
            dm = project_one_per_region(to_density(st), ["s1", "s2"])
        except Exception:
            continue
        count += 1
        a = trace_dof_indist(trace_dof_indist(dm, Subsystem("s1", 1)),
                             Subsystem("s2", 2))
        b = trace_dof_indist(trace_dof_indist(dm, Subsystem("s2", 2)),
                             Subsystem("s1", 1))
        assert a.basis == b.basis
        worst_order = max(worst_order, np.abs(a.data - b.data).max())
    # single-DoF trace against the localized particle trace
    spin = DofSpec(1, ("dn", "up"))
    single = [Ket(r, ((1, v),)) for r in ("a", "b") for v in ("dn", "up")]
    worst_lf = 0.0
    for _ in range(20):
        terms = {}
        for _ in range(5):
            i, j = rng.integers(0, 4, size=2)
            terms[(single[i], single[j])] = rng.normal() + 1j * rng.normal()
        try:
            st = normalize(SymState(BOSON, terms, (spin,)))
        except Exception:
            continue
        via_dof = trace_dof_indist(to_density(st), Subsystem("a", 1))
        via_lf = ref.particle_trace_lofranco(st, region="a")
        worst_lf = max(worst_lf, np.abs(via_dof.data - via_lf.data).max())
    # the witness where repeated DoF traces differ from the region trace
    dm = project_one_per_region(
        to_density(li_circuit("boson", PhaseConfig(0.3, 1.4, -0.6, 0.9))),
        ["s1", "s2"])
    repeated = ref.strip_empty_slots(
        trace_dof_indist(trace_dof_indist(dm, Subsystem("s1", 1)),
                         Subsystem("s1", 2)))
    region = trace_region(dm, "s1")
    witness = np.abs(repeated.data - region.data).max()
    ok = worst_order <= 1e-9 and worst_lf <= 1e-9 and witness > 1e-3
    _verdict(13, ok, f"order dev {worst_order:.2e}, single-DoF gap "
             f"{worst_lf:.2e}, witness separation {witness:.3f}",
             time.perf_counter() - t0, 10.0)
