import math

import numpy as np
import pytest

from qdof.circuits import (PhaseConfig, hardy_state, li_circuit, pol_oam_pair,
                           sorter_cascade, swap_circuit)
from qdof.measurement import coincidence_table
from qdof.states import norm_squared


def test_phase_config_derived_angle():
    ph = PhaseConfig(phi_l=0.1, phi_d=0.5, phi_r=-0.2, phi_u=0.3)
    assert ph.phi == pytest.approx((0.5 - 0.1 + 0.2 + 0.3) / 2)


def test_unit_norm_for_all_kinds_and_phases():
    rng = np.random.default_rng(0)
    for kind in ("boson", "fermion", "distinguishable"):
        for _ in range(10):
            ph = PhaseConfig(*rng.uniform(0, 2 * math.pi, 4))
            assert norm_squared(li_circuit(kind, ph)) == pytest.approx(1.0)


def test_fermion_zero_phase_coincidence_amplitude():
    st = li_circuit("fermion", PhaseConfig())
    t = coincidence_table(st, "external", "external")
    assert t.entry("D", "R") == pytest.approx(0.25)  # cos^2(0)/4


def test_boson_fermion_tables_quarter_turn_apart():
    rng = np.random.default_rng(1)
    for _ in range(10):
        ph = PhaseConfig(*rng.uniform(0, 2 * math.pi, 4))
        tb = coincidence_table(li_circuit("boson", ph), "external", "external")
        tf = coincidence_table(li_circuit("fermion", ph), "external", "external")
        # the two statistics swap the cos^2 and sin^2 cells
        assert tb.entry("D", "R") == pytest.approx(tf.entry("D", "U"), abs=1e-12)
        assert tb.entry("L", "U") == pytest.approx(tf.entry("L", "R"), abs=1e-12)


def test_distinguishable_paths_add_incoherently():
    rng = np.random.default_rng(2)
    for _ in range(5):
        ph = PhaseConfig(*rng.uniform(0, 2 * math.pi, 4))
        t = coincidence_table(li_circuit("distinguishable", ph),
                              "external", "external")
        assert t.probs == pytest.approx(np.full((2, 2), 0.125), abs=1e-12)


def test_coincidence_mass_is_half():
    rng = np.random.default_rng(3)
    for kind in ("boson", "fermion", "distinguishable"):
        ph = PhaseConfig(*rng.uniform(0, 2 * math.pi, 4))
        t = coincidence_table(li_circuit(kind, ph), "external", "external")
        assert t.total == pytest.approx(0.5, abs=1e-12)


def test_global_phase_shift_leaves_probabilities():
    rng = np.random.default_rng(4)
    base = PhaseConfig(*rng.uniform(0, 2 * math.pi, 4))
    shift = 1.2345
    shifted = PhaseConfig(base.phi_l + shift, base.phi_d + shift,
                          base.phi_r + shift, base.phi_u + shift)
    for kind in ("boson", "fermion"):
        for obs in (("external", "external"), ("internal", "internal")):
            a = coincidence_table(li_circuit(kind, base), *obs)
            b = coincidence_table(li_circuit(kind, shifted), *obs)
            assert np.allclose(a.probs, b.probs, atol=1e-12)


def test_swap_circuit_table_values():
    t0 = coincidence_table(swap_circuit(PhaseConfig()), "internal", "external")
    assert t0.entry("H", "R") == pytest.approx(0.25)
    # phi = pi/2
    ph = PhaseConfig(phi_d=math.pi / 2, phi_u=math.pi / 2)
    t1 = coincidence_table(swap_circuit(ph), "internal", "external")
    assert t1.entry("H", "R") == pytest.approx(0.0, abs=1e-12)


def test_sorter_cascade_z_input_hits_edge():
    dist = sorter_cascade(2, (1.0, 0.0))
    assert dist[0] == pytest.approx(1.0)
    dist = sorter_cascade(2, (0.0, 1.0))
    assert dist[-1] == pytest.approx(1.0)


def test_sorter_cascade_plus_input_uniform():
    dist = sorter_cascade(2, (1.0, 1.0))
    assert dist == pytest.approx(np.full(4, 0.25))


def test_sorter_cascade_three_dofs_middle_mass():
    dist = sorter_cascade(3, (1.0, 1.0))
    assert dist[1:-1].sum() == pytest.approx(0.75)


def test_sorter_cascade_last_sorter_is_most_significant_bit():
    assert sorter_cascade(2, [(1, 0), (0, 1)]) == pytest.approx([0, 0, 1, 0])
    for j in range(3):
        amps = [(0, 1) if k == j else (1, 0) for k in range(3)]
        dist = sorter_cascade(3, amps)
        assert dist[2 ** j] == pytest.approx(1.0)


def test_sorter_cascade_normalized_any_input():
    rng = np.random.default_rng(5)
    for n in (1, 2, 4, 7):
        amps = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
        dist = sorter_cascade(n, amps)
        assert dist.sum() == pytest.approx(1.0)
        assert (dist >= 0).all()


def test_sorter_cascade_rejects_bad_sizes():
    with pytest.raises(ValueError):
        sorter_cascade(0, (1, 0))
    with pytest.raises(ValueError):
        sorter_cascade(21, (1, 0))


def test_hardy_state_gate_decomposition_matches():
    rng = np.random.default_rng(6)
    for _ in range(20):
        theta, phi = rng.uniform(0, math.pi / 2, 2)
        pair = hardy_state(theta, phi)
        overlap = abs(np.vdot(pair.analytic_vector, pair.gate_vector))
        assert overlap == pytest.approx(1.0, abs=1e-12)


def test_hardy_state_special_points():
    mes = hardy_state(math.radians(45), math.radians(90)).analytic_vector
    assert mes == pytest.approx(np.array([1, 1, 1, -1]) / 2)
    ps = hardy_state(0.0, 0.7).analytic_vector
    # product state (|0> + |1>)/sqrt2 x |0>
    assert ps == pytest.approx(np.array([1, 0, 1, 0]) / math.sqrt(2))


def test_pol_oam_pair_is_normalized():
    assert norm_squared(pol_oam_pair(0.4, 1.0)) == pytest.approx(1.0)


def test_circuit_from_spec_document():
    import json
    from qdof.circuits import circuit_from_spec
    doc = json.dumps({"kind": "fermion", "phases_deg": [10, 20, 30, 40]})
    st = circuit_from_spec(doc)
    direct = li_circuit("fermion", PhaseConfig(*np.deg2rad([10, 20, 30, 40])))
    assert st.terms.keys() == direct.terms.keys()
    doc = {"kind": "swap", "phases_deg": [0, 0, 0, 0]}
    assert norm_squared(circuit_from_spec(doc)) == pytest.approx(1.0)
