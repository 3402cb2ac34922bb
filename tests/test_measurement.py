import math

import numpy as np
import pytest

from qdof.circuits import PhaseConfig, li_circuit, swap_circuit
from qdof.measurement import (ChshSettings, chsh, coincidence_table,
                              expectation, generalized_table, setting_phases)

TSIRELSON = 2 * math.sqrt(2)


def test_fermion_tables_follow_closed_forms():
    rng = np.random.default_rng(0)
    for _ in range(100):
        ph = PhaseConfig(*rng.uniform(0, 2 * math.pi, 4))
        st = li_circuit("fermion", ph)
        c2 = 0.25 * math.cos(ph.phi) ** 2
        s2 = 0.25 * math.sin(ph.phi) ** 2
        t = coincidence_table(st, "external", "external")
        assert np.allclose(t.probs, [[c2, s2], [s2, c2]], atol=1e-9)
        t = coincidence_table(st, "internal", "internal")
        assert np.allclose(t.probs, [[s2, c2], [c2, s2]], atol=1e-9)
        t = coincidence_table(st, "internal", "external")
        assert np.allclose(t.probs, [[s2, c2], [c2, s2]], atol=1e-9)
        t = coincidence_table(st, "external", "internal")
        assert np.allclose(t.probs, [[c2, s2], [s2, c2]], atol=1e-9)


def test_table_entries_bounded_by_quarter():
    rng = np.random.default_rng(1)
    for kind in ("boson", "fermion", "distinguishable"):
        ph = PhaseConfig(*rng.uniform(0, 2 * math.pi, 4))
        t = coincidence_table(li_circuit(kind, ph), "external", "external")
        assert (t.probs >= -1e-15).all()
        assert (t.probs <= 0.25 + 1e-12).all()


def test_expectation_matches_cosine():
    rng = np.random.default_rng(2)
    for _ in range(20):
        ph = PhaseConfig(*rng.uniform(0, 2 * math.pi, 4))
        st = li_circuit("fermion", ph)
        phi_a = ph.phi_d - ph.phi_l
        phi_b = ph.phi_r - ph.phi_u
        for obs in (("external", "external"), ("internal", "internal"),
                    ("internal", "external"), ("external", "internal")):
            e = expectation(coincidence_table(st, *obs))
            assert e == pytest.approx(math.cos(phi_a - phi_b), abs=1e-9)


def test_expectation_special_values():
    # equal party phases -> 1; quarter-turn apart -> 0
    st = li_circuit("fermion", PhaseConfig(phi_d=0.8, phi_r=0.8))
    assert expectation(coincidence_table(st, "external", "external")) == \
        pytest.approx(1.0)
    st = li_circuit("fermion", PhaseConfig(phi_d=math.pi / 2))
    assert expectation(coincidence_table(st, "external", "external")) == \
        pytest.approx(0.0, abs=1e-12)


def test_expectation_distinguishable_vanishes():
    rng = np.random.default_rng(3)
    for _ in range(5):
        ph = PhaseConfig(*rng.uniform(0, 2 * math.pi, 4))
        t = coincidence_table(li_circuit("distinguishable", ph),
                              "external", "external")
        assert expectation(t) == pytest.approx(0.0, abs=1e-12)


def test_expectation_zero_total_rejected():
    st = li_circuit("fermion", PhaseConfig())
    t = coincidence_table(st, "external", "external")
    t.probs = np.zeros_like(t.probs)
    with pytest.raises(ValueError):
        expectation(t)


def test_chsh_canonical_settings():
    assert chsh("fermion") == pytest.approx(TSIRELSON, abs=1e-9)
    assert chsh("boson") == pytest.approx(TSIRELSON, abs=1e-9)
    assert chsh("distinguishable") == pytest.approx(0.0, abs=1e-9)


def test_chsh_equal_settings_reach_classical_value():
    s = ChshSettings(0.0, 0.0, 0.0, 0.0)
    assert chsh("fermion", s) == pytest.approx(2.0)


def test_chsh_never_beats_quantum_bound():
    rng = np.random.default_rng(4)
    for kind in ("boson", "fermion", "distinguishable"):
        for _ in range(40):
            s = ChshSettings(*rng.uniform(-2 * math.pi, 2 * math.pi, 4))
            assert chsh(kind, s) <= TSIRELSON + 1e-9
    for _ in range(40):
        s = ChshSettings(*rng.uniform(-2 * math.pi, 2 * math.pi, 4))
        assert chsh("distinguishable", s) <= 2.0 + 1e-9


def test_chsh_on_swap_circuit():
    value = chsh(None, obs=("internal", "external"),
                 circuit=lambda _kind, setting: swap_circuit(setting))
    assert value == pytest.approx(TSIRELSON, abs=1e-9)


def test_chsh_calls_any_circuit_with_kind_and_phases():
    """A builder other than the default is called as the default is."""
    for kind in ("boson", "fermion", "distinguishable"):
        value = chsh(kind, circuit=lambda kind, ph: li_circuit(kind, ph))
        assert value == chsh(kind)


def test_setting_phases_expectation_identity():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a, b = rng.uniform(-math.pi, math.pi, 2)
        st = li_circuit("fermion", setting_phases(a, b))
        e = expectation(coincidence_table(st, "external", "external"))
        assert e == pytest.approx(math.cos(a / 2 - b), abs=1e-9)


def test_generalized_tables_match_direct_ones():
    rng = np.random.default_rng(6)
    for kind in ("boson", "fermion"):
        for _ in range(100):
            ph = PhaseConfig(*rng.uniform(0, 2 * math.pi, 4))
            gen = generalized_table(kind, ph.phi_d - ph.phi_l,
                                    ph.phi_r - ph.phi_u)
            st = li_circuit(kind, ph)
            for obs, g in gen.items():
                direct = coincidence_table(st, *obs)
                assert direct.rows == g.rows and direct.cols == g.cols
                assert np.allclose(direct.probs, g.probs, atol=1e-9)


def test_generalized_table_equal_party_angles_diag_quarter():
    gen = generalized_table("fermion", 0.0, 0.0)
    t = gen[("external", "external")]
    assert t.entry("D", "R") == pytest.approx(0.25)
    assert t.entry("L", "U") == pytest.approx(0.25)


def test_generalized_table_kind_offset_is_quarter_turn():
    gen_f = generalized_table("fermion", 0.7, 0.2)
    gen_b = generalized_table("boson", 0.7 + math.pi, 0.2)
    for obs in gen_f:
        assert np.allclose(gen_f[obs].probs, gen_b[obs].probs, atol=1e-12)


def test_generalized_table_rejects_distinguishable():
    with pytest.raises(ValueError):
        generalized_table("distinguishable", 0.0, 0.0)


def test_table_csv_and_json_exports():
    st = li_circuit("fermion", PhaseConfig(0.1, 0.4, -0.2, 0.3))
    t = coincidence_table(st, "external", "external")
    csv_text = t.to_csv(settings="a0=0")
    assert csv_text.startswith("# observables=external/external settings=a0=0")
    assert len(csv_text.strip().split("\n")) == 4
    import json
    rec = json.loads(t.to_json())
    assert rec["rows"] == ["D", "L"]
