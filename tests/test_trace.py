import math
import re

import numpy as np
import pytest

import reference_trace as ref
from qdof.circuits import PhaseConfig, li_circuit, pol_oam_pair
from qdof.measures import concurrence, vn_entropy
from qdof.states import (BOSON, DISTINGUISHABLE, FERMION, DensityMatrix,
                         DofSpec, Ket, SymState, normalize, to_density)
from qdof.trace import (EmptySubspaceError, Subsystem, _dense_plan,
                        _product_basis, project_one_per_region, to_qubit_array,
                        trace_dof_dist, trace_dof_indist, trace_region)

SPIN = DofSpec(1, ("dn", "up"))


def purity(dm):
    """tr(rho^2) of a DensityMatrix."""
    return float(np.trace(dm.data @ dm.data).real)


def k1(region, value):
    return Ket(region, ((1, value),))


def hhes(kind="boson", phases=PhaseConfig(0.3, 1.4, -0.6, 0.9)):
    return project_one_per_region(to_density(li_circuit(kind, phases)),
                                  ["s1", "s2"])


def test_projection_keeps_expected_coefficients():
    ph = PhaseConfig(0.2, -0.5, 1.1, 0.4)
    dm = hhes("boson", ph)
    k1c = np.exp(1j * (ph.phi_r + ph.phi_l))
    k2c = np.exp(1j * (ph.phi_d + ph.phi_u))
    mag_plus = abs(k1c + k2c) / (2 * math.sqrt(2))
    mag_minus = abs(k1c - k2c) / (2 * math.sqrt(2))
    diag = sorted(np.diag(dm.data).real)
    expect = sorted([mag_plus ** 2, mag_plus ** 2, mag_minus ** 2,
                     mag_minus ** 2])
    assert diag == pytest.approx(expect, abs=1e-12)
    assert dm.trace == pytest.approx(1.0)


def test_projection_idempotent():
    dm = hhes()
    again = project_one_per_region(dm, ["s1", "s2"])
    assert np.allclose(again.data, dm.data, atol=1e-12)


def test_projection_empty_sector_raises():
    # both bosons bunched in one region
    ket = Ket("s1", ((1, "dn"),))
    s = normalize(SymState(BOSON, {(ket, ket): 1.0}, (SPIN,)))
    with pytest.raises(EmptySubspaceError):
        project_one_per_region(to_density(s), ["s1", "s2"])


def test_trace_region_of_product_state_is_pure():
    a, b = k1("a", "dn"), k1("b", "up")
    s = normalize(SymState(BOSON, {(a, b): 1.0}, (SPIN,)))
    red = trace_region(to_density(s), "a")
    assert purity(red) == pytest.approx(1.0)
    assert red.basis == ((b,),)


def test_trace_region_spectrum_of_one_odd_spin_state():
    # amplitudes (0, 1/sqrt2, 1/sqrt2) over the position of the odd spin:
    # removing the third region leaves a maximally entangled pair whose
    # one-region spectrum is {1/2, 1/2}
    z = [0.0, 1 / math.sqrt(2), 1 / math.sqrt(2)]
    kets = [(k1("r1", "up"), k1("r2", "up"), k1("r3", "dn")),
            (k1("r1", "up"), k1("r2", "dn"), k1("r3", "up")),
            (k1("r1", "dn"), k1("r2", "up"), k1("r3", "up"))]
    s = normalize(SymState(BOSON, dict(zip(kets, z)), (SPIN,)))
    dm = to_density(s)
    pair = trace_region(dm, "r3")
    single = trace_region(pair, "r2")
    lam = np.linalg.eigvalsh(single.data)
    assert lam == pytest.approx([0.5, 0.5], abs=1e-12)


def test_dof_trace_reproduces_maximally_entangled_reductions():
    for kind in ("boson", "fermion"):
        dm = hhes(kind)
        ss = trace_dof_indist(trace_dof_indist(dm, Subsystem("s1", 1)),
                              Subsystem("s2", 1))
        rho = to_qubit_array(ss)
        assert concurrence(rho) == pytest.approx(1.0, abs=1e-12)
        marginal = trace_region(ss, "s2")
        assert vn_entropy(marginal.data) == pytest.approx(math.log(2), abs=1e-9)


def test_dof_trace_order_independent():
    rng = np.random.default_rng(9)
    for _ in range(50):
        ph = PhaseConfig(*rng.uniform(0, 2 * math.pi, 4))
        kind = "boson" if rng.integers(2) else "fermion"
        dm = hhes(kind, ph)
        a = trace_dof_indist(trace_dof_indist(dm, Subsystem("s1", 1)),
                             Subsystem("s2", 2))
        b = trace_dof_indist(trace_dof_indist(dm, Subsystem("s2", 2)),
                             Subsystem("s1", 1))
        assert a.basis == b.basis
        assert np.allclose(a.data, b.data, atol=1e-9)


def test_single_dof_system_trace_matches_localized_particle_trace():
    rng = np.random.default_rng(3)
    kets = [k1(r, v) for r in ("a", "b") for v in ("dn", "up")]
    for _ in range(10):
        terms = {}
        for _ in range(5):
            i, j = rng.integers(0, 4, size=2)
            terms[(kets[i], kets[j])] = rng.normal() + 1j * rng.normal()
        try:
            s = normalize(SymState(BOSON, terms, (SPIN,)))
        except Exception:
            continue
        via_dof = trace_dof_indist(to_density(s), Subsystem("a", 1))
        via_lf = ref.particle_trace_lofranco(s, region="a")
        assert via_dof.basis == via_lf.basis
        assert np.allclose(via_dof.data, via_lf.data, atol=1e-9)


def test_repeated_dof_trace_differs_from_region_trace_witness():
    dm = hhes("boson")
    repeated = ref.strip_empty_slots(
        trace_dof_indist(trace_dof_indist(dm, Subsystem("s1", 1)),
                         Subsystem("s1", 2)))
    region = trace_region(dm, "s1")
    assert repeated.basis == region.basis
    assert purity(repeated) == pytest.approx(1.0, abs=1e-9)
    assert purity(region) < 0.75
    assert not np.allclose(repeated.data, region.data, atol=1e-9)


def test_full_dof_trace_of_everything_leaves_unit_scalar():
    dm = hhes("boson")
    out = dm
    for region in ("s1", "s2"):
        for idx in (1, 2):
            out = trace_dof_indist(out, Subsystem(region, idx))
    out = ref.strip_empty_slots(out)
    assert out.data.shape == (1, 1)
    assert out.trace == pytest.approx(1.0)


def test_trace_dof_dist_oam_pair():
    # removing both orbital DoFs decoheres the polarization pair into the
    # diagonal cos^2/sin^2 mixture
    theta, phi = 0.7, 0.3
    dm = to_density(pol_oam_pair(theta, phi))
    red = trace_dof_dist(trace_dof_dist(dm, 0, 2), 1, 2)
    rho = to_qubit_array(red)
    lam = sorted(np.diag(rho).real)
    assert max(abs(rho[i, j]) for i in range(4) for j in range(4) if i != j) < 1e-12
    assert sorted([math.cos(theta) ** 2, math.sin(theta) ** 2, 0, 0]) == \
        pytest.approx(lam, abs=1e-12)


def test_sequential_dof_traces_equal_whole_particle_trace():
    dm = to_density(pol_oam_pair(0.5, 1.1))
    seq = trace_dof_dist(trace_dof_dist(dm, 0, 1), 0, 2)
    seq = ref.strip_empty_slots(seq)
    whole = trace_region(dm, "sig")
    assert seq.basis == whole.basis
    assert np.allclose(seq.data, whole.data, atol=1e-12)


def test_trace_dof_dist_removes_product_factor_exactly():
    pol = DofSpec(1, ("H", "V"))
    oam = DofSpec(2, ("+l", "-l"))
    ka = Ket("p", ((1, "H"), (2, "+l")))
    kb = Ket("q", ((1, "V"), (2, "-l")))
    s = normalize(SymState(DISTINGUISHABLE, {(ka, kb): 1.0}, (pol, oam)))
    red = trace_dof_dist(to_density(s), 0, 2)
    assert purity(red) == pytest.approx(1.0)


def test_lofranco_orthonormal_pair_maximally_mixed():
    s = normalize(SymState(BOSON, {(k1("a", "dn"), k1("b", "up")): 1.0}, (SPIN,)))
    red = ref.particle_trace_lofranco(s)
    lam = np.linalg.eigvalsh(red.data)
    assert lam == pytest.approx([0.5, 0.5], abs=1e-12)
    assert vn_entropy(red.data) >= 0.0


def test_lofranco_identical_bosons_pure():
    ket = k1("a", "dn")
    s = normalize(SymState(BOSON, {(ket, ket): 1.0}, (SPIN,)))
    red = ref.particle_trace_lofranco(s)
    assert purity(red) == pytest.approx(1.0)


def test_tiny_amplitude_reduction_stays_positive():
    # the c-sector tuples have diagonal entries near 4e-17 and cross terms
    # with |b:y, c:x, c:x> near 6e-9; every non-zero entry keeps its tuple
    xy = DofSpec(1, ("x", "y"))

    def reduced(eps):
        kx = Ket("c", ((1, "x"),))
        terms = {(Ket("a", ((1, "y"),)), Ket("b", ((1, "x"),)),
                  Ket("b", ((1, "y"),))): 1.0,
                 (Ket("b", ((1, "y"),)), kx, kx): eps,
                 (kx, kx, kx): eps}
        s = normalize(SymState(BOSON, terms, (xy,)))
        return trace_region(to_density(s), "c")

    red = reduced(6e-9)
    assert np.linalg.eigvalsh(red.data).min() > -1e-12
    assert purity(red) == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(red.data, reduced(1e-8).data, atol=1e-9)


@pytest.mark.parametrize("order", [("a", "c"), ("c", "a")])
def test_region_traces_keep_tuples_of_tiny_weight_in_either_order(order):
    # entries from 3e-17 to 6e-8 beside 1: each keeps its tuple, so tracing
    # a then c leaves the same vacuum as c then a
    xy = DofSpec(1, ("x", "y"))
    ax, cx = Ket("a", ((1, "x"),)), Ket("c", ((1, "x"),))
    terms = {(ax, ax): 0.707, (ax, cx): 5.5e-9, (cx, cx): 4.2e-8j}
    dm = to_density(normalize(SymState(BOSON, terms, (xy,))))
    for region in order:
        dm = trace_region(dm, region)
    assert dm.basis == ((),)
    assert dm.data.tolist() == [[1]]


def test_state_keeps_an_amplitude_of_1e_16_and_reduces_as_the_reference():
    # a state keeps exactly its non-zero amplitudes, the support rule of the
    # reductions, so the 1e-16 term reaches both traces with its tuple
    xy = DofSpec(1, ("x", "y"))
    ax, bx, by = Ket("a", ((1, "x"),)), Ket("b", ((1, "x"),)), Ket("b", ((1, "y"),))
    s = SymState(BOSON, {(ax, bx): 1.0, (ax, by): 1e-16}, (xy,))
    assert s.terms == {(ax, bx): 1.0, (ax, by): 1e-16}
    dm = to_density(normalize(s))
    for region in ("a", "b"):
        red, want = trace_region(dm, region), ref.trace_region(dm, region)
        assert red.basis == want.basis
        assert len(red.basis) == (2 if region == "a" else 1)
        assert np.allclose(red.data, want.data, rtol=0, atol=1e-15)


def test_lofranco_distinguishable_matches_region_trace():
    one = DofSpec(1, ("0", "1"))
    p0 = Ket("p", ((1, "0"),))
    terms = {(p0, Ket("q", ((1, v),))): 1.0 for v in "01"}
    s = normalize(SymState(DISTINGUISHABLE, terms, (one,)))
    for region in ("p", "q"):
        red = ref.particle_trace_lofranco(s, region)
        kernel = trace_region(to_density(s), region)
        assert red.basis == kernel.basis
        assert np.allclose(red.data, kernel.data, atol=1e-12)


def test_qubit_layout_of_specs_given_as_lists():
    # the layout is cached on (basis, dof_specs), so both must hash
    spec = DofSpec(1, ["x", "y"])
    assert spec == DofSpec(1, ("x", "y")) and hash(spec)
    terms = {(Ket("a", ((1, "x"),)), Ket("b", ((1, v),))): 1.0 for v in "xy"}
    dm = to_density(normalize(SymState(DISTINGUISHABLE, terms, [spec])))
    assert isinstance(dm.dof_specs, list)
    assert np.allclose(to_qubit_array(dm), np.kron([[1, 0], [0, 0]],
                                                   np.full((2, 2), 0.5)))


def test_a_value_the_spec_lacks_raises_only_when_its_tuple_is_kept():
    """A tuple whose value its declared `DofSpec` lacks has no place in the
    qubit array: with its row and column zero it is left out, and once its
    row is non-zero the layout refuses it."""
    spec = DofSpec(1, ("x", "y"))
    basis = tuple((Ket("a", ((1, "x"),)), Ket("b", ((1, v),))) for v in "xyz")
    data = np.zeros((3, 3), dtype=complex)
    data[:2, :2] = 0.5
    dm = DensityMatrix(basis, data, DISTINGUISHABLE, (spec,), 1)
    want = np.kron([[1, 0], [0, 0]], np.full((2, 2), 0.5))
    assert to_qubit_array(dm).tobytes() == (want + 0j).tobytes()
    data[2, 0] = data[0, 2] = 0.1
    with pytest.raises(ValueError, match=re.escape(
            "Ket(region='b', dofs=((1, 'z'),)) is not in list")):
        to_qubit_array(DensityMatrix(basis, data, DISTINGUISHABLE, (spec,), 1))


def _two_dof_pair_with_bunching():
    """Two two-DoF particles over regions a, b with bunched (a, a) tuples,
    whose kets are distinct, so the basis is canonical for bosons and
    fermions alike."""
    path = DofSpec(2, ("x", "y"))

    def ket(region, spin, way):
        return Ket(region, ((1, spin), (2, way)))

    terms = {(ket("a", "dn", "x"), ket("a", "up", "x")): 0.5,
             (ket("a", "dn", "y"), ket("a", "up", "y")): -0.3j,
             (ket("a", "up", "x"), ket("b", "dn", "y")): 0.6,
             (ket("a", "dn", "x"), ket("b", "up", "x")): 0.4 + 0.2j,
             (ket("a", "up", "y"), ket("b", "up", "y")): -0.25}
    return to_density(normalize(SymState(BOSON, terms, (SPIN, path))))


def test_image_tables_are_kept_per_rule():
    """One basis reduced under rules that differ only in eta or in the DoF:
    each call matches the reference engine, so no call reuses the images
    of another rule."""
    dm = _two_dof_pair_with_bunching()
    reductions = [(trace_region, ref.trace_region, "a"),
                  (trace_region, ref.trace_region, "b"),
                  (trace_dof_indist, ref.trace_dof_indist, Subsystem("a", 1)),
                  (trace_dof_indist, ref.trace_dof_indist, Subsystem("a", 2))]
    results = {}
    for eta in (BOSON, FERMION):
        same_basis = type(dm)(dm.basis, dm.data, eta, dm.dof_specs,
                              dm.n_dofs_orig)
        for new_rule, ref_rule, arg in reductions:
            new, old = new_rule(same_basis, arg), ref_rule(same_basis, arg)
            assert new.basis == old.basis
            assert np.allclose(new.data, old.data, rtol=0.0, atol=1e-12)
            results[eta, new_rule, arg] = new
    # the kinds differ on this basis, so a table shared across eta would show
    assert any(not np.allclose(results[BOSON, rule, arg].data,
                               results[FERMION, rule, arg].data)
               for rule, _, arg in reductions)


def test_rule_errors_surface_only_for_mapped_tuples():
    """A tuple whose particle lacks the traced DoF fails the rule; on one
    basis the trace succeeds while that tuple carries no weight and raises
    once it does."""
    path = DofSpec(2, ("x", "y"))
    full = (Ket("p", ((1, "dn"), (2, "x"))), Ket("q", ((1, "up"),)))
    short = (Ket("p", ((1, "up"),)), Ket("q", ((1, "dn"),)))
    dm = to_density(normalize(SymState(DISTINGUISHABLE,
                                       {full: 1.0, short: 0.5}, (SPIN, path))))
    weightless = dm.data.copy()
    short_at = dm.basis.index(short)
    weightless[short_at, :] = weightless[:, short_at] = 0.0
    for data, fails in ((weightless, False), (dm.data, True), (weightless, False)):
        call = type(dm)(dm.basis, data, dm.eta, dm.dof_specs, dm.n_dofs_orig)
        if fails:
            with pytest.raises(ValueError, match="dof index 2 not present"):
                trace_dof_dist(call, 0, 2)
        else:
            assert trace_dof_dist(call, 0, 2).basis == ((Ket("p", ((1, "dn"),)),
                                                         full[1]),)


def test_pauli_excluded_image_is_left_out():
    """Tracing DoF 2 at region a sends a:(x, u) to a:x, so the fermion tuple
    (a:x, a:(x, u)) has no image: a:x lacks DoF 2, and (a:x, a:x) is
    excluded.  Its weight leaves, and the two tuples with one particle at b
    keep their coherence."""
    path = DofSpec(2, ("u", "v"))
    specs = (DofSpec(1, ("x", "y")), path)
    a_x, b_yv = Ket("a", ((1, "x"),)), Ket("b", ((1, "y"), (2, "v")))
    a_xu, a_yu = Ket("a", ((1, "x"), (2, "u"))), Ket("a", ((1, "y"), (2, "u")))
    state = SymState(FERMION, {(a_x, a_xu): 0.6, (a_xu, b_yv): 0.48,
                               (a_yu, b_yv): 0.64j}, specs)
    red = trace_dof_indist(to_density(state), Subsystem("a", 2))
    assert red.basis == ((a_x, b_yv), (Ket("a", ((1, "y"),)), b_yv))
    v = np.array([0.48, 0.64j]) / 0.8
    assert np.allclose(red.data, np.outer(v, v.conj()), rtol=0, atol=1e-15)


def test_region_without_a_dof_is_one_dimensional_in_the_qubit_array():
    """Tracing particle 0's only DoF leaves it a ket without DoFs, which the
    layout places as a factor of dimension 1: the array is particle 1's."""
    x, y = k1("r1", "dn"), k1("r1", "up")
    terms = {(x, k1("r2", "dn")): 0.6, (x, k1("r2", "up")): 0.48,
             (y, k1("r2", "up")): 0.64}
    red = trace_dof_dist(to_density(SymState(DISTINGUISHABLE, terms, (SPIN,))),
                         0, 1)
    assert {kets[0] for kets in red.basis} == {Ket("r1")}
    # key dn: particle 1 in 0.6|dn> + 0.48|up>; key up: 0.64|up>
    want = np.array([[0.36, 0.288], [0.288, 0.2304 + 0.4096]])
    assert np.allclose(to_qubit_array(red), want, rtol=0, atol=1e-15)


def test_product_slot_without_the_traced_dof_takes_the_kernel():
    """On a product basis whose slot lacks the traced DoF the dense branch
    has no plan, and the kernel's rule decides: the distinguishable rule
    refuses the DoF, the coherent one finds no image."""
    slots = (("r1", ((1, ("dn", "up")),)),
             ("r2", ((1, ("dn", "up")), (2, ("x", "y")))))
    basis = _product_basis(slots)
    specs = (SPIN, DofSpec(2, ("x", "y")))
    for eta in (DISTINGUISHABLE, BOSON):
        dm = DensityMatrix(basis, np.eye(8) / 8, eta, specs, 2)
        if eta == DISTINGUISHABLE:
            with pytest.raises(ValueError, match="dof index 2 not present"):
                trace_dof_dist(dm, 0, 2)
        else:
            with pytest.raises(EmptySubspaceError, match="DoF trace left nothing"):
                trace_dof_indist(dm, Subsystem("r1", 2))
        assert _dense_plan(basis.slots, 0, 2) is None
        # the slot that carries it takes the dense branch: I/4 is left
        red = (trace_dof_dist(dm, 1, 2) if eta == DISTINGUISHABLE
               else trace_dof_indist(dm, Subsystem("r2", 2)))
        assert _dense_plan(basis.slots, 1, 2) is not None
        assert np.allclose(red.data, np.eye(4) / 4, rtol=0, atol=1e-15)
