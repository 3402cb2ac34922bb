"""Optical-network output states.

Builds the two-particle interferometer state in which a hybrid beam splitter
couples an internal mode (spin or polarization) to an external path mode, for
bosons, fermions and labelled distinguishable particles; the two-boson swap
variant; and the two-qubit test state of the nonlocality statistics as the
analytic vector (``hardy_state``, what the statistics use) and as its gate
circuit (``gate_hardy_state``), which agree up to a global phase.

Conventions: the two source particles enter at modes R and L; Alice collects
modes L and D (region ``s1``) and controls ``phi_L``/``phi_D``; Bob collects R
and U (region ``s2``) and controls ``phi_R``/``phi_U``.  DoF index 1 is the
external path mode, index 2 the internal mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import DISTINGUISHABLE, ETA_OF_KIND, DofSpec, Ket, SymState, normalize

PATH = DofSpec(1, ("D", "L", "R", "U"))
SPIN = DofSpec(2, ("dn", "up"))
POLARIZATION = DofSpec(2, ("H", "V"))

_REGION_OF_MODE = {"L": "s1", "D": "s1", "R": "s2", "U": "s2"}

KINDS = tuple(ETA_OF_KIND)


@dataclass(frozen=True)
class PhaseConfig:
    """The four controllable phase shifts, in radians."""

    phi_l: float = 0.0
    phi_d: float = 0.0
    phi_r: float = 0.0
    phi_u: float = 0.0

    @property
    def phi(self):
        """Half signed phase sum; the detection tables depend only on this."""
        return (self.phi_d - self.phi_l - self.phi_r + self.phi_u) / 2.0


def _mode_ket(mode, internal):
    return Ket(_REGION_OF_MODE[mode], ((1, mode), (2, internal)))


def _interferometer(phases, internal_by_mode):
    """The two bracket factors of the final creation-operator product."""
    el = np.exp(1j * phases.phi_l)
    ed = np.exp(1j * phases.phi_d)
    er = np.exp(1j * phases.phi_r)
    eu = np.exp(1j * phases.phi_u)
    first = [
        (er, _mode_ket("R", internal_by_mode["R"])),
        (1j * er, _mode_ket("U", internal_by_mode["U"])),
        (1j * ed, _mode_ket("D", internal_by_mode["D"])),
        (-ed, _mode_ket("L", internal_by_mode["L"])),
    ]
    second = [
        (el, _mode_ket("L", internal_by_mode["L"])),
        (1j * el, _mode_ket("D", internal_by_mode["D"])),
        (1j * eu, _mode_ket("U", internal_by_mode["U"])),
        (-eu, _mode_ket("R", internal_by_mode["R"])),
    ]
    return first, second


def _assemble(kind, first, second, dof_specs):
    # construction of SymState merges, signs and Pauli-excludes the slots;
    # in the distinguishable mode the slot order is the particle label
    if kind not in ETA_OF_KIND:
        raise ValueError(f"unknown particle kind {kind!r}")
    eta = ETA_OF_KIND[kind]
    terms = {}
    for ca, ka in first:
        for cb, kb in second:
            terms[(ka, kb)] = terms.get((ka, kb), 0.0) + 0.25 * ca * cb
    return SymState(eta, terms, dof_specs)


def li_circuit(kind, phases):
    """Hybrid-beam-splitter interferometer output for two identical sources.

    Expands the two bracketed creation-operator sums into a sparse state; for
    fermions, anticommutation removes doubly occupied modes, for bosons the
    bunched amplitudes add, and in the distinguishable mode the two bracket
    factors keep their particle labels.
    """
    internal = {"R": "dn", "L": "dn", "U": "up", "D": "up"}
    first, second = _interferometer(phases, internal)
    state = _assemble(kind, first, second, (PATH, SPIN))
    return normalize(state)


def swap_circuit(phases):
    """Two-boson polarization/path state of the swap network (plain BS at Bob)."""
    internal = {"R": "H", "L": "H", "U": "H", "D": "V"}
    first, second = _interferometer(phases, internal)
    return normalize(_assemble("boson", first, second, (PATH, POLARIZATION)))


POL = DofSpec(1, ("H", "V"))
ORBITAL = DofSpec(2, ("+l", "-l"))


def pol_oam_pair(theta, phi):
    """Two distinguishable photons entangled across polarization and orbital DoFs.

    cos(theta)|H,+l>|V,-l> + e^{i phi} sin(theta)|V,-l>|H,+l>, slots (signal,
    idler).
    """
    c, s = math.cos(theta), math.sin(theta)
    k_hp = Ket("sig", ((1, "H"), (2, "+l")))
    k_vm = Ket("sig", ((1, "V"), (2, "-l")))
    k_vm_i = Ket("idl", ((1, "V"), (2, "-l")))
    k_hp_i = Ket("idl", ((1, "H"), (2, "+l")))
    terms = {(k_hp, k_vm_i): c, (k_vm, k_hp_i): s * np.exp(1j * phi)}
    return normalize(SymState(DISTINGUISHABLE, terms, (POL, ORBITAL)))


# -- two-qubit gate circuit ---------------------------------------------------

CNOT = np.array([[1, 0, 0, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1],
                 [0, 0, 1, 0]], dtype=complex)


def u_rot(theta):
    """Real beam-splitter rotation."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=complex)


def u_phase(lam):
    return np.array([[1, 0], [0, np.exp(1j * lam)]], dtype=complex)


def coupling_gates(phi):
    """The diagonal coupling decomposed into CNOTs and single-qubit phases."""
    ident = np.eye(2, dtype=complex)
    m1 = np.kron(ident, u_phase(-phi))
    m2 = np.kron(u_phase(phi), u_phase(-phi))
    m3 = np.kron(ident, u_phase(2 * phi))
    return m3 @ CNOT @ m2 @ CNOT @ m1


def hardy_state(theta, phi):
    """Two-qubit state cos(t)/sqrt2 (|00>+|10>) + sin(t)/sqrt2 (|01>+e^{2ip}|11>)."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([c, s, c, s * np.exp(2j * phi)], dtype=complex) / math.sqrt(2)


def gate_hardy_state(theta, phi):
    """The same state composed from gates: rotations, then the coupling circuit.

    Agrees with `hardy_state` up to a global phase.
    """
    prep = np.kron(u_rot(math.pi / 4), u_rot(theta))
    zero = np.zeros(4, dtype=complex)
    zero[0] = 1.0
    return coupling_gates(phi) @ (prep @ zero)
