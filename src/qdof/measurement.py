"""Coincidence tables, normalized expectations and CHSH values for circuit states."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuits import PhaseConfig, li_circuit

ALICE = "s1"
BOB = "s2"

# +1 outcome labels, per observable pair; chosen so the normalized
# expectation of the interferometer state equals cos(phi_A - phi_B) entrywise
# with phi_A = phi_D - phi_L and phi_B = phi_R - phi_U
_PLUS = {
    ("external", "external"): ({"L"}, {"U"}),
    ("internal", "internal"): ({"up"}, {"dn"}),
    ("internal", "external"): ({"dn", "H"}, {"U"}),
    ("external", "internal"): ({"D"}, {"dn"}),
}


@dataclass
class CoincidenceTable:
    """2x2 joint detection probabilities for one observable per party."""

    rows: tuple
    cols: tuple
    probs: np.ndarray
    observable_a: str
    observable_b: str

    @property
    def total(self):
        return float(self.probs.sum())

    def entry(self, row_label, col_label):
        return float(self.probs[self.rows.index(row_label), self.cols.index(col_label)])

    def as_text(self):
        width = max(len(str(c)) for c in self.cols + self.rows) + 2
        head = " " * width + "".join(f"{c:>12}" for c in self.cols)
        lines = [head]
        for r, row in zip(self.rows, self.probs):
            lines.append(f"{r:<{width}}" + "".join(f"{p:12.6f}" for p in row))
        return "\n".join(lines)

    def to_csv(self, settings=None):
        """CSV export with an embedded settings record in the header."""
        header = f"# observables={self.observable_a}/{self.observable_b}"
        if settings is not None:
            header += f" settings={settings}"
        lines = [header, "row," + ",".join(str(c) for c in self.cols)]
        for r, row in zip(self.rows, self.probs):
            lines.append(f"{r}," + ",".join(f"{p:.12g}" for p in row))
        return "\n".join(lines) + "\n"

    def to_json(self, settings=None):
        import json
        return json.dumps({"rows": list(self.rows), "cols": list(self.cols),
                           "probs": self.probs.tolist(),
                           "observable_a": self.observable_a,
                           "observable_b": self.observable_b,
                           "settings": settings}, sort_keys=True)


@dataclass(frozen=True)
class ChshSettings:
    """Two detector settings per party (radians)."""

    phi_a0: float = 0.0
    phi_a1: float = math.pi
    phi_b0: float = math.pi / 4
    phi_b1: float = -math.pi / 4


def _outcome(ket, observable):
    if observable == "external":
        return ket.value(1)
    if observable == "internal":
        return ket.value(2)
    raise ValueError(f"unknown observable {observable!r}")


def coincidence_table(state, obs_a, obs_b):
    """Joint detection probabilities when each party receives one particle."""
    probs = {}
    for kets, amp in state.terms.items():
        regions = [k.region for k in kets]
        if sorted(regions) != [ALICE, BOB]:
            continue
        a_ket = kets[regions.index(ALICE)]
        b_ket = kets[regions.index(BOB)]
        key = (_outcome(a_ket, obs_a), _outcome(b_ket, obs_b))
        probs[key] = probs.get(key, 0.0) + abs(amp) ** 2
    rows = tuple(sorted({a for a, _ in probs}))
    cols = tuple(sorted({b for _, b in probs}))
    table = np.zeros((len(rows), len(cols)))
    for (a, b), p in probs.items():
        table[rows.index(a), cols.index(b)] = p
    return CoincidenceTable(rows, cols, table, obs_a, obs_b)


def expectation(table):
    """Normalized dichotomic expectation of a coincidence table, with the
    +1 outcomes of its observable pair in `_PLUS`."""
    total = table.total
    if total <= 0:
        raise ValueError("table has zero total probability")
    plus_a, plus_b = _PLUS[(table.observable_a, table.observable_b)]
    value = 0.0
    for i, r in enumerate(table.rows):
        for j, c in enumerate(table.cols):
            sign = (1 if r in plus_a else -1) * (1 if c in plus_b else -1)
            value += sign * table.probs[i, j]
    return value / total


def setting_phases(a, b):
    """Phase configuration realizing one CHSH setting pair.

    Alice's knob drives the D-phase at half weight and Bob's the R-phase, so
    the interferometer expectation becomes cos(a/2 - b); the canonical settings
    (0, pi, pi/4, -pi/4) then reach the quantum bound.
    """
    return PhaseConfig(phi_d=a / 2.0, phi_l=0.0, phi_r=b, phi_u=0.0)


def chsh(kind, settings=ChshSettings(), obs=("external", "external"),
         circuit=li_circuit):
    """|E00 + E10 + E01 - E11| of the four states `circuit(kind, phases)`."""

    def e_of(a, b):
        state = circuit(kind, setting_phases(a, b))
        return expectation(coincidence_table(state, *obs))

    e00 = e_of(settings.phi_a0, settings.phi_b0)
    e10 = e_of(settings.phi_a1, settings.phi_b0)
    e01 = e_of(settings.phi_a0, settings.phi_b1)
    e11 = e_of(settings.phi_a1, settings.phi_b1)
    return abs(e00 + e10 + e01 - e11)


_LAYOUTS = {
    ("external", "external"): (("D", "L"), ("R", "U"),
                               [["c", "s"], ["s", "c"]]),
    ("internal", "internal"): (("dn", "up"), ("dn", "up"),
                               [["s", "c"], ["c", "s"]]),
    ("internal", "external"): (("dn", "up"), ("R", "U"),
                               [["s", "c"], ["c", "s"]]),
    ("external", "internal"): (("D", "L"), ("dn", "up"),
                               [["c", "s"], ["s", "c"]]),
}


def generalized_table(kind, phi1, phi_r_minus_u):
    """All four tables from the single unified phase difference.

    phi1 is the full Alice phase difference phi_D - phi_L; the Bob-side phase
    enters as phi2 = -(phi_R - phi_U), with an extra quarter-turn for bosons.
    Entries are cos^2/sin^2 of (phi1 + phi2)/2 in the standard layouts; the
    result is entrywise identical to ``coincidence_table`` on the matching
    circuit for both statistics.
    """
    phi2 = -phi_r_minus_u
    angle = (phi1 + phi2) / 2.0
    if kind == "boson":
        angle += math.pi / 2.0
    elif kind != "fermion":
        raise ValueError("generalized tables exist for bosons and fermions only")
    c2 = 0.25 * math.cos(angle) ** 2
    s2 = 0.25 * math.sin(angle) ** 2
    tables = {}
    for obs, (rows, cols, pattern) in _LAYOUTS.items():
        probs = np.array([[c2 if cell == "c" else s2 for cell in row]
                          for row in pattern])
        tables[obs] = CoincidenceTable(rows, cols, probs, obs[0], obs[1])
    return tables
