"""Multi-degree-of-freedom entanglement toolkit.

Simulation and analysis of two- and three-particle states whose particles
carry several two-level degrees of freedom: interferometer circuit states for
bosons, fermions and distinguishable particles; projection and trace rules
for region-labelled states; entanglement measures and monogamy reports;
generalized teleportation fidelity and singlet fraction; signaling, swapping
and query protocols; and the two-qubit nonlocality-witness statistics with a
synthetic noise model.

`import qdof` loads none of these modules, nor numpy: `qdof.X` imports the
module `_EXPORTS` lists X under, and reads X from it on every access.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "circuits": "PhaseConfig gate_hardy_state hardy_state li_circuit "
                "pol_oam_pair swap_circuit",
    "fidelity": "ChannelLayout FidelityParams generalized_singlet_fraction "
                "generalized_teleportation_fidelity relation_check "
                "sf_upper_bound_check singlet_fraction teleport_fidelity "
                "two_param_state",
    "hardy": "HardyParams NoiseModel SampleSet estimate_qlb hardy_probs "
             "hardy_q noisy_sample qmax_solve t_quantile",
    "measurement": "ChshSettings CoincidenceTable chsh coincidence_table "
                   "expectation generalized_table",
    "measures": "MonogamyReport ThreeParticleCase concurrence log_negativity "
                "mixed_monogamy_check monogamy_report monogamy_report_qubits "
                "negativity three_particle_cases vn_entropy",
    "protocols": "AttackConfig SignalingConfig hardy_attack qpq_sf "
                 "signaling_exact signaling_mc signaling_multicopy swap_verify",
    "states": "BOSON DISTINGUISHABLE FERMION DensityMatrix DofSpec Ket "
              "SymState mix normalize symmetric_inner to_density",
    "trace": "Subsystem project_one_per_region to_qubit_array trace_dof_dist "
             "trace_dof_indist trace_region",
}
_MODULE_OF = {n: m for m, names in _EXPORTS.items() for n in names.split()}
__all__ = [*_MODULE_OF, *_EXPORTS]


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(__getattr__(_MODULE_OF[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
