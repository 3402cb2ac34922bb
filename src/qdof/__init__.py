"""Multi-degree-of-freedom entanglement toolkit.

Simulation and analysis of two- and three-particle states whose particles
carry several two-level degrees of freedom: interferometer circuit states for
bosons, fermions and distinguishable particles; projection and trace rules
for region-labelled states; entanglement measures and monogamy reports;
generalized teleportation fidelity and singlet fraction; signaling, swapping
and query protocols; and the two-qubit nonlocality-witness statistics with a
synthetic noise model.
"""

from .circuits import (PhaseConfig, gate_hardy_state, hardy_state, li_circuit,
                       pol_oam_pair, swap_circuit)
from .fidelity import (ChannelLayout, FidelityParams,
                       generalized_singlet_fraction,
                       generalized_teleportation_fidelity, relation_check,
                       sf_upper_bound_check, singlet_fraction,
                       teleport_fidelity, two_param_state)
from .hardy import (HardyParams, NoiseModel, SampleSet, estimate_qlb,
                    hardy_probs, hardy_q, noisy_sample, qmax_solve,
                    t_quantile)
from .measurement import (ChshSettings, CoincidenceTable, chsh,
                          coincidence_table, expectation, generalized_table)
from .measures import (MonogamyReport, ThreeParticleCase, concurrence,
                       log_negativity, mixed_monogamy_check, monogamy_report,
                       monogamy_report_qubits, negativity,
                       three_particle_cases, vn_entropy)
from .protocols import (AttackConfig, SignalingConfig, hardy_attack, qpq_sf,
                        signaling_exact, signaling_mc, signaling_multicopy,
                        swap_verify)
from .states import (BOSON, DISTINGUISHABLE, FERMION, DensityMatrix, DofSpec,
                     Ket, SymState, mix, normalize, symmetric_inner,
                     to_density)
from .trace import (Subsystem, project_one_per_region, to_qubit_array,
                    trace_dof_dist, trace_dof_indist, trace_region)

__version__ = "0.1.0"
