"""Desk-scale stability diagnostics for traveling waves of hyperbolic
relaxation systems: structural hypothesis checks, frequency-swept resolvent
bounds, exponential dichotomies with symmetrizer certificates, turning-point
detection, and time-domain confirmation of damping estimates.
"""

import os

# The sweep's threads are the only source of parallelism: BLAS threads inside
# them oversubscribe the cores and make results depend on the thread count.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import errors
from .dichotomy import (DichotomyData, TurningPointReport, block_diagonalize,
                        coalescence_scan, detect_turning_points,
                        limit_spectral_split, propagate_subspaces,
                        verify_dichotomy)
from .model import (HypothesisReport, SymbolMatrix, SystemSpec,
                    assemble_symbol, check_chf, check_geometric_regularity,
                    check_hyperbolicity, check_kawashima,
                    check_noncharacteristic, per_state, run_hypotheses,
                    zero_order_matrix)
from .profile import (WaveProfile, load_profile, save_profile,
                      solve_profile_jinxin, solve_profile_shooting)
from .resolvent import (CollocationGrid, FrequencyPoint, HatNorm,
                        ResolventOperatorField, SweepResult, assemble_G,
                        bump_perturbation, verify_equivalence)
from .symmetrizer import (Certificate, LyapunovForms, SymmetrizerField,
                          assemble_symmetrizer, constant_symmetrizer,
                          energy_estimate_check, lyapunov_Q,
                          verify_symmetrizer)
from .systems import (jin_xin, jin_xin_2d, make_system, partially_damped,
                      register_system, saint_venant)
from .timedomain import (CutoffPair, EnergyTrace, SimState, make_sim,
                         measure_energy, run_simulation, step,
                         truncation_pipeline, verify_classical_damping,
                         verify_integrated_damping, verify_short_time)

__version__ = "0.1.0"
