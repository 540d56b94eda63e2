"""collide1d: collision-model simulator and closed-form solutions for a qubit
coupled to the field of a one-dimensional waveguide.

The joint qubit-field evolution is decomposed into brief pairwise collisions
with discrete temporal field modes.  Three mutually checking tiers cover the
dynamics: a dense brute-force state-vector oracle, excitation-restricted
propagators (single-excitation recursion and displaced-frame photon sectors),
and closed-form wavefunction coefficients, plus an optical-Bloch-equation
oracle for the reduced qubit.
"""

__version__ = "0.1.0"

from .core import (EXCITED, GROUND, MemoryGuardError, RunRecord, SimulationParams,
                   TimeGrid, ValidityWarning, Wavepacket, complex_rabi,
                   make_exponential_wavepacket, make_gaussian_wavepacket)
from .engine import (CollisionUnitary, DenseJointState, DenseTrajectory,
                     SectorRun, SectorState, SinglePhotonRun, SinglePhotonState,
                     displaced_collision_unitary, lab_collision_unitary, run_dense,
                     run_displaced_sectors, run_single_excitation)
from .analytic import (assemble_coherent, coherent_qubit_trajectory, fm,
                       single_photon_state, spontaneous_emission_state,
                       strong_drive_state, xi_tilde_trajectory)
from .observables import (entanglement_entropy, io_residual, photon_density,
                          reduced_qubit, state_fidelity)
from .obe import obe_integrate

__all__ = [
    "__version__",
    "EXCITED", "GROUND", "MemoryGuardError", "RunRecord", "SimulationParams", "TimeGrid",
    "ValidityWarning", "Wavepacket", "complex_rabi",
    "make_exponential_wavepacket", "make_gaussian_wavepacket",
    "CollisionUnitary", "DenseJointState", "DenseTrajectory", "SectorRun",
    "SectorState", "SinglePhotonRun", "SinglePhotonState", "displaced_collision_unitary",
    "lab_collision_unitary", "run_dense", "run_displaced_sectors", "run_single_excitation",
    "assemble_coherent", "coherent_qubit_trajectory", "fm", "single_photon_state",
    "spontaneous_emission_state", "strong_drive_state", "xi_tilde_trajectory",
    "entanglement_entropy", "io_residual", "photon_density",
    "reduced_qubit", "state_fidelity", "obe_integrate",
]
