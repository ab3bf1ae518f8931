"""Two non-interacting qubits in a common Markovian bath.

Completely positive dynamics generated by a single 3x3 Kossakowski block
acting through collective spin operators: exact propagation by the
exponential of the 16x16 affine generator, closed-form stationary states
and their asymptotic concurrence, a numerical Liouvillian null-space
oracle, and an entanglement-generation witness.  A state is a (15,) array
of real coefficients (see `pauli_algebra`) or a 4x4 density matrix.
"""

from .bath import (BathValidityError, ClosedFormNotApplicable,
                   KossakowskiBlock, PrincipalFrame, assemble_full_C,
                   make_bath, principal_frame)
from .config import (ConfigError, RunConfig, build_block, build_initial,
                     load_config, parse_config, product_state, run_seed,
                     serialize, werner_state)
from .entanglement import (GenerationVerdict, concurrence, concurrence_closed,
                           generation_test, partial_transpose)
from .generator import (IntegrationAccuracyError, Trajectory,
                        compile_generator, diagonal_form_check, evolve,
                        rate_scale, rhs_components, rhs_equal_blocks,
                        rhs_general)
from .pauli_algebra import (check_appendix_algebra, check_density_matrix,
                            convert, levi_civita, tau_of)
from .steady_state import (EquilibriumState, StationaryFamily,
                           asymptotic_state, commutant_check,
                           equilibrium_components, liouvillian_null_space,
                           stationary_family, stationary_member)

__version__ = "0.1.0"

__all__ = [
    "BathValidityError", "ClosedFormNotApplicable", "KossakowskiBlock",
    "PrincipalFrame", "assemble_full_C", "make_bath", "principal_frame",
    "ConfigError", "RunConfig", "build_block", "build_initial", "load_config",
    "parse_config", "product_state", "run_seed", "serialize", "werner_state",
    "GenerationVerdict", "concurrence", "concurrence_closed",
    "generation_test", "partial_transpose",
    "IntegrationAccuracyError", "Trajectory", "compile_generator",
    "diagonal_form_check", "evolve", "rate_scale",
    "rhs_components", "rhs_equal_blocks", "rhs_general",
    "check_appendix_algebra", "check_density_matrix", "convert",
    "levi_civita", "tau_of",
    "EquilibriumState", "StationaryFamily", "asymptotic_state",
    "commutant_check", "equilibrium_components",
    "liouvillian_null_space", "stationary_family", "stationary_member",
    "__version__",
]
