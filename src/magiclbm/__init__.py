"""Lattice Boltzmann experiments around magic relaxation-parameter products.

Minimal lattice Boltzmann schemes (a diffusive three-velocity line
model and a nine-velocity channel-flow model) whose boundary error is
controlled by the product of two relaxation parameters.  The package
marches the schemes to steady state, extracts the effective wall
location from a parabolic fit of the settled profile, and verifies that
at scheme-specific magic products the wall sits exactly half a grid
spacing beyond the boundary node.
"""

__version__ = "0.1.0"

from .errors import (
    MagicLBMError,
    ConfigurationError,
    ConvergenceError,
    FitError,
    LocalizationError,
    MeasurementError,
)
from .lattice import (
    D1Q3,
    D2Q9,
    LatticeSpec,
    MomentBasis,
    build_d1q3_basis,
    build_d2q9_basis,
    to_moments,
    from_moments,
    stream,
)
from .collision import (
    s_to_sigma,
    sigma_to_s,
    relaxation_d1q3,
    relaxation_d2q9,
    equilibrium_d1q3,
    equilibrium_d2q9,
    relax,
)
from .boundaries import BoundaryClosure, sound_speed_sq, pressure_abb_coefficient
from .fitting import ParabolaFit, WallLocationResult, fit_parabola, wall_location
from .experiments import (
    SteadyStateCriterion,
    D1Q3Experiment,
    D2Q9Experiment,
    MagicSweep,
    run_to_steady,
    density_profile,
    velocity_profile,
    wall_offset,
    sweep_product,
    find_magic_root,
    predict_magic,
    measure_diffusivity,
    measure_viscosity,
    measure_sound_speed,
)
from .config import (
    RunConfig,
    parse_config,
    render_config,
    config_hash,
    build_experiment,
)
from .results import ResultTable, to_csv, emit_plot_script

__all__ = [
    "__version__",
    "MagicLBMError",
    "ConfigurationError",
    "ConvergenceError",
    "FitError",
    "LocalizationError",
    "MeasurementError",
    "D1Q3",
    "D2Q9",
    "LatticeSpec",
    "MomentBasis",
    "build_d1q3_basis",
    "build_d2q9_basis",
    "to_moments",
    "from_moments",
    "stream",
    "s_to_sigma",
    "sigma_to_s",
    "relaxation_d1q3",
    "relaxation_d2q9",
    "equilibrium_d1q3",
    "equilibrium_d2q9",
    "relax",
    "BoundaryClosure",
    "sound_speed_sq",
    "pressure_abb_coefficient",
    "ParabolaFit",
    "WallLocationResult",
    "fit_parabola",
    "wall_location",
    "SteadyStateCriterion",
    "D1Q3Experiment",
    "D2Q9Experiment",
    "MagicSweep",
    "run_to_steady",
    "density_profile",
    "velocity_profile",
    "wall_offset",
    "sweep_product",
    "find_magic_root",
    "predict_magic",
    "measure_diffusivity",
    "measure_viscosity",
    "measure_sound_speed",
    "RunConfig",
    "parse_config",
    "render_config",
    "config_hash",
    "build_experiment",
    "ResultTable",
    "to_csv",
    "emit_plot_script",
]
