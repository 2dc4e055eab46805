"""Sunlight-like photon statistics from CW parametric down-conversion.

The package models a down-conversion source whose per-mode photon numbers
follow the geometric law of a two-mode squeezed vacuum, fits the source
spectrum to a black-body curve over a frequency window, and propagates
molecular excited-state density matrices under unheralded, heralded, and
coincidence-detected illumination. All frequencies are wavenumbers in cm^-1
and all times are in femtoseconds.
"""

from .errors import (
    FitDivergedError,
    NormalizationError,
    NumericalError,
    PseudosunError,
    ValidationError,
)
from .numerics import (
    C2_CM_K,
    C_CM_PER_FS,
    FrequencyGrid,
    TimeGrid,
    angular_frequency,
    sinc,
)
from .pdc import (
    CrystalParams,
    PdcParams,
    PhotonSpectrum,
    ThermalParams,
    entanglement_time_from_crystal,
    mean_photon_number,
    photon_number_pmf,
    squeeze_fraction,
    squeeze_profile,
    thermal_mean,
    vacuum_amplitude,
)
from .fitting import FitProblem, FitResult, fit_objective, fit_pdc_to_thermal
from .dynamics import (
    DensityTrajectory,
    MolecularSystem,
    NormalizationMode,
    evolve_unconditional,
    normalize_trajectory,
)
from .heralded import (
    FieldMethod,
    HeraldedField,
    average_over_heralds,
    coincidence_signal,
    default_field_grid,
    evolve_heralded,
    heralded_field,
    impulsive_limit,
    long_time_closed_form,
)
from .config import example_config

__version__ = "0.1.0"

__all__ = [
    "C2_CM_K",
    "C_CM_PER_FS",
    "CrystalParams",
    "DensityTrajectory",
    "FieldMethod",
    "FitDivergedError",
    "FitProblem",
    "FitResult",
    "FrequencyGrid",
    "HeraldedField",
    "MolecularSystem",
    "NormalizationError",
    "NormalizationMode",
    "NumericalError",
    "PdcParams",
    "PhotonSpectrum",
    "PseudosunError",
    "ThermalParams",
    "TimeGrid",
    "ValidationError",
    "angular_frequency",
    "average_over_heralds",
    "coincidence_signal",
    "default_field_grid",
    "entanglement_time_from_crystal",
    "evolve_heralded",
    "evolve_unconditional",
    "example_config",
    "fit_objective",
    "fit_pdc_to_thermal",
    "heralded_field",
    "impulsive_limit",
    "long_time_closed_form",
    "mean_photon_number",
    "normalize_trajectory",
    "photon_number_pmf",
    "sinc",
    "squeeze_fraction",
    "squeeze_profile",
    "thermal_mean",
    "vacuum_amplitude",
    "__version__",
]
