"""Exact solution toolkit for the antiperiodic XXZ chain at eta = i*pi/3.

The chain couples N spins with XX + YY + cosh(eta) ZZ bonds and a twisted
last bond (conjugation by sigma^x). At this anisotropy every transfer
eigenvalue factors over N-1 zero points, the zeros obey closed Bethe-type
equations, and the large-N limit has closed-form densities, dispersions and
scattering amplitudes. Submodules:

    core      operators: Hamiltonian, transfer action t(u) X, ED
    bae       zero-point equations: residuals, Newton solver, quantum numbers
    tqverify  factored-eigenvalue extraction and functional identity checks
    thermo    large-N closed forms and finite-size density checks
    cli       the `axxz` command line front end
"""

from . import bae, core, thermo, tqverify
from .model import (
    COSH_ETA,
    ED_CAP,
    ETA,
    SINH_ETA,
    U_PROBE,
    CapacityError,
    ConsistencyError,
    DegeneracyResolutionError,
    DensityProfile,
    Excitation,
    ExcitationSpec,
    InconsistentZeroSetError,
    ModelParams,
    NonConvergenceError,
    NonPhysicalRootsError,
    QuantumNumberSet,
    RootPattern,
    ScatteringAmplitude,
    SingularConfigurationError,
    SolverConfig,
    SpectralFunction,
    SpectrumResult,
    ZeroPointSet,
)

__version__ = "0.1.0"

__all__ = [
    "ETA", "SINH_ETA", "COSH_ETA", "ED_CAP", "U_PROBE",
    "ModelParams", "SolverConfig", "SpectrumResult", "Excitation",
    "QuantumNumberSet", "RootPattern", "ZeroPointSet", "SpectralFunction",
    "DensityProfile", "ExcitationSpec", "ScatteringAmplitude",
    "CapacityError", "DegeneracyResolutionError",
    "SingularConfigurationError", "NonConvergenceError", "NonPhysicalRootsError",
    "InconsistentZeroSetError", "ConsistencyError",
    "core", "bae", "tqverify", "thermo", "cli",
    "__version__",
]
