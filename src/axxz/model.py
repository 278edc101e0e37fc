"""Shared configuration and result types for the antiperiodic XXZ toolkit.

Everything downstream is specialized to anisotropy eta = i*pi/3, where
cosh(eta) = 1/2 and the Hamiltonian is real symmetric. H and the full
eigenvector matrices are dense 2^N x 2^N arrays (t(u) is applied to vectors
without being formed), so exact diagonalization is capped at ED_CAP sites.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

ETA = 1j * np.pi / 3
SINH_ETA = np.sinh(ETA)  # i*sqrt(3)/2
COSH_ETA = 0.5  # cosh(i*pi/3) exactly

PROFILE_CUTOFF = 40.0  # density profiles decay at least like exp(-3|lam|/2)

# dense real H and real ED eigenvectors (128 MiB each at N = 12); only the joint
# H/t basis is complex (256 MiB)
ED_CAP = 12

# generic probe point used to split degenerate H-eigenspaces with t(u0);
# any u0 away from the identity points and their eta-shifts works
U_PROBE = 0.1734 + 0.0912j


class CapacityError(ValueError):
    """Requested chain length exceeds the dense-matrix cap."""


class DegeneracyResolutionError(RuntimeError):
    """State is not an eigenvector of the probe transfer matrix."""


class SingularConfigurationError(ValueError):
    """A root sits on a pole of the equations (a factor vanishes to 1e-14)."""


class NonConvergenceError(RuntimeError):
    """Newton ran out of iterations. Carries the final residual norm."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class RootCollisionError(NonConvergenceError, ValueError):
    """Two roots of a converged set coincide, so the solve is invalid."""


class NonPhysicalRootsError(ValueError):
    """Energy came out with an imaginary part above threshold."""


class InconsistentZeroSetError(ValueError):
    """No overall constant makes the zero set satisfy the identities."""


class ConsistencyError(RuntimeError):
    """Two independent evaluations of the same quantity disagree."""


@dataclass(frozen=True)
class ModelParams:
    """Chain length and inhomogeneities.

    thetas defaults to all zeros (the physical point). Identity-based
    verification needs pairwise distinct thetas, which callers draw from a
    small real interval.
    """

    n_sites: int
    thetas: tuple = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.n_sites < 2:
            raise ValueError("need at least 2 sites")
        thetas = self.thetas
        if thetas is None:
            thetas = (0.0,) * self.n_sites
        thetas = tuple(complex(t) for t in thetas)
        if len(thetas) != self.n_sites:
            raise ValueError("thetas must have exactly n_sites entries")
        object.__setattr__(self, "thetas", thetas)

    @property
    def theta_array(self) -> np.ndarray:
        return np.asarray(self.thetas, dtype=complex)

    @cached_property  # kept on the instance, not a field: eq, hash and repr ignore it
    def theta_groups(self) -> tuple[np.ndarray, np.ndarray]:
        return np.unique(self.theta_array, return_inverse=True)  # distinct, index of each


@dataclass
class SpectrumResult:
    """Full spectrum of a real symmetric chain operator.

    eigenvectors are real orthonormal columns from `diagonalize_symmetric`
    and None from `spectrum`. parity holds the +-1 label of each level
    under U = prod_j sigma^x_j, (-1)^k for a level in momentum sector k of
    G (U = G^N).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None = None
    parity: np.ndarray | None = None


@dataclass(frozen=True)
class Excitation:
    """One excited zero point: a half-line root (type_I, number = J) or a
    two-string center (type_II, number = K)."""

    kind: str  # "type_I" | "type_II"
    number: float

    def __post_init__(self):
        if self.kind not in ("type_I", "type_II"):
            raise ValueError(f"unknown excitation kind {self.kind!r}")


@dataclass(frozen=True)
class QuantumNumberSet:
    """Branch labels of the logarithmic equations.

    bulk numbers index the real roots; each excitation carries its own
    number. Multi-excitation labelings follow the single-excitation rules
    applied per excitation (see docs; only the three single classes have
    first-principles status, the rest are the natural extension).
    """

    bulk: tuple
    excitations: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "bulk", tuple(float(b) for b in self.bulk))
        object.__setattr__(self, "excitations", tuple(self.excitations))

    @property
    def n_roots(self) -> int:
        return len(self.bulk) + sum(2 if e.kind == "type_II" else 1 for e in self.excitations)


@dataclass
class RootPattern:
    """Classification of shifted roots by their imaginary-part lines."""

    real_roots: tuple
    half_line: tuple  # real centers of Im = -pi/2 (mod pi) roots
    strings: tuple  # real centers of paired +-pi/3 roots
    others: tuple
    name: str  # "ground-like" | "type_I" | "type_II" | "mixed" | "other"

    @property
    def counts(self):
        return (len(self.real_roots), len(self.half_line), len(self.strings))


@dataclass
class ZeroPointSet:
    """The N-1 zeros z_j of a transfer-matrix eigenvalue, plus metadata.

    shifted = z + eta/2 are the variables the root-density language uses.
    Imaginary parts are kept canonical in (-pi/2, pi/2] (the equations are
    i*pi periodic).
    """

    zeros: np.ndarray
    energy: float | None = None
    residual: float | None = None
    iterations: int | None = None

    def __post_init__(self):
        self.zeros = np.asarray(self.zeros, dtype=complex)

    @property
    def shifted(self) -> np.ndarray:
        return self.zeros + ETA / 2

    @property
    def n_sites(self) -> int:
        return len(self.zeros) + 1

    @classmethod
    def from_shifted(cls, lambdas) -> "ZeroPointSet":
        return cls(zeros=np.asarray(lambdas, dtype=complex) - ETA / 2)


@dataclass(frozen=True)
class SpectralFunction:
    """Lambda(u) = lambda0 * prod_j sinh(u - z_j).

    The product form already obeys Lambda(u + i*pi) = (-1)^(N-1) Lambda(u),
    so no extra exponential prefactor is ever attached.
    """

    lambda0: complex
    zeros: tuple
    fit_residuals: tuple | None = None  # bilinear diagnostics from the fit
    band_weight: float | None = None  # off-band Fourier weight of the samples

    def __post_init__(self):
        object.__setattr__(self, "zeros", tuple(complex(z) for z in self.zeros))


@dataclass
class DensityProfile:
    """Smooth rapidity density plus explicit (position, weight) atoms.

    Delta terms are never sampled numerically; integrals add the atom
    weights analytically.
    """

    smooth: object  # callable lam -> density value
    holes: tuple = ()

    def total_integral(self) -> float:
        """Trapezoid sum of the smooth part on 1601 nodes over [-PROFILE_CUTOFF,
        PROFILE_CUTOFF], plus the atom weights. The profiles here are analytic
        in a strip around the real axis, so the sum converges geometrically."""
        x = np.linspace(-PROFILE_CUTOFF, PROFILE_CUTOFF, 1601)
        return float(np.trapezoid(self.smooth(x), x)) + sum(w for _, w in self.holes)


@dataclass(frozen=True)
class ExcitationSpec:
    """One elementary excitation over the ground sea; a type_II string
    drags a bulk hole along at its own center alpha."""

    kind: str  # "type_I" | "type_II"
    alpha: float

    def __post_init__(self):
        if self.kind not in ("type_I", "type_II"):
            raise ValueError(f"unknown excitation kind {self.kind!r}")


@dataclass(frozen=True)
class ScatteringAmplitude:
    value: complex
