"""Exception hierarchy for hamweyl."""

from __future__ import annotations

__all__ = [
    "HamweylError",
    "InputError",
    "DomainError",
    "SteppingError",
    "EigenvalueHitError",
    "TransformPoleError",
    "KernelConstructionError",
    "ConvergenceError",
    "GenerationError",
    "UnsupportedError",
]


class HamweylError(Exception):
    """Base class for all package-specific errors."""


class InputError(HamweylError, ValueError):
    """Invalid input data (shape, rank, definiteness class, singular coefficient)."""


class DomainError(HamweylError):
    """Site index outside the range reachable under the extension policy."""


class SteppingError(HamweylError):
    """Near-singular pencil encountered while propagating a solution.

    Carries the offending site and the reciprocal condition estimate.
    """

    def __init__(self, site: int, rcond: float, which: str):
        self.site = site
        self.rcond = rcond
        self.which = which
        super().__init__(
            f"near-singular {which} pencil at site {site} (rcond={rcond:.3e})"
        )


class EigenvalueHitError(HamweylError):
    """z is a pole of the regular M.

    For real spectral parameters this is an eigenvalue of the regular
    two-point boundary value problem whose eigenvector is seen from the
    base site. ``smin`` is (1 + ||M||^2)^(-1/2), 0 for a non-finite M.
    """

    def __init__(self, z: complex, smin: float):
        self.z = z
        self.smin = smin
        super().__init__(f"M has a pole at z={z} (smin={smin:.3e})")


class TransformPoleError(HamweylError):
    """Singular denominator in a linear fractional transformation."""


class KernelConstructionError(HamweylError):
    """A Green's kernel or its solve failed a check: the half-plane sign
    check or the coupling-matrix inversion at assembly, the delta-residual
    certificate at the sites next to k0, or the relative residual gate of
    :func:`hamweyl.green.solve_nonhomogeneous`."""


class ConvergenceError(HamweylError):
    """An iteration failed to converge; carries the iterate trace."""

    def __init__(self, message: str, trace=None):
        self.trace = list(trace) if trace is not None else []
        super().__init__(message)


class GenerationError(HamweylError):
    """Random-system generation exhausted its retry budget."""


class UnsupportedError(HamweylError):
    """Requested configuration is valid mathematics but outside this version."""
