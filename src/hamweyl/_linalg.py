"""Small dense complex linear-algebra helpers shared across the package.

Everything here operates on small (m ≤ a few dozen) matrices, so plain
LAPACK calls through numpy are always appropriate.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError

#: rcond below which a matrix that a result divides by counts as singular
_SINGULAR_RCOND = 1e-13

__all__ = [
    "all_finite",
    "as_complex_matrix",
    "adjoint",
    "herm",
    "imag_part",
    "opnorm",
    "rcond",
    "smallest_singular_value",
    "is_hermitian",
    "inverse",
    "fails_check",
    "min_eig_herm",
    "max_eig_herm",
    "sqrtm_spd",
    "invsqrtm_spd",
    "rsolve",
    "ginibre",
    "haar_from_ginibre",
    "haar_unitary",
]


def all_finite(a: np.ndarray) -> bool:
    a = np.asarray(a)
    return bool(np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag)))


def as_complex_matrix(a, shape=None, name="matrix") -> np.ndarray:
    """Coerce input to a complex ndarray, optionally enforcing a shape."""
    out = np.asarray(a, dtype=complex)
    if shape is not None and out.shape != tuple(shape):
        raise InputError(f"{name} must have shape {tuple(shape)}, got {out.shape}")
    if not all_finite(out):
        raise InputError(f"{name} contains non-finite entries")
    return out


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose A*, of one matrix or of each in a stack."""
    return a.conj().swapaxes(-1, -2)


def herm(a: np.ndarray) -> np.ndarray:
    """Hermitian part (A + A*) / 2, of one matrix or of each in a stack."""
    return 0.5 * (a + adjoint(a))


def imag_part(a: np.ndarray) -> np.ndarray:
    """Matrix imaginary part (A - A*) / (2i), of one matrix or of each in a
    stack; Hermitian by construction."""
    return (a - adjoint(a)) / 2j


def opnorm(a: np.ndarray):
    """Spectral (operator 2-) norm.

    A float for one matrix, an array of them for a stack of matrices.
    """
    a = np.asarray(a)
    if a.ndim > 2:
        return np.linalg.norm(a, 2, axis=(-2, -1))
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def rcond(a: np.ndarray):
    """Reciprocal 2-norm condition number, 0.0 for exactly singular input.

    A float for one matrix, an array of them for a stack of matrices.
    """
    s = np.linalg.svd(a, compute_uv=False)
    if s.ndim > 1:
        smax = s[..., 0]
        return np.divide(s[..., -1], smax, out=np.zeros_like(smax),
                         where=smax > 0.0)
    if s.size == 0 or s[0] == 0.0:
        return 0.0
    return float(s[-1] / s[0])


def smallest_singular_value(a: np.ndarray) -> float:
    s = np.linalg.svd(a, compute_uv=False)
    return float(s[-1]) if s.size else 0.0


def is_hermitian(a: np.ndarray, tol: float = 1e-12):
    """True when ||A - A*|| <= tol * max(1, ||A||).

    A bool for one matrix, an array of them for a stack of matrices.
    """
    return opnorm(a - adjoint(a)) <= tol * np.maximum(1.0, opnorm(a))


#: A Frobenius bound decides a check verdict only where it clears the
#: threshold by this factor; nearer the threshold the SVD decides.
_BOUND_MARGIN = 4.0


def _frobenius(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack."""
    return np.sqrt(np.einsum("...ij,...ij->...", a.real, a.real)
                   + np.einsum("...ij,...ij->...", a.imag, a.imag))


def inverse(a: np.ndarray) -> np.ndarray:
    """Inverse of each matrix of a stack, all NaN when one of them is
    exactly singular (numpy then inverts none)."""
    try:
        return np.linalg.inv(a)
    except np.linalg.LinAlgError:
        return np.full_like(a, np.nan)


def fails_check(a: np.ndarray, rule: str, limit: float, inv=None,
                scale=None) -> np.ndarray:
    """Verdict of a 2-norm input check on each matrix of an (..., m, m)
    stack, as a boolean array over the leading axes.

    Rule ``"hermitian"`` fails where ||A - A*||_2 > limit max(1, ||A||_2),
    the negation of :func:`is_hermitian`; rule ``"rcond"`` fails where
    :func:`rcond` is below ``limit``; rule ``"smin"`` fails where the
    smallest singular value of A is below limit max(1, ||S||_2), with S the
    matching matrix of the stack ``scale``. ``inv`` is the stack's inverse
    when the caller has it. The verdicts are the SVD rules' own. Frobenius
    norms bracket the 2-norms (||X||_F / sqrt(m) <= ||X||_2 <= ||X||_F, so
    1/(||A||_F ||A^-1||_F) <= rcond(A) <= m/(||A||_F ||A^-1||_F), and
    smin(A) = 1/||A^-1||_2) and decide every matrix whose bracket clears the
    threshold by ``_BOUND_MARGIN``; the SVD decides the rest, and every
    matrix whose norms leave the float range.
    """
    m = a.shape[-1]
    with np.errstate(all="ignore"):
        if rule == "hermitian":
            f_a, f_x = _frobenius(a), _frobenius(a - adjoint(a))
            # bounds on ||A - A*||_2 / max(1, ||A||_2)
            lo = f_x / np.sqrt(m) / np.maximum(1.0, f_a)
            hi = f_x / np.maximum(1.0, f_a / np.sqrt(m))
            bound_limit = limit
            exact = lambda s: ~is_hermitian(a[s], limit)  # noqa: E731
        elif rule in ("rcond", "smin"):
            f_x = _frobenius((1.0 / a if m == 1 else inverse(a)) if inv is None else inv)
            if rule == "rcond":
                # bounds on the 2-norm condition number 1 / rcond(A)
                f_a = _frobenius(a)
                hi = f_a * f_x
                lo = hi / m
                exact = lambda s: rcond(a[s]) < limit  # noqa: E731
            else:
                # bounds on max(1, ||S||_2) / smin(A); f_a is the scale's norm
                f_a = _frobenius(scale)
                hi = np.maximum(1.0, f_a) * f_x
                lo = np.maximum(1.0, f_a / np.sqrt(scale.shape[-1])) * f_x / np.sqrt(m)
                exact = lambda s: (  # noqa: E731
                    np.linalg.svd(a[s], compute_uv=False)[..., -1]
                    < limit * np.maximum(1.0, opnorm(scale[s])))
            bound_limit = 1.0 / limit
        else:
            raise ValueError(f"unknown check rule {rule!r}")
        bad = lo > _BOUND_MARGIN * bound_limit
        unsure = ~(bad | (hi * _BOUND_MARGIN <= bound_limit)) | ~np.isfinite(f_a * f_x)
    if unsure.any():
        bad[unsure] = exact(unsure)
    return bad


def min_eig_herm(a: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitian part of ``a``."""
    return float(np.linalg.eigvalsh(herm(a))[0])


def max_eig_herm(a: np.ndarray) -> float:
    """Largest eigenvalue of the Hermitian part of ``a``."""
    return float(np.linalg.eigvalsh(herm(a))[-1])


def sqrtm_spd(a: np.ndarray) -> np.ndarray:
    """Unique positive-definite square root of a Hermitian positive definite
    matrix, or of each matrix of a stack; the caller judges definiteness."""
    w, v = np.linalg.eigh(herm(as_complex_matrix(a)))
    return (v * np.sqrt(w)[..., None, :]) @ adjoint(v)


def invsqrtm_spd(a: np.ndarray) -> np.ndarray:
    """Inverse of :func:`sqrtm_spd`."""
    w, v = np.linalg.eigh(herm(as_complex_matrix(a)))
    return (v / np.sqrt(w)[..., None, :]) @ adjoint(v)


def rsolve(b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """B A^{-1} through factorization: solves X A = B, for one matrix or
    for each in a stack."""
    return np.linalg.solve(a.swapaxes(-1, -2), b.swapaxes(-1, -2)).swapaxes(-1, -2)


def ginibre(x: np.ndarray) -> np.ndarray:
    """Complex Ginibre matrices X[..., 0, :, :] + i X[..., 1, :, :] from
    standard normals drawn as (..., 2, m, m): each real part's draws come
    before its imaginary part's."""
    return x[..., 0, :, :] + 1j * x[..., 1, :, :]


def haar_from_ginibre(g: np.ndarray) -> np.ndarray:
    """Haar unitaries Q diag(r_ii / |r_ii|) from the QR of Ginibre matrices,
    of one matrix or of each in a stack (factored member by member, so bit
    for bit as one at a time)."""
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def haar_unitary(m: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed m x m unitary via QR of a Ginibre matrix."""
    return haar_from_ginibre(ginibre(rng.normal(size=(2, m, m))))
