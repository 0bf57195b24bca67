"""Discrete Hamiltonian systems: coefficient data, validation, and transforms.

A system is the coefficient triple {A(k), B(k), rho(k)} of the first-order
2m x 2m difference eigenvalue problem

    rho(k) psi2(k+1)   = (z A + B)_{row 1}(k) Psi(k),
    rho(k-1) psi1(k-1) = (z A + B)_{row 2}(k) Psi(k),

with A(k) >= 0 Hermitian, B(k) Hermitian, rho(k) > 0 Hermitian, stored over a
finite window of sites and extended beyond it by a declared policy.

Coefficient file schema (JSON)
------------------------------
A full system document has the fields::

    {
      "m": 2,
      "k_min": 0,
      "extension": "constant-edge",          # or "periodic" | "error"
      "A":   [ per-site flat row-major list of [re, im] pairs (4*m*m each) ],
      "B":   [ ... same layout as A ... ],
      "rho": [ per-site flat row-major list of [re, im] pairs (m*m each) ]
    }

Special-case shorthand documents replace A/B/rho with one block that expands
through the constructors::

    { "m": 1, "k_min": 0, "extension": "constant-edge",
      "jacobi": {"p": [ per-site m*m pairs ], "q": [ ... ]} }

    { "m": 1, "k_min": 0, "extension": "constant-edge",
      "dirac": {"b": [ per-site m*m pairs ]} }

Scalars may be written as plain numbers instead of [re, im] pairs; the writer
always emits pairs.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from . import _linalg as la
from .errors import DomainError, HamweylError, InputError

__all__ = [
    "TOL_SYM",
    "TOL_PSD",
    "RCOND_MIN",
    "TOL_DEF",
    "DEFAULT_Z_SAMPLE",
    "EXTENSIONS",
    "symplectic_unit",
    "J_rho",
    "I_rho",
    "HamiltonianSystem",
    "JacobiCoefficients",
    "BoundaryData",
    "Violation",
    "ValidationReport",
    "DefinitenessReport",
    "NormalFormRecord",
    "validate_pointwise",
    "check_wellposed",
    "check_definiteness",
    "jacobi_system",
    "dirac_system",
    "make_boundary_data",
    "dirichlet",
    "neumann",
    "weighted_boundary",
    "normal_form",
    "to_unit_rho",
    "system_to_dict",
    "system_from_dict",
    "save_coefficients",
    "load_coefficients",
]

# Double-precision defaults with headroom; tol_sym is relative to the matrix
# norm, tol_psd and tol_def are absolute on eigenvalues of unit-scale data.
TOL_SYM = 1e-12
TOL_PSD = 1e-10
RCOND_MIN = 1e-12
TOL_DEF = 1e-10
_SIGN_TOL = 1e-12  # sign-class bound on the eigenvalues of Im(gamma1 gamma2*)

#: Multiple of 2m eps ||G|| below which the smallest eigenvalue of a Gram
#: matrix G is rounding, not evidence of definiteness.
_DEF_ROUNDING = 10.0

#: Definiteness is required for every z; a pass on this sample is evidence,
#: not proof (no finite sample can certify an all-z statement).
DEFAULT_Z_SAMPLE = (1j, 1 + 1j, -2 + 0.5j)

EXTENSIONS = ("constant-edge", "periodic", "error")


# ---------------------------------------------------------------------------
# structural matrices
# ---------------------------------------------------------------------------

def symplectic_unit(m: int) -> np.ndarray:
    """The 2m x 2m matrix J = ((0, I), (-I, 0)); J^2 = -I."""
    return J_rho(np.eye(m))


def J_rho(rho_k: np.ndarray) -> np.ndarray:
    """Weighted symplectic matrix ((0, rho), (-rho, 0)) for one site, or for
    each weight of a stack."""
    m = rho_k.shape[-1]
    out = np.zeros(rho_k.shape[:-2] + (2 * m, 2 * m), dtype=complex)
    out[..., :m, m:] = rho_k
    out[..., m:, :m] = -rho_k
    return out


def _block_diag(top: np.ndarray, bot: np.ndarray) -> np.ndarray:
    """diag(top, bot) of two m x m matrices, or of each pair of two stacks."""
    m = top.shape[-1]
    out = np.zeros(top.shape[:-2] + (2 * m, 2 * m), dtype=complex)
    out[..., :m, :m] = top
    out[..., m:, m:] = bot
    return out


def I_rho(rho_k: np.ndarray) -> np.ndarray:
    """Block weight diag(rho, rho) for one site, or for each weight of a
    stack."""
    return _block_diag(rho_k, rho_k)


# ---------------------------------------------------------------------------
# coefficient maps
# ---------------------------------------------------------------------------

def _coerce_site_values(values, window, m, name):
    """Normalize a per-site coefficient map to an (n, m, m) array.

    Accepts a callable k -> matrix, a dict {k: matrix}, a single matrix or
    scalar (constant in k), or an (n, m, m) array over the window.
    """
    k_min, k_max = window
    n = k_max - k_min + 1
    sites = range(k_min, k_max + 1)

    def one(v):
        a = np.asarray(v, dtype=complex)
        if a.ndim == 0:
            a = a.reshape(1, 1)
        if a.shape != (m, m):
            raise InputError(f"{name}: expected ({m},{m}) values, got {a.shape}")
        return a

    if callable(values):
        return np.stack([one(values(k)) for k in sites])
    if isinstance(values, dict):
        missing = [k for k in sites if k not in values]
        if missing:
            raise InputError(f"{name}: missing sites {missing[:5]}")
        return np.stack([one(values[k]) for k in sites])
    arr = np.asarray(values, dtype=complex)
    if arr.ndim <= 2:
        return np.broadcast_to(one(arr), (n, m, m)).copy()
    if arr.shape == (n, m, m):
        return arr.astype(complex)
    raise InputError(f"{name}: expected shape ({n},{m},{m}), got {arr.shape}")


def _check_finite(*stacks) -> None:
    if not all(la.all_finite(x) for x in stacks):
        raise InputError("coefficients contain non-finite entries")


def _check_rho(rho: np.ndarray, sites) -> None:
    """Raise at the first site whose rho is not positive definite (the least
    eigenvalue of its Hermitian part is not positive), one stacked test."""
    bad = np.flatnonzero(np.linalg.eigvalsh(la.herm(rho))[:, 0] <= 0.0)
    if bad.size:
        raise InputError(f"rho at site {sites[bad[0]]} is not positive definite")


class JacobiCoefficients:
    """Derived three-term coefficients of a Sturm-Liouville difference system.

    Stores p and q over the owning system's window; the off-diagonal and
    diagonal terms are a(k) = -p(k+1) and b(k) = p(k+1) + p(k) + q(k), with
    sites resolved by ``indices``, the owning system's
    :meth:`HamiltonianSystem._indices`, so beyond the window by its
    extension policy.
    """

    def __init__(self, p: np.ndarray, q: np.ndarray, indices):
        self.p = p
        self.q = q
        self._indices = indices

    def p_at(self, k) -> np.ndarray:
        return self.p[self._indices(k)]

    def q_at(self, k) -> np.ndarray:
        return self.q[self._indices(k)]

    def a(self, k: int) -> np.ndarray:
        """Off-diagonal coefficient a(k) = -p(k+1)."""
        return -self.p_at(k + 1)

    def b(self, k: int) -> np.ndarray:
        """Diagonal coefficient b(k) = p(k+1) + p(k) + q(k)."""
        return self.p_at(k + 1) + self.p_at(k) + self.q_at(k)


# ---------------------------------------------------------------------------
# the system
# ---------------------------------------------------------------------------

class HamiltonianSystem:
    """Coefficient triple {A(k), B(k), rho(k)} over a finite site window.

    Immutable after construction; all accessors are pure, so instances are
    safe to share across threads.

    Parameters
    ----------
    m : block dimension (>= 1).
    window : inclusive site interval (k_min, k_max).
    A, B : per-site 2m x 2m coefficients (callable, dict, constant, or array).
    rho : per-site m x m weight (same input forms).
    extension : behaviour outside the window:
        "constant-edge" clamps to the nearest stored site, "periodic" wraps,
        "error" raises :class:`DomainError`.
    jacobi : the (n, m, m) stacks (p, q) of a Jacobi-class system over the
        window, or None.
    """

    def __init__(self, m, window, A, B, rho, extension="constant-edge", jacobi=None):
        m = int(m)
        if m < 1:
            raise InputError("block dimension m must be >= 1")
        k_min, k_max = int(window[0]), int(window[1])
        if k_max < k_min:
            raise InputError("window is empty")
        if extension not in EXTENSIONS:
            raise InputError(f"extension must be one of {EXTENSIONS}")
        self.m = m
        self.k_min = k_min
        self.k_max = k_max
        self.extension = extension
        self._A = _coerce_site_values(A, (k_min, k_max), 2 * m, "A")
        self._B = _coerce_site_values(B, (k_min, k_max), 2 * m, "B")
        self._rho = _coerce_site_values(rho, (k_min, k_max), m, "rho")
        _check_finite(self._A, self._B, self._rho)
        for arr in (self._A, self._B, self._rho, *(jacobi or ())):
            arr.setflags(write=False)
        self._jacobi = jacobi

    @property
    def jacobi(self) -> JacobiCoefficients | None:
        # made on each read, so that the coefficients, which resolve sites
        # through this system, form no reference cycle with it
        return None if self._jacobi is None else JacobiCoefficients(*self._jacobi, self._indices)

    # -- indexing ----------------------------------------------------------

    @property
    def window(self) -> tuple[int, int]:
        return (self.k_min, self.k_max)

    @property
    def n_sites(self) -> int:
        return self.k_max - self.k_min + 1

    @property
    def sites(self) -> range:
        return range(self.k_min, self.k_max + 1)

    def _indices(self, sites):
        """Stored position of a site, or array of the stored positions of a
        run (or any sequence) of sites in the given order, under the
        extension policy: "constant-edge" clamps to the nearest stored site,
        "periodic" wraps, and "error" raises :class:`DomainError` for the
        first site outside the window."""
        n = self.n_sites
        scalar = False
        if type(sites) is range:  # the stepping hot path first
            i = np.arange(sites.start - self.k_min, sites.stop - self.k_min, sites.step)
            if not sites or (0 <= i[0] < n and 0 <= i[-1] < n):
                return i
        elif isinstance(sites, (int, np.integer)):
            scalar = True
            i = sites - self.k_min
            if 0 <= i < n:
                return i
        else:
            i = np.asarray(sites, dtype=int) - self.k_min
        if self.extension == "constant-edge":  # np.clip is slower on short arrays
            return min(max(i, 0), n - 1) if scalar else np.minimum(np.maximum(i, 0), n - 1)
        if self.extension == "periodic":
            return i % n
        outside = [sites] if scalar else np.asarray(sites)[(i < 0) | (i >= n)]
        if len(outside):
            raise DomainError(f"site {outside[0]} outside window "
                              f"[{self.k_min},{self.k_max}] under 'error' extension")
        return i

    def in_reach(self, k: int) -> bool:
        """True when site k is resolvable under the extension policy."""
        return self.extension != "error" or self.k_min <= k <= self.k_max

    # -- coefficient access --------------------------------------------------

    # each accessor takes a site, or a run (or sequence) of sites for the
    # stack of values at each of them

    def A(self, k) -> np.ndarray:
        return self._A[self._indices(k)]

    def B(self, k) -> np.ndarray:
        return self._B[self._indices(k)]

    def rho(self, k) -> np.ndarray:
        return self._rho[self._indices(k)]

    def pencil(self, z: complex, k) -> np.ndarray:
        """z A(k) + B(k)."""
        return z * self.A(k) + self.B(k)

    def pencil_blocks(self, z: complex, k):
        """The four m x m blocks (P11, P12, P21, P22) of z A(k) + B(k)."""
        p = self.pencil(z, k)
        m = self.m
        return p[..., :m, :m], p[..., :m, m:], p[..., m:, :m], p[..., m:, m:]

    @cached_property
    def _offdiag_static(self) -> dict:
        """Per off-diagonal pencil block ("(2,1)", "(1,2)"): whether that
        block of A vanishes at every stored site, so the pencil block is
        B's for every z, and if so, per stored site, whether B's block has
        2-norm rcond below ``RCOND_MIN`` (None otherwise)."""
        top, bot = slice(None, self.m), slice(self.m, None)
        out = {}
        for which, r, c in (("(2,1)", bot, top), ("(1,2)", top, bot)):
            static = not np.any(self._A[:, r, c])
            out[which] = static, (la.fails_check(self._B[:, r, c], "rcond", RCOND_MIN)
                                  if static else None)
        return out

    def j_rho(self, k) -> np.ndarray:
        return J_rho(self.rho(k))

    def i_rho(self, k) -> np.ndarray:
        return I_rho(self.rho(k))

    def __repr__(self) -> str:
        return (f"HamiltonianSystem(m={self.m}, window=({self.k_min},{self.k_max}), "
                f"extension={self.extension!r})")


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    site: int
    kind: str
    magnitude: float
    message: str


@dataclass
class ValidationReport:
    check: str
    violations: list[Violation] = field(default_factory=list)
    n_sites: int = 0

    @property
    def passed(self) -> bool:
        return not self.violations


def _interval_sites(sys: HamiltonianSystem, interval) -> range:
    if interval is None:
        return sys.sites
    c, d = int(interval[0]), int(interval[1])
    lo, hi = min(c, d), max(c, d)
    for k in (lo, hi):
        if not sys.in_reach(k):
            raise DomainError(f"interval endpoint {k} outside extension-policy range")
    return range(lo, hi + 1)


def validate_pointwise(sys: HamiltonianSystem, interval=None) -> ValidationReport:
    """Check Hermiticity of A and B, A >= 0, and rho > 0 site by site.

    An empty violation list means every stored hypothesis holds to tolerance
    (tol_sym relative for Hermiticity, tol_psd on eigenvalues). The verdicts
    come from one stacked check per coefficient; defects and eigenvalues are
    reported at the failing sites.
    """
    sites = _interval_sites(sys, interval)
    names = ("A", "B", "rho")
    stacks = [sys.A(sites), sys.B(sites), sys.rho(sites)]
    min_a, min_r = (np.linalg.eigvalsh(la.herm(x))[:, 0] for x in stacks[::2])
    bad = np.column_stack([la.fails_check(x, "hermitian", TOL_SYM) for x in stacks]
                          + [min_a < -TOL_PSD, min_r <= 0.0])

    def violation(i, check):
        k = sites[i]
        if check < 3:
            x = stacks[check][i]
            dev = la.opnorm(x - la.adjoint(x))
            return Violation(k, f"{names[check]}_not_hermitian", dev,
                             f"{names[check]} not Hermitian (defect {dev:.2e})")
        if check == 3:
            a = float(min_a[i])
            return Violation(k, "A_not_psd", -a, f"A has eigenvalue {a:.2e} < 0")
        r = float(min_r[i])
        return Violation(k, "rho_not_pd", -r, f"rho has eigenvalue {r:.2e} <= 0")

    # the failing sites in order, and at each its failing checks in order
    return ValidationReport("pointwise", [violation(i, c) for i, c in np.argwhere(bad)],
                            len(sites))


def check_wellposed(sys: HamiltonianSystem, z: complex,
                    interval=None) -> ValidationReport:
    """Condition report for the off-diagonal pencils at one z.

    Invertibility of z A12 + B12 for all z is equivalent to that of
    z A21 + B21, so both are checked; a block fails when its smallest
    singular value is below ``RCOND_MIN`` max(1, ||z A + B||_2). That
    catches both ill conditioning (it implies rcond below ``RCOND_MIN``, as
    the block's norm is at most the pencil's) and uniformly tiny blocks,
    whose rcond stays near 1.
    """
    sites = _interval_sites(sys, interval)
    m = sys.m
    p = sys.pencil(z, sites)
    blocks = (p[:, :m, m:], p[:, m:, :m])
    bad = np.column_stack([la.fails_check(x, "smin", RCOND_MIN, scale=p)
                           for x in blocks])

    def violation(i, check):
        x, which = blocks[check][i], ("12", "21")[check]
        rc = la.rcond(x)
        return Violation(sites[i], f"pencil_{which}_singular", rc,
                         f"({which[0]},{which[1]}) pencil rcond {rc:.2e}, "
                         f"smin {la.smallest_singular_value(x):.2e}")

    return ValidationReport("wellposed", [violation(i, c) for i, c in np.argwhere(bad)],
                            len(sites))


@dataclass
class DefinitenessReport:
    gram: np.ndarray
    verdict: str           # "definite" | "indefinite" | "unresolved"
    min_eig: float
    interval: tuple[int, int]
    z: complex

    @property
    def definite(self) -> bool:
        return self.verdict == "definite"


def check_definiteness(sys: HamiltonianSystem, z: complex, interval) -> DefinitenessReport:
    """Gram-matrix test of the summed quadratic form over [c, d].

    Builds the full 2m x 2m solution basis started at c and returns
    G = sum_{k in [c,d]} Psi(k)* A(k) Psi(k). Positivity of G as a quadratic
    form on initial data is equivalent to positivity of the sum for every
    nontrivial solution; the verdict is "definite" iff the smallest
    eigenvalue exceeds both ``TOL_DEF`` and its own rounding,
    ``_DEF_ROUNDING`` 2m eps times the largest. On long windows G is
    extremely ill conditioned (solutions grow), yet the smallest eigenvalue
    stays of the order of the one-site energy; one within the rounding of
    G's entries, whatever its sign, is noise, and the verdict is
    "unresolved". Any other is "indefinite". A G that leaves the float range
    raises :class:`HamweylError`.
    """
    from . import propagate  # local import; propagate depends on this module

    c, d = int(interval[0]), int(interval[1])
    lo, hi = min(c, d), max(c, d)
    with np.errstate(over="ignore", invalid="ignore"):  # G is checked below
        basis = propagate.hat_trajectory(
            sys, z, lo, np.eye(2 * sys.m, dtype=complex), (lo, hi))
        g = propagate.a_form_sum(sys, basis, range(lo, hi + 1))
    if not np.isfinite(g).all():
        raise HamweylError(f"Gram matrix over [{lo}, {hi}] at z={z} is not finite: "
                           "the solutions leave the float range")
    eigs = np.linalg.eigvalsh(la.herm(g))
    min_eig = float(eigs[0])
    floor = _DEF_ROUNDING * 2 * sys.m * np.finfo(float).eps * eigs[-1]
    verdict = ("definite" if min_eig > max(TOL_DEF, floor)
               else "unresolved" if abs(min_eig) <= floor else "indefinite")
    return DefinitenessReport(gram=g, verdict=verdict, min_eig=min_eig,
                              interval=(lo, hi), z=z)


# ---------------------------------------------------------------------------
# special-case constructors
# ---------------------------------------------------------------------------

def _infer_m(values, k: int) -> int:
    """Block dimension of a per-site coefficient map, read at site k."""
    probe = values(k) if callable(values) else (
        values[k] if isinstance(values, dict) else values)
    arr = np.asarray(probe if not isinstance(probe, (int, float, complex))
                     else [[probe]])
    return 1 if arr.ndim < 2 else arr.shape[-1]


def jacobi_system(p, q, window, m=None, extension="constant-edge") -> HamiltonianSystem:
    """Sturm-Liouville (Jacobi) system: rho = I, A = diag(I, 0),
    B = ((-q, I), (I, p^{-1})).

    p(k) must be Hermitian invertible, q(k) Hermitian. The derived three-term
    coefficients a = -p(k+1), b = p(k+1) + p(k) + q(k) are stored for use by
    the Jacobi difference expression.
    """
    if m is None:
        m = _infer_m(p, window[0])
    p_vals = _coerce_site_values(p, window, m, "p")
    q_vals = _coerce_site_values(q, window, m, "q")
    _check_finite(p_vals, q_vals)
    p_inv = la.inverse(p_vals)
    # the first failing site raises, with its checks in this order
    bad = np.stack([la.fails_check(p_vals, "hermitian", TOL_SYM),
                    la.fails_check(p_vals, "rcond", RCOND_MIN, inv=p_inv),
                    la.fails_check(q_vals, "hermitian", TOL_SYM)], axis=1)
    if np.any(bad):
        i, check = np.argwhere(bad)[0]
        name, fault = (("p", "not Hermitian"), ("p", "singular"),
                       ("q", "not Hermitian"))[check]
        raise InputError(f"{name} at site {window[0] + i} is {fault}")
    eye = np.eye(m, dtype=complex)
    B = _block_diag(-q_vals, p_inv)
    B[:, :m, m:] = B[:, m:, :m] = eye
    return HamiltonianSystem(m, window, _block_diag(eye, 0 * eye), B, eye, extension,
                             jacobi=(p_vals.copy(), q_vals.copy()))


def dirac_system(b, window, m=None, extension="constant-edge") -> HamiltonianSystem:
    """Supersymmetric Dirac-type system: rho = I, A = I_{2m},
    B = ((0, b), (b*, 0)) with b(k) invertible."""
    if m is None:
        m = _infer_m(b, window[0])
    b_vals = _coerce_site_values(b, window, m, "b")
    _check_finite(b_vals)
    singular = np.flatnonzero(la.fails_check(b_vals, "rcond", RCOND_MIN))
    if singular.size:
        raise InputError(f"b at site {window[0] + singular[0]} is singular")
    B = np.zeros((len(b_vals), 2 * m, 2 * m), dtype=complex)
    B[:, :m, m:] = b_vals
    B[:, m:, :m] = la.adjoint(b_vals)
    return HamiltonianSystem(m, window, np.eye(2 * m), B, np.eye(m), extension)


# ---------------------------------------------------------------------------
# boundary data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryData:
    """Normalized separated boundary data gamma = (gamma1 gamma2).

    Instances produced by :func:`make_boundary_data` satisfy rank(gamma) = m,
    gamma gamma* = I, and Im(gamma1 gamma2*) semidefinite of the recorded
    class ("zero" meaning self-adjoint data).
    """

    gamma1: np.ndarray
    gamma2: np.ndarray
    sign_class: str

    @property
    def m(self) -> int:
        return self.gamma1.shape[0]

    @property
    def gamma(self) -> np.ndarray:
        """The m x 2m matrix (gamma1 gamma2)."""
        return np.hstack([self.gamma1, self.gamma2])

    def __post_init__(self):
        self.gamma1.setflags(write=False)
        self.gamma2.setflags(write=False)


def make_boundary_data(gamma_raw) -> BoundaryData:
    """Normalize an m x 2m matrix to gamma gamma* = I and classify it.

    The normalization (gamma gamma*)^{-1/2} gamma preserves the nullspace
    conditions that matter downstream. Inputs with numerically deficient rank
    or an indefinite Im(gamma1 gamma2*) are rejected.
    """
    g = la.as_complex_matrix(gamma_raw)
    if g.ndim != 2 or g.shape[1] != 2 * g.shape[0]:
        raise InputError(f"boundary data must be m x 2m, got {g.shape}")
    m = g.shape[0]
    s = np.linalg.svd(g, compute_uv=False)
    if s[0] == 0.0 or s[-1] <= 1e-10 * s[0]:
        raise InputError("boundary data is rank deficient "
                         f"(smin={s[-1]:.2e}, smax={s[0]:.2e})")
    gg = g @ g.conj().T
    delta = la.invsqrtm_spd(gg) @ g
    d1, d2 = delta[:, :m], delta[:, m:]
    im = la.imag_part(d1 @ d2.conj().T)
    eigs = np.linalg.eigvalsh(im)
    scale = max(1.0, float(np.max(np.abs(eigs))) if eigs.size else 0.0)
    if np.max(np.abs(eigs)) <= _SIGN_TOL:
        sign_class = "zero"
    elif eigs[0] >= -_SIGN_TOL * scale:
        sign_class = "nonnegative"
    elif eigs[-1] <= _SIGN_TOL * scale:
        sign_class = "nonpositive"
    else:
        raise InputError(
            "Im(gamma1 gamma2*) is indefinite; separated boundary data must "
            f"have a semidefinite imaginary part (eigenvalues {eigs})")
    return BoundaryData(gamma1=np.ascontiguousarray(d1),
                        gamma2=np.ascontiguousarray(d2),
                        sign_class=sign_class)


def dirichlet(m: int) -> BoundaryData:
    """The preset (I_m  0)."""
    return BoundaryData(np.eye(m, dtype=complex), np.zeros((m, m), dtype=complex),
                        "zero")


def neumann(m: int) -> BoundaryData:
    """The preset (0  I_m)."""
    return BoundaryData(np.zeros((m, m), dtype=complex), np.eye(m, dtype=complex),
                        "zero")


def weighted_boundary(gamma: BoundaryData, sys: HamiltonianSystem, k) -> np.ndarray:
    """Weighted form gamma diag(rho(k)^{1/2}, rho(k)^{1/2}) as an m x 2m
    array, or as an (n, m, 2m) stack for a sequence of n sites.

    rho^{1/2} is the unique positive-definite square root.
    """
    r = la.sqrtm_spd(sys.rho(k))
    return np.concatenate([gamma.gamma1 @ r, gamma.gamma2 @ r], axis=-1)


# ---------------------------------------------------------------------------
# normal forms
# ---------------------------------------------------------------------------

@dataclass
class NormalFormRecord:
    """Per-site unitary diagonalizers Q(k) and sign fixes for a normal form.

    Q is stored over [k_min - 1, k_max + 1] and the diagonal +-1 matrices
    over [k_min, k_max + 1]. ``transform_state``/``untransform_state`` map
    plain 2m x r solution values between the original and normal-form
    systems.
    """

    k_min: int
    Q: np.ndarray          # (n+1, m, m), first entry is Q(k_min - 1)
    eps_tilde: np.ndarray  # (n+1, m) diagonal entries, first is at k_min

    def Q_at(self, k: int) -> np.ndarray:
        i = k - (self.k_min - 1)
        if not 0 <= i < len(self.Q):
            raise DomainError(f"Q({k}) not recorded")
        return self.Q[i]

    def eps_at(self, k: int) -> np.ndarray:
        i = k - self.k_min
        if not 0 <= i < len(self.eps_tilde):
            raise DomainError(f"eps({k}) not recorded")
        return np.diag(self.eps_tilde[i]).astype(complex)

    def _factor(self, k: int) -> np.ndarray:
        """diag(eps(k) Q(k), eps(k) Q(k-1)) acting on plain solution values."""
        e = self.eps_at(k)
        return _block_diag(e @ self.Q_at(k), e @ self.Q_at(k - 1))

    def transform_state(self, k: int, psi: np.ndarray) -> np.ndarray:
        """Map a plain solution value of the original system to the normal form."""
        return self._factor(k) @ psi

    def untransform_state(self, k: int, v: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`transform_state`."""
        return self._factor(k).conj().T @ v


def normal_form(sys: HamiltonianSystem):
    """Unitarily equivalent system with diagonal positive weight.

    Q(k) diagonalizes rho(k) (descending eigenvalue order; already-diagonal
    positive weights pass through unchanged), and diagonal +-1 matrices are
    chosen greedily from k_min (seeded with the identity) so the transformed
    weight d(k) is positive. Requires rho(k) Hermitian nonsingular only.

    Returns the transformed system and a :class:`NormalFormRecord`.
    """
    m, n = sys.m, sys.n_sites
    sites = range(sys.k_min - 1, sys.k_max + 2)
    r = sys.rho(sites)
    w, v = np.linalg.eigh(la.herm(r))
    diagonal = la.opnorm(r - r * np.eye(m)) <= 1e-13 * np.maximum(1.0, la.opnorm(r))
    # Q = V* with the eigenvalues descending, or I where rho is diagonal
    q = np.where(diagonal[:, None, None], np.eye(m), la.adjoint(v[..., ::-1]))
    d = np.where(diagonal[:, None], np.real(np.diagonal(r, axis1=1, axis2=2)),
                 w[..., ::-1])
    # the first failing site raises, Hermiticity before singularity
    scale = np.maximum(1.0, np.max(np.abs(d), axis=1, keepdims=True))
    bad = np.column_stack([la.fails_check(r, "hermitian", 1e-10),
                           np.any(np.abs(d) <= 1e-14 * scale, axis=1)])
    if bad.any():
        i, check = np.argwhere(bad)[0]
        raise InputError(f"rho at site {sites[i]} is {('not Hermitian', 'singular')[check]}")
    d_tilde = d[1:n + 1]                  # diagonal of Q rho Q^{-1} over the window

    # greedy sign fix: eps(k_min) = I, then eps(k+1) = eps(k) * sign(d_tilde(k))
    eps = np.cumprod(np.vstack([np.ones(m), np.sign(d_tilde)]), axis=0)
    # diag(eps(k) Q(k), eps(k) Q(k-1))
    u = _block_diag(eps[:-1, :, None] * q[1:n + 1], eps[:-1, :, None] * q[:n])
    rho_new = (eps[:-1] * d_tilde * eps[1:])[:, :, None] * np.eye(m)
    out = HamiltonianSystem(m, sys.window, u @ sys._A @ la.adjoint(u),
                            u @ sys._B @ la.adjoint(u), rho_new, sys.extension)
    return out, NormalFormRecord(k_min=sys.k_min, Q=q, eps_tilde=eps)


def to_unit_rho(sys: HamiltonianSystem, alpha: BoundaryData, beta: BoundaryData):
    """Congruence transform onto unit weight: A -> D A D and B -> D B D with
    D = diag(rho(k), rho(k-1))^{-1/2}, rho replaced by the identity.

    The boundary pair acts without weights on the transformed system and the
    M-function is invariant, so (alpha, beta) is returned unchanged for use
    with the new system. The Jacobi coefficients carry over when rho is
    already the identity.
    """
    m = sys.m
    sites = range(sys.k_min - 1, sys.k_max + 1)
    r = sys.rho(sites)
    _check_rho(r, sites)
    s = la.invsqrtm_spd(r)
    d = _block_diag(s[1:], s[:-1])
    unit = np.all(la.opnorm(r[1:] - np.eye(m)) <= 1e-13)
    out = HamiltonianSystem(m, sys.window, d @ sys._A @ d, d @ sys._B @ d,
                            np.eye(m, dtype=complex), sys.extension,
                            jacobi=sys._jacobi if unit else None)
    return out, (alpha, beta)


# ---------------------------------------------------------------------------
# coefficient files
# ---------------------------------------------------------------------------

_SEQUENCE = (list, tuple, np.ndarray)


def _is_number(x) -> bool:
    """A real number; JSON true and false are not."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _pairs_to_matrix(pairs, m: int, name: str) -> np.ndarray:
    if not isinstance(pairs, _SEQUENCE):
        raise InputError(f"{name}: each site must be a list of entries")
    vals = []
    for entry in pairs:
        if _is_number(entry):
            vals.append(complex(entry))
        else:
            if not (isinstance(entry, _SEQUENCE) and len(entry) == 2
                    and all(_is_number(x) for x in entry)):
                raise InputError(f"{name}: entries must be [re, im] pairs")
            vals.append(complex(entry[0], entry[1]))
    if len(vals) != m * m:
        raise InputError(f"{name}: expected {m * m} entries, got {len(vals)}")
    return np.array(vals, dtype=complex).reshape(m, m)


def _pairs_to_stack(sites, m: int, name: str, bools: bool) -> np.ndarray:
    """One coefficient block, a list of per-site entry lists, as an
    (n, m, m) array. A block of numeric [re, im] pairs parses as one array;
    any other block (plain-number entries, malformed entries, true or false
    anywhere) is parsed site by site, which raises the per-entry error
    messages. ``bools`` is False only for a block known to hold no true or
    false."""
    if not isinstance(sites, _SEQUENCE):
        raise InputError(f"{name}: expected a list of per-site entries")
    try:
        arr = np.asarray(sites)
    except ValueError:  # ragged nesting, a malformed block
        arr = None
    if arr is not None and arr.dtype.kind in "iuf" and arr.shape[1:] == (m * m, 2):
        # numpy reads true and false as numbers; the per-site parse rejects them
        if not bools or bool not in set(
                map(type, chain.from_iterable(chain.from_iterable(sites)))):
            return np.ascontiguousarray(arr, dtype=float).view(complex).reshape(-1, m, m)
    try:
        return np.array([_pairs_to_matrix(site, m, name) for site in sites],
                        dtype=complex).reshape(-1, m, m)
    except OverflowError as e:  # an integer beyond the float range
        raise InputError(f"{name}: entry out of the float range") from e


def system_to_dict(sys: HamiltonianSystem) -> dict:
    """Serializable coefficient document.

    Jacobi-class systems are written in shorthand form so the class (and
    with it the dense-oracle route) survives a round trip; everything else
    uses the full schema.
    """
    head = {"m": sys.m, "k_min": sys.k_min, "extension": sys.extension}
    jacobi = sys._jacobi is not None and len(sys._jacobi[0]) == sys.n_sites
    stacks = (dict(zip("pq", sys._jacobi)) if jacobi
              else {"A": sys._A, "B": sys._B, "rho": sys._rho})
    # per site, the entries in row-major order as [re, im] pairs
    pairs = {name: np.ascontiguousarray(x).view(float).reshape(len(x), -1, 2).tolist()
             for name, x in stacks.items()}
    if jacobi:
        head["jacobi"] = pairs
    else:
        head.update(pairs)
    return head


def _field(doc, key: str, what: str):
    """``doc[key]`` of a JSON object, with :class:`InputError` for anything
    else."""
    if not isinstance(doc, dict):
        raise InputError(f"{what} must be a JSON object")
    if key not in doc:
        raise InputError(f"{what} missing field '{key}'")
    return doc[key]


def system_from_dict(doc: dict) -> HamiltonianSystem:
    """Build a system from a coefficient document (full or shorthand form).

    Every malformed document raises :class:`InputError`."""
    return _system_from_doc(doc, bools=True)


def _system_from_doc(doc, bools: bool) -> HamiltonianSystem:
    """:func:`system_from_dict`; ``bools`` is False for a document known to
    hold no true or false, whose blocks then need no scan for them."""
    what = "coefficient document"
    m, k_min = _field(doc, "m", what), _field(doc, "k_min", what)
    if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool)
               for v in (m, k_min)):
        raise InputError(f"{what}: m and k_min must be integers, got {m!r} and {k_min!r}")
    if m < 1:
        raise InputError("block dimension m must be >= 1")
    extension = doc.get("extension", "constant-edge")

    if "jacobi" in doc:
        block = doc["jacobi"]
        p = _pairs_to_stack(_field(block, "p", "jacobi block"), m, "p", bools)
        q = _pairs_to_stack(_field(block, "q", "jacobi block"), m, "q", bools)
        if len(p) != len(q) or not len(p):
            raise InputError("jacobi block: p and q must cover the same "
                             "nonempty site range")
        window = (k_min, k_min + len(p) - 1)
        return jacobi_system(p, q, window, m=m, extension=extension)
    if "dirac" in doc:
        b = _pairs_to_stack(_field(doc["dirac"], "b", "dirac block"), m, "b", bools)
        if not len(b):
            raise InputError("dirac block: b must cover a nonempty site range")
        window = (k_min, k_min + len(b) - 1)
        return dirac_system(b, window, m=m, extension=extension)

    A = _pairs_to_stack(_field(doc, "A", what), 2 * m, "A", bools)
    B = _pairs_to_stack(_field(doc, "B", what), 2 * m, "B", bools)
    rho = _pairs_to_stack(_field(doc, "rho", what), m, "rho", bools)
    if not (len(A) == len(B) == len(rho)) or not len(A):
        raise InputError("A, B, rho must cover the same nonempty site range")
    out = HamiltonianSystem(m, (k_min, k_min + len(A) - 1), A, B, rho, extension)
    _check_rho(out._rho, out.sites)
    return out


def save_coefficients(sys: HamiltonianSystem, path) -> None:
    with open(path, "w") as fh:
        json.dump(system_to_dict(sys), fh, indent=1)


def load_coefficients(path) -> HamiltonianSystem:
    with open(path) as fh:
        try:
            text = fh.read()
            doc = json.loads(text)
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            raise InputError(f"malformed coefficient file: {e}") from e
    # true and false decode only from these words, so a text without them
    # holds no booleans to scan for
    return _system_from_doc(doc, bools="true" in text or "false" in text)
