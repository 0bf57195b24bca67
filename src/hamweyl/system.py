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
    j = np.zeros((2 * m, 2 * m), dtype=complex)
    j[:m, m:] = np.eye(m)
    j[m:, :m] = -np.eye(m)
    return j


def J_rho(rho_k: np.ndarray) -> np.ndarray:
    """Weighted symplectic matrix ((0, rho), (-rho, 0)) for one site, or for
    each weight of a stack."""
    m = rho_k.shape[-1]
    out = np.zeros(rho_k.shape[:-2] + (2 * m, 2 * m), dtype=complex)
    out[..., :m, m:] = rho_k
    out[..., m:, :m] = -rho_k
    return out


def I_rho(rho_k: np.ndarray) -> np.ndarray:
    """Block weight diag(rho, rho) for one site."""
    m = rho_k.shape[0]
    out = np.zeros((2 * m, 2 * m), dtype=complex)
    out[:m, :m] = rho_k
    out[m:, m:] = rho_k
    return out


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
        return np.stack([one(arr)] * n)
    if arr.shape == (n, m, m):
        return arr.astype(complex)
    raise InputError(f"{name}: expected shape ({n},{m},{m}), got {arr.shape}")


def _check_finite(*stacks) -> None:
    if not all(la.all_finite(x) for x in stacks):
        raise InputError("coefficients contain non-finite entries")


def _policy_index(k: int, k_min: int, n: int, extension: str) -> int:
    """Stored position of site k in an n-site window starting at k_min.

    "constant-edge" clamps to the nearest stored site, "periodic" wraps,
    "error" raises :class:`DomainError` outside the window.
    """
    i = k - k_min
    if 0 <= i < n:
        return i
    if extension == "constant-edge":
        return min(max(i, 0), n - 1)
    if extension == "periodic":
        return i % n
    raise DomainError(f"site {k} outside window [{k_min},{k_min + n - 1}] "
                      "under 'error' extension")


class JacobiCoefficients:
    """Derived three-term coefficients of a Sturm-Liouville difference system.

    Stores p and q over the window; the off-diagonal and diagonal terms are
    a(k) = -p(k+1) and b(k) = p(k+1) + p(k) + q(k), with p resolved beyond
    the window by the owning system's extension policy.
    """

    def __init__(self, p: np.ndarray, q: np.ndarray, k_min: int, extension: str):
        self.p = p
        self.q = q
        self.k_min = k_min
        self.extension = extension
        self.p.setflags(write=False)
        self.q.setflags(write=False)

    @property
    def k_max(self) -> int:
        return self.k_min + len(self.p) - 1

    def p_at(self, k: int) -> np.ndarray:
        return self.p[_policy_index(k, self.k_min, len(self.p), self.extension)]

    def q_at(self, k: int) -> np.ndarray:
        return self.q[_policy_index(k, self.k_min, len(self.q), self.extension)]

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
    """

    def __init__(self, m, window, A, B, rho, extension="constant-edge",
                 jacobi: JacobiCoefficients | None = None):
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
        for arr in (self._A, self._B, self._rho):
            arr.setflags(write=False)
        self.jacobi = jacobi

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

    def _index(self, k: int) -> int:
        return _policy_index(k, self.k_min, self.n_sites, self.extension)

    def _indices(self, sites: range) -> np.ndarray:
        """Stored positions of a run of sites in the given order: one
        vectorized :meth:`_index`, which raises for the first unreachable
        site of the run."""
        n = self.n_sites
        i = np.arange(sites.start - self.k_min, sites.stop - self.k_min, sites.step)
        if not sites or (0 <= i[0] < n and 0 <= i[-1] < n):
            return i
        if self.extension == "constant-edge":
            return np.clip(i, 0, n - 1)
        if self.extension == "periodic":
            return i % n
        # 'error': the run leaves the window, and the scalar index raises
        # at its first site outside
        for k in sites:
            self._index(k)

    def in_reach(self, k: int) -> bool:
        """True when site k is resolvable under the extension policy."""
        return self.extension != "error" or self.k_min <= k <= self.k_max

    # -- coefficient access --------------------------------------------------

    def A(self, k: int) -> np.ndarray:
        return self._A[self._index(k)]

    def B(self, k: int) -> np.ndarray:
        return self._B[self._index(k)]

    def rho(self, k) -> np.ndarray:
        """rho at site k, or the stack of rho at each of a sequence of sites."""
        if isinstance(k, (int, np.integer)):
            return self._rho[self._index(k)]
        return self._rho[[self._index(j) for j in k]]

    def pencil(self, z: complex, k: int) -> np.ndarray:
        """z A(k) + B(k)."""
        return z * self.A(k) + self.B(k)

    def pencil_blocks(self, z: complex, k: int):
        """The four m x m blocks (P11, P12, P21, P22) of z A(k) + B(k)."""
        p = self.pencil(z, k)
        m = self.m
        return p[:m, :m], p[:m, m:], p[m:, :m], p[m:, m:]

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
        """J_rho at site k, or at each of a sequence of sites as a stack."""
        return J_rho(self.rho(k))

    def i_rho(self, k: int) -> np.ndarray:
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
    records: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.passed:
            return f"{self.check}: pass ({len(self.records)} sites)"
        lines = [f"{self.check}: {len(self.violations)} violation(s)"]
        lines += [f"  site {v.site}: {v.message}" for v in self.violations]
        return "\n".join(lines)


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
    (tol_sym relative for Hermiticity, tol_psd on eigenvalues).
    """
    report = ValidationReport(check="pointwise")
    sites = _interval_sites(sys, interval)
    idx = sys._indices(sites)
    stacks = {"A": sys._A[idx], "B": sys._B[idx], "rho": sys._rho[idx]}
    # one batched 2-norm and eigenvalue call per coefficient stack
    defects = {}
    for name, x in stacks.items():
        dev = np.linalg.norm(x - la.adjoint(x), 2, axis=(1, 2))
        bad = dev > TOL_SYM * np.maximum(1.0, np.linalg.norm(x, 2, axis=(1, 2)))
        defects[name] = dev.tolist(), bad
    min_eig = {name: np.linalg.eigvalsh(la.herm(stacks[name]))[:, 0].tolist()
               for name in ("A", "rho")}
    for i, k in enumerate(sites):
        rec = {"site": k}
        for name, (dev, bad) in defects.items():
            rec[f"herm_defect_{name}"] = dev[i]
            if bad[i]:
                report.violations.append(Violation(
                    k, f"{name}_not_hermitian", dev[i],
                    f"{name} not Hermitian (defect {dev[i]:.2e})"))
        min_a, min_r = min_eig["A"][i], min_eig["rho"][i]
        rec["min_eig_A"] = min_a
        rec["min_eig_rho"] = min_r
        if min_a < -TOL_PSD:
            report.violations.append(Violation(k, "A_not_psd", -min_a,
                                               f"A has eigenvalue {min_a:.2e} < 0"))
        if min_r <= 0.0:
            report.violations.append(Violation(k, "rho_not_pd", -min_r,
                                               f"rho has eigenvalue {min_r:.2e} <= 0"))
        report.records.append(rec)
    return report


def _rcond_smin(a: np.ndarray) -> tuple[list, list]:
    """Reciprocal 2-norm condition and smallest singular value of each
    matrix of a stack, one SVD each."""
    s = np.linalg.svd(a, compute_uv=False)
    smax, smin = s[:, 0], s[:, -1]
    rc = np.divide(smin, smax, out=np.zeros_like(smax), where=smax != 0.0)
    return rc.tolist(), smin.tolist()


def check_wellposed(sys: HamiltonianSystem, z: complex,
                    interval=None) -> ValidationReport:
    """Condition report for the off-diagonal pencils at one z.

    Invertibility of z A12 + B12 for all z is equivalent to that of
    z A21 + B21, so both are computed and cross-checked; a site fails when
    either reciprocal condition drops below ``RCOND_MIN``.
    """
    report = ValidationReport(check="wellposed")
    sites = _interval_sites(sys, interval)
    idx = sys._indices(sites)
    m = sys.m
    p = z * sys._A[idx] + sys._B[idx]
    scales = np.maximum(1.0, np.linalg.norm(p, 2, axis=(1, 2))).tolist()
    rc12, sm12 = _rcond_smin(p[:, :m, m:])
    rc21, sm21 = _rcond_smin(p[:, m:, :m])
    for k, scale, r12, s12, r21, s21 in zip(sites, scales, rc12, sm12, rc21, sm21):
        report.records.append({"site": k, "rcond_12": r12, "rcond_21": r21,
                               "smin_12": s12, "smin_21": s21})
        # rcond catches ill conditioning; the absolute test (relative to the
        # pencil scale) catches uniformly tiny blocks where rcond stays 1
        if r12 < RCOND_MIN or s12 < RCOND_MIN * scale:
            report.violations.append(Violation(k, "pencil_12_singular", r12,
                                               f"(1,2) pencil rcond {r12:.2e}, "
                                               f"smin {s12:.2e}"))
        if r21 < RCOND_MIN or s21 < RCOND_MIN * scale:
            report.violations.append(Violation(k, "pencil_21_singular", r21,
                                               f"(2,1) pencil rcond {r21:.2e}, "
                                               f"smin {s21:.2e}"))
    return report


@dataclass
class DefinitenessReport:
    gram: np.ndarray
    verdict: str           # "definite" | "indefinite"
    min_eig: float
    interval: tuple[int, int]
    z: complex

    @property
    def definite(self) -> bool:
        return self.verdict == "definite"


def check_definiteness(sys: HamiltonianSystem, z: complex, interval,
                       tol_def: float = TOL_DEF) -> DefinitenessReport:
    """Gram-matrix test of the summed quadratic form over [c, d].

    Builds the full 2m x 2m solution basis started at c and returns
    G = sum_{k in [c,d]} Psi(k)* A(k) Psi(k). Positivity of G as a quadratic
    form on initial data is equivalent to positivity of the sum for every
    nontrivial solution; the verdict is "definite" iff the smallest
    eigenvalue exceeds both ``tol_def`` and its own rounding,
    ``_DEF_ROUNDING`` 2m eps times the largest. On long windows G is
    extremely ill conditioned (solutions grow), yet the smallest eigenvalue
    stays of the order of the one-site energy; one below the rounding of
    G's entries is noise, whatever its sign. A G that leaves the float range
    raises :class:`HamweylError`.
    """
    from . import propagate  # local import; propagate depends on this module

    c, d = int(interval[0]), int(interval[1])
    lo, hi = min(c, d), max(c, d)
    with np.errstate(over="ignore", invalid="ignore"):  # G is checked below
        basis = propagate.hat_trajectory(
            sys, z, lo, np.eye(2 * sys.m, dtype=complex), (lo, hi))
        g = propagate._a_form_sum(sys, basis, range(lo, hi + 1))
    if not np.isfinite(g).all():
        raise HamweylError(f"Gram matrix over [{lo}, {hi}] at z={z} is not finite: "
                           "the solutions leave the float range")
    eigs = np.linalg.eigvalsh(la.herm(g))
    min_eig = float(eigs[0])
    floor = _DEF_ROUNDING * 2 * sys.m * np.finfo(float).eps * eigs[-1]
    verdict = "definite" if min_eig > max(tol_def, floor) else "indefinite"
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
    n = p_vals.shape[0]
    eye = np.eye(m, dtype=complex)
    A = np.zeros((n, 2 * m, 2 * m), dtype=complex)
    B = np.zeros((n, 2 * m, 2 * m), dtype=complex)
    A[:, :m, :m] = eye
    B[:, :m, :m] = -q_vals
    B[:, :m, m:] = eye
    B[:, m:, :m] = eye
    B[:, m:, m:] = p_inv
    rho = np.stack([eye] * n)
    jac = JacobiCoefficients(p_vals.copy(), q_vals.copy(), window[0], extension)
    return HamiltonianSystem(m, window, A, B, rho, extension, jacobi=jac)


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
    n = b_vals.shape[0]
    A = np.stack([np.eye(2 * m, dtype=complex)] * n)
    B = np.zeros((n, 2 * m, 2 * m), dtype=complex)
    B[:, :m, m:] = b_vals
    B[:, m:, :m] = la.adjoint(b_vals)
    rho = np.stack([np.eye(m, dtype=complex)] * n)
    return HamiltonianSystem(m, window, A, B, rho, extension)


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


def make_boundary_data(gamma_raw, tol: float = 1e-12) -> BoundaryData:
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
    if np.max(np.abs(eigs)) <= tol:
        sign_class = "zero"
    elif eigs[0] >= -tol * scale:
        sign_class = "nonnegative"
    elif eigs[-1] <= tol * scale:
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
        top = e @ self.Q_at(k)
        bot = e @ self.Q_at(k - 1)
        m = top.shape[0]
        out = np.zeros((2 * m, 2 * m), dtype=complex)
        out[:m, :m] = top
        out[m:, m:] = bot
        return out

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
    q_list = []
    d_list = []
    for k in range(sys.k_min - 1, sys.k_max + 2):
        r = sys.rho(k)
        if not la.is_hermitian(r, 1e-10):
            raise InputError(f"rho at site {k} is not Hermitian")
        offdiag = r - np.diag(np.diagonal(r))
        if la.opnorm(offdiag) <= 1e-13 * max(1.0, la.opnorm(r)):
            q = np.eye(m, dtype=complex)
            d = np.real(np.diagonal(r)).copy()
        else:
            w, v = np.linalg.eigh(la.herm(r))
            order = np.argsort(w)[::-1]
            w, v = w[order], v[:, order]
            q = v.conj().T
            d = w.copy()
        if np.any(np.abs(d) <= 1e-14 * max(1.0, np.max(np.abs(d)))):
            raise InputError(f"rho at site {k} is singular")
        q_list.append(q)
        d_list.append(d)
    q_arr = np.stack(q_list)              # index 0 is site k_min - 1
    d_tilde = np.stack(d_list[1:n + 1])   # diagonal of Q rho Q^{-1} over the window

    # greedy sign fix: eps(k_min) = I, then eps(k+1) = eps(k) * sign(d_tilde(k))
    eps = np.ones((n + 1, m))
    for i in range(n):
        eps[i + 1] = eps[i] * np.sign(d_tilde[i])
    d_pos = eps[:-1] * d_tilde * eps[1:]

    A_new = np.empty((n, 2 * m, 2 * m), dtype=complex)
    B_new = np.empty((n, 2 * m, 2 * m), dtype=complex)
    rho_new = np.empty((n, m, m), dtype=complex)
    for i in range(n):
        u = np.zeros((2 * m, 2 * m), dtype=complex)
        u[:m, :m] = np.diag(eps[i]) @ q_arr[i + 1]       # eps(k) Q(k)
        u[m:, m:] = np.diag(eps[i]) @ q_arr[i]           # eps(k) Q(k-1)
        ui = u.conj().T
        A_new[i] = u @ sys._A[i] @ ui
        B_new[i] = u @ sys._B[i] @ ui
        rho_new[i] = np.diag(d_pos[i]).astype(complex)
    out = HamiltonianSystem(m, sys.window, A_new, B_new, rho_new, sys.extension)
    record = NormalFormRecord(k_min=sys.k_min, Q=q_arr, eps_tilde=eps)
    return out, record


def to_unit_rho(sys: HamiltonianSystem, alpha: BoundaryData, beta: BoundaryData):
    """Congruence transform onto unit weight: A -> D A D and B -> D B D with
    D = diag(rho(k), rho(k-1))^{-1/2}, rho replaced by the identity.

    The boundary pair acts without weights on the transformed system and the
    M-function is invariant, so (alpha, beta) is returned unchanged for use
    with the new system.
    """
    m, n = sys.m, sys.n_sites
    A_new = np.empty_like(sys._A)
    B_new = np.empty_like(sys._B)
    for i, k in enumerate(sys.sites):
        d = np.zeros((2 * m, 2 * m), dtype=complex)
        d[:m, :m] = la.invsqrtm_spd(sys.rho(k))
        d[m:, m:] = la.invsqrtm_spd(sys.rho(k - 1))
        A_new[i] = d @ sys._A[i] @ d
        B_new[i] = d @ sys._B[i] @ d
    rho_new = np.stack([np.eye(m, dtype=complex)] * n)
    out = HamiltonianSystem(m, sys.window, A_new, B_new, rho_new, sys.extension,
                            jacobi=sys.jacobi if _rho_is_identity(sys) else None)
    return out, (alpha, beta)


def _rho_is_identity(sys: HamiltonianSystem) -> bool:
    eye = np.eye(sys.m)
    return all(la.opnorm(sys.rho(k) - eye) <= 1e-13 for k in sys.sites)


# ---------------------------------------------------------------------------
# coefficient files
# ---------------------------------------------------------------------------

def _matrix_to_pairs(a: np.ndarray) -> list:
    flat = np.asarray(a, dtype=complex).reshape(-1)
    return [[float(x.real), float(x.imag)] for x in flat]


_SEQUENCE = (list, tuple, np.ndarray)


def _pairs_to_matrix(pairs, m: int, name: str) -> np.ndarray:
    if not isinstance(pairs, _SEQUENCE):
        raise InputError(f"{name}: each site must be a list of entries")
    vals = []
    for entry in pairs:
        if isinstance(entry, numbers.Real):
            vals.append(complex(entry))
        else:
            if not (isinstance(entry, _SEQUENCE) and len(entry) == 2
                    and all(isinstance(x, numbers.Real) for x in entry)):
                raise InputError(f"{name}: entries must be [re, im] pairs")
            vals.append(complex(entry[0], entry[1]))
    if len(vals) != m * m:
        raise InputError(f"{name}: expected {m * m} entries, got {len(vals)}")
    return np.array(vals, dtype=complex).reshape(m, m)


def _pairs_to_stack(sites, m: int, name: str) -> np.ndarray:
    """One coefficient block, a list of per-site entry lists, as an
    (n, m, m) array. A block of numeric [re, im] pairs parses as one array;
    any other block (plain-number entries, malformed entries) is parsed site
    by site, which raises the per-entry error messages."""
    if not isinstance(sites, _SEQUENCE):
        raise InputError(f"{name}: expected a list of per-site entries")
    try:
        arr = np.asarray(sites)
    except ValueError:  # ragged nesting, a malformed block
        arr = None
    if arr is not None and arr.dtype.kind in "biuf" \
            and arr.shape[1:] == (m * m, 2):
        arr = np.ascontiguousarray(arr, dtype=float)
        return arr.view(complex).reshape(-1, m, m)
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
    if sys.jacobi is not None and len(sys.jacobi.p) == sys.n_sites:
        head["jacobi"] = {
            "p": [_matrix_to_pairs(sys.jacobi.p[i]) for i in range(sys.n_sites)],
            "q": [_matrix_to_pairs(sys.jacobi.q[i]) for i in range(sys.n_sites)],
        }
        return head
    head.update({
        "A": [_matrix_to_pairs(sys._A[i]) for i in range(sys.n_sites)],
        "B": [_matrix_to_pairs(sys._B[i]) for i in range(sys.n_sites)],
        "rho": [_matrix_to_pairs(sys._rho[i]) for i in range(sys.n_sites)],
    })
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
    what = "coefficient document"
    try:
        m = int(_field(doc, "m", what))
        k_min = int(_field(doc, "k_min", what))
    except (TypeError, ValueError) as e:
        raise InputError(f"{what}: m and k_min must be integers ({e})") from e
    if m < 1:
        raise InputError("block dimension m must be >= 1")
    extension = doc.get("extension", "constant-edge")

    if "jacobi" in doc:
        block = doc["jacobi"]
        p = _pairs_to_stack(_field(block, "p", "jacobi block"), m, "p")
        q = _pairs_to_stack(_field(block, "q", "jacobi block"), m, "q")
        if len(p) != len(q) or not len(p):
            raise InputError("jacobi block: p and q must cover the same "
                             "nonempty site range")
        window = (k_min, k_min + len(p) - 1)
        return jacobi_system(p, q, window, m=m, extension=extension)
    if "dirac" in doc:
        b = _pairs_to_stack(_field(doc["dirac"], "b", "dirac block"), m, "b")
        if not len(b):
            raise InputError("dirac block: b must cover a nonempty site range")
        window = (k_min, k_min + len(b) - 1)
        return dirac_system(b, window, m=m, extension=extension)

    A = _pairs_to_stack(_field(doc, "A", what), 2 * m, "A")
    B = _pairs_to_stack(_field(doc, "B", what), 2 * m, "B")
    rho = _pairs_to_stack(_field(doc, "rho", what), m, "rho")
    if not (len(A) == len(B) == len(rho)) or not len(A):
        raise InputError("A, B, rho must cover the same nonempty site range")
    window = (k_min, k_min + len(A) - 1)
    return HamiltonianSystem(m, window, A, B, rho, extension)


def save_coefficients(sys: HamiltonianSystem, path) -> None:
    with open(path, "w") as fh:
        json.dump(system_to_dict(sys), fh, indent=1)


def load_coefficients(path) -> HamiltonianSystem:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            raise InputError(f"malformed coefficient file: {e}") from e
    return system_from_dict(doc)
