"""Independent oracles and constrained generators used to certify the build.

Nothing here shares a code path with the operations it checks: the regular
boundary value problem is solved by a dense Hermitian eigensolver on the
assembled three-term matrix, constant-coefficient half-line data comes from
an algebraic fixed point, and generated systems are validated post hoc.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _linalg as la
from .errors import ConvergenceError, GenerationError, InputError, UnsupportedError
from .system import (
    DEFAULT_Z_SAMPLE,
    BoundaryData,
    HamiltonianSystem,
    check_definiteness,
    check_wellposed,
    dirac_system,
    jacobi_system,
    validate_pointwise,
)
from .weyl import eigenvalues

_FIXED_POINT_ITER = 2000  # damped Riccati iterations per damping factor
_RETRIES = 20             # draws random_system makes before it gives up

__all__ = [
    "RegularBVP",
    "jacobi_bvp_oracle",
    "eig_via_detPhi",
    "constant_riccati_fixed_point",
    "random_system",
]


# ---------------------------------------------------------------------------
# regular boundary value problem, dense route
# ---------------------------------------------------------------------------

@dataclass
class RegularBVP:
    """Two-point problem on [k0, ell] with separated self-adjoint data.

    v1 supports Dirichlet-type data (I 0) at both ends, for which the
    eigenvalue problem reduces to the block-tridiagonal three-term matrix on
    the interior sites [k0+1, ell-1].
    """

    sys: HamiltonianSystem
    k0: int
    ell: int
    alpha: BoundaryData
    beta: BoundaryData

    @property
    def interior_sites(self) -> range:
        return range(self.k0 + 1, self.ell)

    @property
    def interior_length(self) -> int:
        return self.ell - self.k0 - 1


def _require_dirichlet(bd: BoundaryData, name: str) -> None:
    m = bd.m
    if la.opnorm(bd.gamma1 - np.eye(m)) > 1e-12 or la.opnorm(bd.gamma2) > 1e-12:
        raise UnsupportedError(
            f"{name} must be Dirichlet-type (I 0) in v1; general separated "
            "self-adjoint data is deferred")


def jacobi_bvp_oracle(bvp: RegularBVP) -> np.ndarray:
    """Sorted eigenvalues of the interior-Dirichlet three-term matrix.

    Assembles the Hermitian block tridiagonal of a S+ + a- S- + b with zero
    boundary values on the interior of [k0, ell] and solves it densely.
    """
    sys = bvp.sys
    if sys.jacobi is None:
        raise UnsupportedError("dense oracle requires a Jacobi-class system")
    _require_dirichlet(bvp.alpha, "alpha")
    _require_dirichlet(bvp.beta, "beta")
    if bvp.ell <= bvp.k0:
        raise InputError("oracle expects ell > k0")
    n = bvp.interior_length
    if n < 1:
        raise InputError("interior of [k0, ell] is empty")
    m = sys.m
    jc = sys.jacobi
    h = np.zeros((n * m, n * m), dtype=complex)
    sites = list(bvp.interior_sites)
    for j, k in enumerate(sites):
        h[j * m:(j + 1) * m, j * m:(j + 1) * m] = jc.b(k)
        if j + 1 < n:
            h[j * m:(j + 1) * m, (j + 1) * m:(j + 2) * m] = jc.a(k)
            h[(j + 1) * m:(j + 2) * m, j * m:(j + 1) * m] = jc.a(k).conj().T
    defect = la.opnorm(h - h.conj().T)
    if defect > 1e-10 * max(1.0, la.opnorm(h)):
        raise InputError(f"assembled matrix is not Hermitian (defect {defect:.2e})")
    return np.sort(np.linalg.eigvalsh(la.herm(h)))


def eig_via_detPhi(sys, k0, ell, alpha, beta, search_interval, grid_n=None):
    """Deprecated alias of :func:`hamweyl.weyl.eigenvalues`; ignores grid_n."""
    return eigenvalues(sys, k0, ell, alpha, beta, search_interval)


# ---------------------------------------------------------------------------
# constant-coefficient Riccati fixed point
# ---------------------------------------------------------------------------

def _require_constant(sys: HamiltonianSystem) -> None:
    a0, b0, r0 = sys.A(sys.k_min), sys.B(sys.k_min), sys.rho(sys.k_min)
    for k in sys.sites:
        if not (np.allclose(sys.A(k), a0, atol=1e-14)
                and np.allclose(sys.B(k), b0, atol=1e-14)
                and np.allclose(sys.rho(k), r0, atol=1e-14)):
            raise InputError("fixed-point oracle requires k-independent coefficients")


def _riccati_map(sys: HamiltonianSystem, z: complex, v: np.ndarray) -> np.ndarray:
    """One forward step of the constant-coefficient Riccati recursion."""
    p11, p12, p21, p22 = sys.pencil_blocks(z, sys.k_min)
    rho = sys.rho(sys.k_min)
    inner = rho @ np.linalg.inv(v) @ rho - p22
    return p11 + p12 @ np.linalg.solve(inner, p21)


def _riccati_map_back(sys: HamiltonianSystem, z: complex, v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_riccati_map`: recovers the predecessor value.

    The forward map attracts the decaying-at-minus-infinity branch; its
    inverse attracts the decaying-at-plus-infinity branch, so each direction
    gets a contracting iteration at its own fixed point.
    """
    p11, p12, p21, p22 = sys.pencil_blocks(z, sys.k_min)
    rho = sys.rho(sys.k_min)
    inner = p22 + p21 @ np.linalg.solve(v - p11, p12)
    return rho @ np.linalg.solve(inner, rho)


def constant_riccati_fixed_point(sys: HamiltonianSystem, z: complex,
                                 direction: int = +1, tol: float = 1e-13) -> np.ndarray:
    """Fixed point of the half-line Riccati recursion for constant coefficients.

    Solves V = P11 + P12 [rho V^{-1} rho - P22]^{-1} P21 and selects the
    branch with -sigma Im(V) > 0 where sigma = sign(direction * Im z). For
    m = 1 the closed quadratic root is used and cross-checked against the
    damped fixed-point iteration.
    """
    if z.imag == 0:
        raise InputError("fixed point requires Im z != 0")
    if direction not in (+1, -1):
        raise InputError("direction must be +1 or -1")
    _require_constant(sys)
    m = sys.m
    sigma = float(np.sign(direction * z.imag))
    want_neg = sigma > 0  # -sigma Im V > 0  <=>  sigma Im V < 0

    closed = None
    if m == 1:
        p11, p12, p21, p22 = (complex(b[0, 0]) for b in sys.pencil_blocks(z, sys.k_min))
        rho2 = complex(sys.rho(sys.k_min)[0, 0]) ** 2
        # (V - P11)(rho^2 - P22 V) = P12 P21 V
        coeffs = [-p22, rho2 + p11 * p22 - p12 * p21, -p11 * rho2]
        if abs(coeffs[0]) < 1e-300:
            roots = [-coeffs[2] / coeffs[1]] if coeffs[1] != 0 else []
        else:
            roots = np.roots(coeffs)
        good = [r for r in roots
                if (r.imag < 0) == want_neg and abs(r.imag) > 0]
        if not good:
            raise ConvergenceError(
                f"no quadratic root with sigma Im V < 0 at z={z}")
        closed = np.array([[good[0]]], dtype=complex)

    step = _riccati_map_back if direction > 0 else _riccati_map
    v = None
    for damping in (1.0, 0.5, 0.25):
        v_try = -1j * sigma * (1.0 + abs(z)) * np.eye(m, dtype=complex)
        ok = False
        for _ in range(_FIXED_POINT_ITER):
            f = step(sys, z, v_try)
            gap = la.opnorm(v_try - f)
            v_try = (1.0 - damping) * v_try + damping * f
            if gap <= tol * (1.0 + la.opnorm(v_try)):
                ok = True
                break
        if ok:
            v = v_try
            break
    if v is None:
        if closed is not None:
            # iteration stalled but the algebraic root is available
            v = closed
        else:
            raise ConvergenceError(
                f"Riccati fixed-point iteration did not converge at z={z}")

    if closed is not None:
        if la.opnorm(v - closed) > 1e-9 * (1.0 + la.opnorm(closed)):
            raise ConvergenceError(
                "fixed-point iterate disagrees with the closed quadratic root")
        v = closed

    branch = la.max_eig_herm(sigma * la.imag_part(v))
    if branch >= 0:
        raise ConvergenceError(
            f"converged to the wrong branch (max eig of sigma Im V = {branch:.2e})")
    return v


# ---------------------------------------------------------------------------
# constrained random systems
# ---------------------------------------------------------------------------

def _usv(u: np.ndarray, s: np.ndarray, v: np.ndarray) -> np.ndarray:
    """U diag(s) V* of each member of a stack."""
    return (u * s[..., None, :]) @ la.adjoint(v)


def _weighted(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Hermitian U diag(w) U* with spectrum w, of each member of a stack."""
    return la.herm(_usv(u, w, u))


def _probe_intervals(window) -> list[tuple[int, int]]:
    k_min, k_max = window
    length = min(2, k_max - k_min)
    mids = {k_min, (k_min + k_max) // 2, k_max - length}
    return [(max(k_min, s), max(k_min, s) + length) for s in sorted(mids)]


def random_system(m: int, window, seed: int,
                  cls: str = "general_A12zero") -> HamiltonianSystem:
    """Seeded random system guaranteed to satisfy the standing hypotheses.

    Classes:

    - ``"jacobi"``: p(k) Hermitian with spectrum in [0.5, 2], q(k) Hermitian.
    - ``"dirac"``: b(k) with singular values in [0.3, 3].
    - ``"general_A12zero"``: rho > 0, A = diag(A11 > 0, A22 >= 0), Hermitian
      B with invertible B12. The vanishing off-diagonal A block is the only
      finitely checkable way to keep the defining pencil regular for every z.

    Pointwise validity holds by construction; interval definiteness is
    verified post hoc on the default z sample and the draw is repeated on
    failure (at most ``_RETRIES`` draws), each attempt drawing on from the
    same generator. Fixed seeds give bitwise-identical systems, because the
    stream is read in one fixed order. A Ginibre matrix G takes 2 m^2
    normals, its real part's first. In site order, from k_min:

    - ``"jacobi"``: per site G, ``uniform(0.5, 2, m)`` for p; then per site
      G for q.
    - ``"dirac"``: per site G, G, ``uniform(0.3, 3, m)``.
    - ``"general_A12zero"``: per site G, ``uniform(0.3, 2, m)`` for A11;
      ``integers(0, m + 1)`` for the rank r of A22, G, ``uniform(0.3, 1, r)``;
      G, G, ``uniform(0.3, 3, m)`` for B12; G for B11; G for B22;
      G, ``uniform(0.5, 2, m)`` for rho.

    Normals that follow each other in this order are drawn in one call,
    which reads the same stream. The loop over sites only draws; the Haar
    unitaries (QR of G with the phases of diag R divided out), U diag(w) U*,
    U diag(s) V* and (G + G*) / (2 sqrt m) are then formed once per
    coefficient stack.
    """
    if cls not in ("jacobi", "dirac", "general_A12zero"):
        raise InputError(f"unknown class {cls!r}")
    rng = np.random.default_rng(seed)
    k_min, k_max = int(window[0]), int(window[1])
    n = k_max - k_min + 1
    if n < 1:
        raise InputError("window is empty")
    normal, uniform = rng.normal, rng.uniform

    for _ in range(_RETRIES):
        if cls == "jacobi":
            x, w = np.empty((n, 2, m, m)), np.empty((n, m))
            for i in range(n):
                x[i] = normal(size=(2, m, m))
                w[i] = uniform(0.5, 2.0, size=m)
            p = _weighted(la.haar_from_ginibre(la.ginibre(x)), w)
            q = la.herm(la.ginibre(normal(size=(n, 2, m, m)))) / np.sqrt(m)
            sys = jacobi_system(p, q, window, m=m)
        elif cls == "dirac":
            x, s = np.empty((n, 2, 2, m, m)), np.empty((n, m))
            for i in range(n):
                x[i] = normal(size=(2, 2, m, m))
                s[i] = uniform(0.3, 3.0, size=m)
            u = la.haar_from_ginibre(la.ginibre(x))
            sys = dirac_system(_usv(u[:, 0], s, u[:, 1]), window, m=m)
        else:
            # the Ginibre draws of A11, A22, U and V of B12 = U S V*, B11,
            # B22 and rho; the weights of A11, A22 (zero past the rank), S
            # and rho
            x, w = np.empty((n, 7, 2, m, m)), np.zeros((n, 4, m))
            for i in range(n):
                x[i, 0] = normal(size=(2, m, m))
                w[i, 0] = uniform(0.3, 2.0, size=m)
                rank = int(rng.integers(0, m + 1))
                x[i, 1] = normal(size=(2, m, m))
                w[i, 1, :rank] = uniform(0.3, 1.0, size=rank)
                x[i, 2:4] = normal(size=(2, 2, m, m))
                w[i, 2] = uniform(0.3, 3.0, size=m)
                x[i, 4:] = normal(size=(3, 2, m, m))
                w[i, 3] = uniform(0.5, 2.0, size=m)
            g = la.ginibre(x)
            u = la.haar_from_ginibre(g[:, [0, 1, 2, 3, 6]])
            b = la.herm(g[:, 4:6]) / np.sqrt(m)
            b12 = _usv(u[:, 2], w[:, 2], u[:, 3])
            zero = np.zeros((n, m, m))
            A = np.block([[_weighted(u[:, 0], w[:, 0]), zero],
                          [zero, _weighted(u[:, 1], w[:, 1])]])
            B = np.block([[b[:, 0], b12], [la.adjoint(b12), b[:, 1]]])
            sys = HamiltonianSystem(m, window, A, B, _weighted(u[:, 4], w[:, 3]))

        if not validate_pointwise(sys).passed:
            continue
        ok = True
        for z in DEFAULT_Z_SAMPLE:
            if not check_wellposed(sys, z).passed:
                ok = False
                break
            for interval in _probe_intervals(window):
                if interval[1] <= interval[0]:
                    continue
                if not check_definiteness(sys, z, interval).definite:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return sys
    raise GenerationError(
        f"could not generate a definite system in {_RETRIES} attempts "
        f"(m={m}, class={cls}, seed={seed})")
