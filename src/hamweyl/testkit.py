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
                                 direction: int = +1, max_iter: int = 2000,
                                 tol: float = 1e-13) -> np.ndarray:
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
            roots = [coeffs[2] / coeffs[1]] if coeffs[1] != 0 else []
        else:
            roots = np.roots(coeffs)
        good = [r for r in roots
                if (r.imag < 0) == want_neg and abs(r.imag) > 0]
        if not good:
            raise ConvergenceError(
                f"no quadratic root with sigma Im V < 0 at z={z}", trace=list(roots))
        closed = np.array([[good[0]]], dtype=complex)

    step = _riccati_map_back if direction > 0 else _riccati_map
    trace = []
    v = None
    for damping in (1.0, 0.5, 0.25):
        v_try = -1j * sigma * (1.0 + abs(z)) * np.eye(m, dtype=complex)
        ok = False
        for _ in range(max_iter):
            f = step(sys, z, v_try)
            gap = la.opnorm(v_try - f)
            trace.append(gap)
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
                f"Riccati fixed-point iteration did not converge at z={z}",
                trace=trace[-20:])

    if closed is not None:
        if la.opnorm(v - closed) > 1e-9 * (1.0 + la.opnorm(closed)):
            raise ConvergenceError(
                "fixed-point iterate disagrees with the closed quadratic root",
                trace=trace[-20:])
        v = closed

    branch = la.max_eig_herm(sigma * la.imag_part(v))
    if branch >= 0:
        raise ConvergenceError(
            f"converged to the wrong branch (max eig of sigma Im V = {branch:.2e})",
            trace=trace[-20:])
    return v


# ---------------------------------------------------------------------------
# constrained random systems
# ---------------------------------------------------------------------------

def _random_hermitian(rng: np.random.Generator, m: int, scale: float = 1.0) -> np.ndarray:
    g = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    return scale * la.herm(g) / np.sqrt(m)


def _random_spd(rng: np.random.Generator, m: int, lo: float, hi: float) -> np.ndarray:
    u = la.haar_unitary(m, rng)
    w = rng.uniform(lo, hi, size=m)
    return la.herm((u * w) @ u.conj().T)


def _random_psd_rank(rng: np.random.Generator, m: int, rank: int) -> np.ndarray:
    u = la.haar_unitary(m, rng)
    w = np.zeros(m)
    w[:rank] = rng.uniform(0.3, 1.0, size=rank)
    return la.herm((u * w) @ u.conj().T)


def _random_invertible(rng: np.random.Generator, m: int) -> np.ndarray:
    # singular values in [0.3, 3]: condition bounded by 10, well under 1e3
    u = la.haar_unitary(m, rng)
    v = la.haar_unitary(m, rng)
    s = rng.uniform(0.3, 3.0, size=m)
    return (u * s) @ v.conj().T


def _probe_intervals(window) -> list[tuple[int, int]]:
    k_min, k_max = window
    length = min(2, k_max - k_min)
    mids = {k_min, (k_min + k_max) // 2, k_max - length}
    return [(max(k_min, s), max(k_min, s) + length) for s in sorted(mids)]


def random_system(m: int, window, seed: int,
                  cls: str = "general_A12zero", retries: int = 20) -> HamiltonianSystem:
    """Seeded random system guaranteed to satisfy the standing hypotheses.

    Classes:

    - ``"jacobi"``: p(k) Hermitian with spectrum in [0.5, 2], q(k) Hermitian.
    - ``"dirac"``: b(k) with singular values in [0.3, 3].
    - ``"general_A12zero"``: rho > 0, A = diag(A11 > 0, A22 >= 0), Hermitian
      B with invertible B12. The vanishing off-diagonal A block is the only
      finitely checkable way to keep the defining pencil regular for every z.

    Pointwise validity holds by construction; interval definiteness is
    verified post hoc on the default z sample and the draw is repeated on
    failure (bounded retries). Fixed seeds give bitwise-identical systems.
    """
    if cls not in ("jacobi", "dirac", "general_A12zero"):
        raise InputError(f"unknown class {cls!r}")
    rng = np.random.default_rng(seed)
    k_min, k_max = int(window[0]), int(window[1])
    n = k_max - k_min + 1
    if n < 1:
        raise InputError("window is empty")

    for _ in range(retries):
        if cls == "jacobi":
            p = np.stack([_random_spd(rng, m, 0.5, 2.0) for _ in range(n)])
            q = np.stack([_random_hermitian(rng, m) for _ in range(n)])
            sys = jacobi_system(p, q, window, m=m)
        elif cls == "dirac":
            b = np.stack([_random_invertible(rng, m) for _ in range(n)])
            sys = dirac_system(b, window, m=m)
        else:
            two_m = 2 * m
            A = np.zeros((n, two_m, two_m), dtype=complex)
            B = np.zeros((n, two_m, two_m), dtype=complex)
            rho = np.zeros((n, m, m), dtype=complex)
            for i in range(n):
                A[i, :m, :m] = _random_spd(rng, m, 0.3, 2.0)
                A[i, m:, m:] = _random_psd_rank(rng, m, int(rng.integers(0, m + 1)))
                b12 = _random_invertible(rng, m)
                B[i, :m, :m] = _random_hermitian(rng, m)
                B[i, m:, m:] = _random_hermitian(rng, m)
                B[i, :m, m:] = b12
                B[i, m:, :m] = b12.conj().T
                rho[i] = _random_spd(rng, m, 0.5, 2.0)
            sys = HamiltonianSystem(m, window, A, B, rho)

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
        f"could not generate a definite system in {retries} attempts "
        f"(m={m}, class={cls}, seed={seed})")
