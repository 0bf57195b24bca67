"""Correctness checks of the hamweyl benchmark.

Every reference here is computed by the benchmark from its own copy of the
coefficients (``gen_inputs.Coeffs``) with numpy alone: dense Hermitian
eigenproblems and resolvents of the three-term matrix, the one-step transfer
matrix of the recursion, and residuals of the difference system. Nothing is
compared against stored output of the program. Tolerances are those pinned
by the package's acceptance suite.

Each ``check_*`` function returns ``None`` when the answer is right and a
short reason when it is not.
"""

from __future__ import annotations

import numpy as np

EIG_TOL = 1e-8        # eigenvalues against closed form or dense oracle
M_TOL = 1e-9          # regular M against the dense resolvent (relative)
HALF_TOL = 1e-8       # half-line M against the transfer-matrix subspace
DELTA_TOL = 1e-9      # kernel delta identity (absolute, as delta_residual)
SOLVE_TOL = 1e-9      # nonhomogeneous residual (relative, as the solver)
AWAY_TOL = 1e-6       # Richardson measure mass away from the eigenvalues
MASS_TOL = 1e-4       # Richardson total mass against the dense point masses
IDENTITY_TOL = 1e-10  # telescoping, pairing and Riccati defects


def opnorm(a) -> float:
    return float(np.linalg.norm(np.atleast_2d(a), 2))


def im_part(a):
    return (a - a.conj().T) / 2j


def min_eig(a) -> float:
    return float(np.linalg.eigvalsh(0.5 * (a + a.conj().T))[0])


# ---------------------------------------------------------------------------
# regular problems on [k0, ell] with Dirichlet data at both ends
# ---------------------------------------------------------------------------

class DenseRegular:
    """The interior three-term matrix H of a Jacobi input on (k0, ell).

    Its eigenvalues are the Dirichlet eigenvalues, and
    M(z) = a(k0)* [(H - z)^{-1}]_11 a(k0) + a(k0): differences of M are the
    resolvent differences, and the constant term a(k0) = -p(k0+1) pins the
    rest. The eigenvectors also give the point masses of the spectral
    measure, W_j = a* v_j(1) v_j(1)* a.
    """

    def __init__(self, c, k0: int, ell: int):
        if not c.is_jacobi:
            raise ValueError(f"{c.name} is not a Jacobi input")
        m = c.m
        n = ell - k0 - 1
        h = np.zeros((n * m, n * m), dtype=complex)
        for j, k in enumerate(range(k0 + 1, ell)):
            h[j * m:(j + 1) * m, j * m:(j + 1) * m] = c.jacobi_b(k)
            if j + 1 < n:
                a = c.jacobi_a(k)
                h[j * m:(j + 1) * m, (j + 1) * m:(j + 2) * m] = a
                h[(j + 1) * m:(j + 2) * m, j * m:(j + 1) * m] = a.conj().T
        self.m = m
        self.eigenvalues, vecs = np.linalg.eigh(0.5 * (h + h.conj().T))
        a0 = c.jacobi_a(k0)
        self.a0 = a0
        self.top = a0.conj().T @ vecs[:m, :]          # (m, n m)
        self.weights = np.einsum("ij,kj->jik", self.top, self.top.conj())

    def m_of(self, z):
        """M at one z or an array of z, shape (m, m) or (N, m, m)."""
        z = np.asarray(z, dtype=complex)
        inv = 1.0 / (self.eigenvalues[None, :] - z.reshape(-1, 1))
        out = np.einsum("ij,nj,kj->nik", self.top, inv, self.top.conj())
        out = out + self.a0[None]
        return out[0] if z.ndim == 0 else out


def free_chain_eigenvalues(ell: int) -> np.ndarray:
    """Dirichlet eigenvalues of the free chain on (0, ell): 2 - 2 cos(j pi / ell)."""
    j = np.arange(1, ell)
    return np.sort(2.0 - 2.0 * np.cos(j * np.pi / ell))


def check_eigs(found, expected, tol: float = EIG_TOL):
    found = np.sort(np.asarray(found, dtype=float))
    expected = np.sort(np.asarray(expected, dtype=float))
    if len(found) != len(expected):
        return f"found {len(found)} eigenvalues, expected {len(expected)}"
    if len(found) == 0:
        return None
    dev = float(np.max(np.abs(found - expected)))
    if not dev <= tol:
        return f"eigenvalue deviation {dev:.2e} > {tol:.0e}"
    return None


def check_m(M, ref, tol: float = M_TOL):
    err = opnorm(M - ref) / (1.0 + opnorm(ref))
    if not err <= tol:
        return f"M differs from the dense resolvent by {err:.2e}"
    return None


def check_herglotz(M, sigma: int):
    lo = min_eig(sigma * im_part(M))
    if not lo > 0:
        return f"sigma Im M has eigenvalue {lo:.2e} <= 0"
    return None


def check_disk_rows(rows, ms):
    """Rows of ``hamweyl disk`` with far sites above the base site and
    Im z > 0 (so sigma = +1): every M on the circle, Herglotz, and the
    sampled diameters non-increasing along the schedule (the disks nest)."""
    prev = np.inf
    for row, M in zip(rows, ms):
        if row["membership"] != "circle":
            return f"ell={row['ell']}: membership {row['membership']}"
        bad = check_herglotz(M, +1)
        if bad:
            return f"ell={row['ell']}: {bad}"
        d = float(row["diameter"])
        # collapsed disks sit at rounding level, where the sample may wobble
        if not (np.isfinite(d) and d <= prev + 1e-12 * (1.0 + opnorm(M))):
            return f"ell={row['ell']}: diameter {d:.3e} grew from {prev:.3e}"
        prev = d
    return None


# ---------------------------------------------------------------------------
# spectral measures
# ---------------------------------------------------------------------------

def richardson(inc_coarse, inc_fine, eps_coarse, eps_fine):
    """Linear-in-epsilon extrapolation of two smoothed measures."""
    return inc_fine + (inc_fine - inc_coarse) * (eps_fine / (eps_coarse - eps_fine))


def check_measure(grid, inc_coarse, inc_fine, eps_coarse, eps_fine,
                  dense: DenseRegular, threshold: float = 1e-3):
    """Point masses at the dense eigenvalues, PSD increments, and at most
    ``AWAY_TOL`` Richardson mass farther than two bins from any eigenvalue."""
    grid = np.asarray(grid, dtype=float)
    width = float(np.max(np.diff(grid)))
    for name, inc in (("coarse", inc_coarse), ("fine", inc_fine)):
        worst = min(min_eig(x) for x in inc)
        if worst < -1e-10:
            return f"{name} increment not PSD (eigenvalue {worst:.2e})"
    rich = richardson(inc_coarse, inc_fine, eps_coarse, eps_fine)
    tr = np.real(np.trace(rich, axis1=1, axis2=2))
    lo, hi = grid[0], grid[-1]
    lam = dense.eigenvalues
    inside = (lam > lo) & (lam < hi)
    mass = np.real(np.trace(dense.weights, axis1=1, axis2=2))
    near = np.zeros(len(tr), dtype=bool)
    for x in lam[inside]:
        near |= (grid[1:] >= x - 2 * width) & (grid[:-1] <= x + 2 * width)
    away = float(np.sum(np.abs(tr[~near])))
    if not away <= AWAY_TOL:
        return f"Richardson mass {away:.2e} away from the eigenvalues"
    for i in np.nonzero(tr > threshold)[0]:
        if not np.any(np.abs(lam - 0.5 * (grid[i] + grid[i + 1])) <= width):
            return f"jump in bin {i} sits at no dense eigenvalue"
    for x, w in zip(lam[inside], mass[inside]):
        if w > 10 * threshold:
            got = tr[(grid[1:] >= x - 2 * width) & (grid[:-1] <= x + 2 * width)]
            if not np.sum(got) > 0.5 * w:
                return f"eigenvalue {x:.6f} (mass {w:.2e}) has no jump"
    total, want = float(np.sum(tr)), float(np.sum(mass[inside]))
    if not abs(total - want) <= MASS_TOL * (1.0 + want):
        return f"Richardson mass {total:.8f} against dense point masses {want:.8f}"
    return None


# ---------------------------------------------------------------------------
# half lines: constant coefficients
# ---------------------------------------------------------------------------

def transfer_matrix(c, z: complex, k: int) -> np.ndarray:
    """One forward step of hat states (psi1(k); psi2(k+1)) -> (psi1(k+1); psi2(k+2)).

    From the recursion rho(k) psi2(k+1) = (zA+B)_{row1}(k) Psi(k) and
    rho(k-1) psi1(k-1) = (zA+B)_{row2}(k) Psi(k), written at site k+1.
    """
    m = c.m
    p = z * c.A(k + 1) + c.B(k + 1)
    p11, p12, p21, p22 = p[:m, :m], p[:m, m:], p[m:, :m], p[m:, m:]
    r0, r1 = c.rho(k), c.rho(k + 1)
    inv21 = np.linalg.inv(p21)
    t = np.zeros((2 * m, 2 * m), dtype=complex)
    t[:m, :m] = inv21 @ r0
    t[:m, m:] = -inv21 @ p22
    r1i = np.linalg.inv(r1)
    t[m:, :m] = r1i @ p11 @ t[:m, :m]
    t[m:, m:] = r1i @ (p11 @ t[:m, m:] + p12)
    return t


def half_line_m(c, z: complex, direction: int) -> np.ndarray:
    """M_plus or M_minus of a constant Jacobi input with Dirichlet base data.

    The Weyl solution's base hat value is (I; -M) for Dirichlet data and
    rho = I, and it must lie in the invariant subspace of the transfer matrix
    that decays toward the chosen end: |lambda| < 1 for +infinity,
    |lambda| > 1 for -infinity.
    """
    m = c.m
    w, v = np.linalg.eig(transfer_matrix(c, z, c.k_min))
    order = np.argsort(np.abs(w))
    cols = order[:m] if direction > 0 else order[m:]
    sub = v[:, cols]
    return -sub[m:] @ np.linalg.inv(sub[:m])


# ---------------------------------------------------------------------------
# Green's kernels and the nonhomogeneous system
# ---------------------------------------------------------------------------

def _row_residual(c, z, vals, k):
    """(S_rho - zA - B) applied at site k to a family given at k-1, k, k+1."""
    m = c.m
    p = z * c.A(k) + c.B(k)
    here = p @ vals[k]
    top = c.rho(k) @ vals[k + 1][m:] - here[:m]
    bot = c.rho(k - 1) @ vals[k - 1][:m] - here[m:]
    return np.vstack([top, bot])


def kernel_delta_defect(c, z: complex, column: dict, ell: int) -> float:
    """Max over interior sites of |(S_rho - zA - B) K(., ell) - delta I|."""
    sites = sorted(column)
    m2 = 2 * c.m
    worst = 0.0
    for k in sites[1:-1]:
        res = _row_residual(c, z, column, k)
        if k == ell:
            res = res - np.eye(m2)
        worst = max(worst, opnorm(res))
    return worst


def check_kernel(c, z, column, ell):
    d = kernel_delta_defect(c, z, column, ell)
    if not d <= DELTA_TOL:
        return f"kernel delta identity defect {d:.2e} > {DELTA_TOL:.0e}"
    return None


def seeded_source(m: int, sites, seed: int) -> dict:
    """The seeded random source of ``hamweyl solve --seed``: one complex
    normal 2m-vector per admissible site, real parts drawn before imaginary."""
    rng = np.random.default_rng(seed)
    return {k: (rng.normal(size=2 * m) + 1j * rng.normal(size=2 * m))[:, None]
            for k in sites}


def check_solve(c, z, y: dict, f: dict, window):
    """Residual of (S_rho - zA - B) y = A f at interior sites and the
    square-summability bound sum y*Ay <= (Im z)^-2 sum f*Af."""
    lo, hi = window
    m2 = 2 * c.m
    zero = np.zeros((m2, 1), dtype=complex)
    worst = 0.0
    for k in range(lo + 1, hi):
        af = c.A(k) @ f.get(k, zero)
        res = _row_residual(c, z, y, k) - af
        p = z * c.A(k) + c.B(k)
        scale = 1.0 + opnorm(y[k]) * opnorm(p) + opnorm(af)
        worst = max(worst, opnorm(res) / scale)
    if not worst <= SOLVE_TOL:
        return f"nonhomogeneous residual {worst:.2e} > {SOLVE_TOL:.0e}"
    lhs = sum(float(np.real(np.vdot(y[k], c.A(k) @ y[k]))) for k in f)
    rhs = sum(float(np.real(np.vdot(v, c.A(k) @ v))) for k, v in f.items())
    bound = rhs / z.imag ** 2
    if not lhs <= bound + 1e-6 * (1.0 + rhs):
        return f"l2A bound fails: {lhs:.3e} > {bound:.3e}"
    return None


# ---------------------------------------------------------------------------
# identity checkers
# ---------------------------------------------------------------------------

def check_defect(value, tol: float = IDENTITY_TOL):
    """A defect reported by a self-check: finite, within tolerance, and not
    exactly zero. Rounding makes a real defect over many steps nonzero, so
    an exact zero means the checker did not compute anything."""
    value = float(value)
    if not np.isfinite(value):
        return f"defect {value} is not finite"
    if value == 0.0:
        return "defect is exactly zero (nothing was checked)"
    if not value <= tol:
        return f"defect {value:.2e} > {tol:.0e}"
    return None


def check_sensitive(value, floor: float = 1e-3):
    """A self-check fed a deliberately inconsistent input must report it."""
    value = float(value)
    if not value > floor:
        return f"checker reported {value:.2e} on an inconsistent input"
    return None
