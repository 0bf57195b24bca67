"""Solution propagation for discrete Hamiltonian systems.

The canonical state at site k is the hat pair (psi1(k), psi2(k+1)), which
carries the natural initial and boundary data of the system. Forward and
backward steps solve the two coupled first-order recurrences

    rho(k)   psi2(k+1) = P11(k) psi1(k) + P12(k) psi2(k),
    rho(k-1) psi1(k-1) = P21(k) psi1(k) + P22(k) psi2(k),

with P = z A + B, by factorized linear solves of the off-diagonal pencil
blocks (never explicit inversion). One kernel, :func:`propagate_hats`, does
this for an array of z (a scalar z is a batch of one) and for every caller,
here, in :mod:`hamweyl.weyl` and in the eigenvalue scan, with one pencil
check: a (2,1) block (forward) or (1,2) block (backward) whose 2-norm
reciprocal condition is below ``rcond_min`` at any z raises
:class:`SteppingError`. Where that block of A vanishes, the pencil block is
B's for every z: its condition is computed once per system and site, and
its solve factorizes once for the whole batch.

Trajectories are stored densely with no re-orthogonalization. Column norms
beyond 1e150 raise a scale warning; for long ranges at |Im z| away from zero
use the Riccati form instead.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import _linalg as la
from .errors import InputError, SteppingError
from .system import (
    RCOND_MIN,
    BoundaryData,
    HamiltonianSystem,
    symplectic_unit,
    weighted_boundary,
)

__all__ = [
    "SCALE_LIMIT",
    "HatState",
    "HatTrajectory",
    "FundamentalMatrix",
    "propagate_hats",
    "step_forward",
    "step_backward",
    "hat_trajectory",
    "fundamental",
    "lagrange_bilinear",
    "lagrange_step_defect",
    "lagrange_telescoping_check",
    "fundamental_pair_defect",
    "weyl_solution",
    "jacobi_apply",
]

SCALE_LIMIT = 1e150
_RENORM_LIMIT = 1e100


@dataclass(frozen=True)
class HatState:
    """Hat-state (psi1(k); psi2(k+1)) of r solution columns at one site."""

    k: int
    z: complex
    data: np.ndarray  # (2m, r)

    @property
    def m(self) -> int:
        return self.data.shape[0] // 2

    @property
    def r(self) -> int:
        return self.data.shape[1]

    @property
    def psi1(self) -> np.ndarray:
        return self.data[: self.m]

    @property
    def psi2_next(self) -> np.ndarray:
        return self.data[self.m:]


def _as_state_data(data, m: int) -> np.ndarray:
    arr = np.asarray(data, dtype=complex)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] != 2 * m or not 1 <= arr.shape[1] <= 2 * m:
        raise InputError(f"state data must be (2m, r) with 1 <= r <= 2m, got {arr.shape}")
    return arr


def _solve(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve mat X = rhs for an (N, m, r) stack; one (m, m) matrix is
    factorized once for the whole batch, an (N, m, m) stack per z."""
    n, m, r = rhs.shape
    if mat.ndim == 3 or n == 1:
        return np.linalg.solve(mat, rhs)
    x = np.linalg.solve(mat, rhs.transpose(1, 0, 2).reshape(m, n * r))
    return x.reshape(m, n, r).transpose(1, 0, 2)


def _pencil_solve(sys: HamiltonianSystem, z: np.ndarray, state: np.ndarray,
                  k: int, d: int, rcond_min: float):
    """First half of a step from site k in direction d = +1 or -1.

    Returns (x, p): x is psi1(k+1) (forward) or psi2(k) (backward) from the
    checked off-diagonal pencil solve, p the (N, 2m, 2m) pencil of the step.
    """
    # a is the half the pencil solve replaces, b the half carried over
    a, b = (slice(None, sys.m), slice(sys.m, None))[::d]
    which = "(2,1)" if d > 0 else "(1,2)"
    site = max(k, k + d)
    i = sys._index(site)
    p = z[:, None, None] * sys._A[i] + sys._B[i]
    rhs = sys.rho(k) @ state[:, a] - p[:, b, b] @ state[:, b]
    static, rc_static = sys._offdiag_static[which]
    if static[i]:
        blk, rc = sys._B[i][b, a], rc_static[i]
    else:
        blk = p[:, b, a]
        rc = float(np.min(la.rcond(blk)))
    if rc < rcond_min:
        raise SteppingError(site=site, rcond=rc, which=which)
    return _solve(blk, rhs), p


def propagate_hats(sys: HamiltonianSystem, z, k_start: int, init, k_end: int,
                   *, trajectory: bool = False, renormalize: bool = False,
                   rcond_min: float = RCOND_MIN) -> np.ndarray:
    """Step hat states from ``k_start`` to ``k_end`` at every z of a batch.

    ``z`` is a scalar or a 1-d array of N spectral parameters and ``init`` a
    (2m, r) hat shared by all of them or an (N, 2m, r) stack. Returns the
    (N, 2m, r) hats at ``k_end``, or with ``trajectory`` the
    (|k_end - k_start| + 1, N, 2m, r) hats of every site in step order from
    ``init``. With ``renormalize``, a hat whose largest entry exceeds 1e100
    after a step is divided by that entry (M and the disk functional are
    invariant under a common column scale). Forward steps check and solve
    the (2,1) pencil block at the target site, backward steps the (1,2)
    block at the departing site.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    state = np.empty(z.shape + np.shape(init)[-2:], dtype=complex)
    state[...] = init
    d = 1 if k_end >= k_start else -1
    out = None
    if trajectory:
        out = np.empty((abs(k_end - k_start) + 1,) + state.shape, dtype=complex)
        out[0] = state
    a, b = (slice(None, sys.m), slice(sys.m, None))[::d]
    for j, k in enumerate(range(k_start, k_end, d), 1):
        x, p = _pencil_solve(sys, z, state, k, d, rcond_min)
        y = _solve(sys.rho(k + d), p[:, a, a] @ x + p[:, a, b] @ state[:, b])
        state = np.concatenate((x, y)[::d], axis=1)
        if renormalize:
            scale = np.max(np.abs(state), axis=(1, 2))
            big = scale > _RENORM_LIMIT
            if np.any(big):
                state[big] /= scale[big, None, None]
        if trajectory:
            out[j] = state
    return out if trajectory else state


def step_forward(sys: HamiltonianSystem, z: complex, state: HatState,
                 rcond_min: float = RCOND_MIN) -> HatState:
    """Advance a hat-state from site k to k+1.

    Solves the (2,1) pencil at the target site for psi1(k+1), then recovers
    psi2(k+2) from the weight at k+1.
    """
    k = state.k + 1
    return HatState(k, z, propagate_hats(sys, z, state.k, state.data, k,
                                         rcond_min=rcond_min)[0])


def step_backward(sys: HamiltonianSystem, z: complex, state: HatState,
                  rcond_min: float = RCOND_MIN) -> HatState:
    """Retreat a hat-state from site k to k-1; exact inverse of the forward step.

    Solves the (1,2) pencil at the departing site for psi2(k), then recovers
    psi1(k-1) from the weight at k-1.
    """
    k = state.k - 1
    return HatState(k, z, propagate_hats(sys, z, state.k, state.data, k,
                                         rcond_min=rcond_min)[0])


class HatTrajectory:
    """Dense hat-states of r solution columns over a contiguous site range."""

    def __init__(self, sys: HamiltonianSystem, z: complex, k_lo: int,
                 data: np.ndarray):
        self.sys = sys
        self.z = z
        self.k_lo = k_lo
        self.data = data  # (n, 2m, r)
        self.data.setflags(write=False)
        self.scale_warning = bool(np.max(np.abs(data)) > SCALE_LIMIT)
        if self.scale_warning:
            warnings.warn(
                "solution columns exceed 1e150; consider the Riccati form "
                "for long ranges", RuntimeWarning, stacklevel=3)

    @property
    def m(self) -> int:
        return self.data.shape[1] // 2

    @property
    def r(self) -> int:
        return self.data.shape[2]

    @property
    def k_hi(self) -> int:
        return self.k_lo + self.data.shape[0] - 1

    @property
    def sites(self) -> range:
        return range(self.k_lo, self.k_hi + 1)

    def _i(self, k: int) -> int:
        i = k - self.k_lo
        if not 0 <= i < self.data.shape[0]:
            raise InputError(f"site {k} outside trajectory range "
                             f"[{self.k_lo},{self.k_hi}]")
        return i

    def hat(self, k: int) -> np.ndarray:
        return self.data[self._i(k)]

    def state(self, k: int) -> HatState:
        return HatState(k=k, z=self.z, data=self.hat(k))

    def psi1(self, k: int) -> np.ndarray:
        return self.hat(k)[: self.m]

    def psi2_next(self, k: int) -> np.ndarray:
        """psi2 at site k+1 (the bottom half of the hat at k)."""
        return self.hat(k)[self.m:]

    def psi2(self, k: int) -> np.ndarray:
        """psi2 at site k itself.

        Interior sites read it from the neighbouring hat; at the lower edge
        it is recovered by the pencil half of a backward step.
        """
        if k - 1 >= self.k_lo:
            return self.hat(k - 1)[self.m:]
        x, _ = _pencil_solve(self.sys, np.array([self.z], dtype=complex),
                             self.hat(k)[None], k, -1, RCOND_MIN)
        return x[0]

    def plain(self, k: int) -> np.ndarray:
        """Plain solution value (psi1(k); psi2(k)) as a (2m, r) array."""
        return np.vstack([self.psi1(k), self.psi2(k)])


def hat_trajectory(sys: HamiltonianSystem, z: complex, k_start: int, init,
                   krange, rcond_min: float = RCOND_MIN) -> HatTrajectory:
    """Propagate an initial hat-state over an inclusive site range.

    ``krange = (lo, hi)`` must contain ``k_start``; stepping proceeds forward
    from k_start to hi and backward from k_start to lo.
    """
    init = _as_state_data(init, sys.m)
    lo, hi = int(krange[0]), int(krange[1])
    if not lo <= k_start <= hi:
        raise InputError(f"k_start={k_start} outside requested range [{lo},{hi}]")
    fwd = propagate_hats(sys, z, k_start, init, hi, trajectory=True,
                         rcond_min=rcond_min)
    bwd = propagate_hats(sys, z, k_start, init, lo, trajectory=True,
                         rcond_min=rcond_min)
    return HatTrajectory(sys, z, lo, np.concatenate([bwd[:0:-1, 0], fwd[:, 0]]))


class FundamentalMatrix(HatTrajectory):
    """Normalized 2m x 2m fundamental solution over a site range.

    The left m columns satisfy the boundary condition attached to the base
    site k0, the right m columns are their symplectic complement; the hat
    value at k0 is diag(rho, rho)^{-1} (a~*  J a~*) with a~ the weighted
    boundary matrix. Entries are polynomial in z; the stored trajectory is
    checked for finiteness and overflow only.
    """

    def __init__(self, sys, z, k_lo, data, k0, alpha, alpha_tilde):
        super().__init__(sys, z, k_lo, data)
        self.k0 = k0
        self.alpha = alpha
        self.alpha_tilde = alpha_tilde

    def Theta_hat(self, k: int) -> np.ndarray:
        return self.hat(k)[:, : self.m]

    def Phi_hat(self, k: int) -> np.ndarray:
        return self.hat(k)[:, self.m:]

    def Theta(self, k: int) -> np.ndarray:
        return self.plain(k)[:, : self.m]

    def Phi(self, k: int) -> np.ndarray:
        return self.plain(k)[:, self.m:]

    def theta1(self, k: int) -> np.ndarray:
        return self.hat(k)[: self.m, : self.m]

    def phi1(self, k: int) -> np.ndarray:
        return self.hat(k)[: self.m, self.m:]

    def theta2(self, k: int) -> np.ndarray:
        return self.plain(k)[self.m:, : self.m]

    def phi2(self, k: int) -> np.ndarray:
        return self.plain(k)[self.m:, self.m:]


def _weighted(bd, sys: HamiltonianSystem, k: int) -> np.ndarray:
    """Boundary data weighted at site k; an m x 2m array is taken as already
    weighted."""
    if isinstance(bd, BoundaryData):
        return weighted_boundary(bd, sys, k)
    at = la.as_complex_matrix(bd)
    if at.shape != (sys.m, 2 * sys.m):
        raise InputError(f"weighted boundary matrix must be m x 2m, got {at.shape}")
    return at


def initial_hat(sys: HamiltonianSystem, k0: int, alpha) -> tuple[np.ndarray, np.ndarray]:
    """Initial fundamental hat value at k0 and the weighted boundary matrix.

    ``alpha`` may be :class:`BoundaryData` (weighted internally) or an m x 2m
    array already in weighted form.
    """
    at = _weighted(alpha, sys, k0)
    j = symplectic_unit(sys.m)
    cols = np.hstack([at.conj().T, j @ at.conj().T])
    init = np.linalg.solve(sys.i_rho(k0), cols)
    return init, at


def fundamental(sys: HamiltonianSystem, z: complex, k0: int, alpha, krange,
                rcond_min: float = RCOND_MIN) -> FundamentalMatrix:
    """Normalized fundamental system over ``krange`` based at ``k0``."""
    init, at = initial_hat(sys, k0, alpha)
    traj = hat_trajectory(sys, z, k0, init, krange, rcond_min)
    return FundamentalMatrix(sys, z, traj.k_lo, traj.data, k0, alpha, at)


# ---------------------------------------------------------------------------
# bilinear form
# ---------------------------------------------------------------------------

def lagrange_bilinear(sys: HamiltonianSystem, state1: HatState,
                      state2: HatState) -> np.ndarray:
    """Weighted symplectic pairing of two hat-states at a common site.

    Returns the r1 x r2 matrix state1* J_rho(k) state2. Along solution
    trajectories its site difference telescopes against (z2 - conj(z1))
    times the plain quadratic pairing through A; see
    :func:`lagrange_step_defect`.
    """
    if state1.k != state2.k:
        raise InputError(f"states are at different sites ({state1.k} vs {state2.k})")
    return state1.data.conj().T @ sys.j_rho(state1.k) @ state2.data


def lagrange_step_defect(sys, prev1: HatState, cur1: HatState,
                         prev2: HatState, cur2: HatState) -> float:
    """Relative defect of the one-step telescoping identity at cur.k.

    Checks g(k) - g(k-1) = (z2 - conj(z1)) Psi1(k)* A(k) Psi2(k) with
    g the pairing of :func:`lagrange_bilinear` and Psi the plain values.
    """
    k = cur1.k
    g_cur = lagrange_bilinear(sys, cur1, cur2)
    g_prev = lagrange_bilinear(sys, prev1, prev2)
    plain1 = np.vstack([cur1.psi1, prev1.psi2_next])
    plain2 = np.vstack([cur2.psi1, prev2.psi2_next])
    rhs = (cur2.z - np.conj(cur1.z)) * (plain1.conj().T @ sys.A(k) @ plain2)
    defect = la.opnorm((g_cur - g_prev) - rhs)
    scale = 1.0 + la.opnorm(g_cur) + la.opnorm(g_prev) + la.opnorm(rhs)
    return defect / scale


def lagrange_telescoping_check(sys: HamiltonianSystem, z1: complex, z2: complex,
                               k0: int, steps: int, init1=None, init2=None,
                               renormalize: bool = True) -> float:
    """Stream the telescoping identity over ``steps`` forward steps.

    Returns the maximum relative one-step defect. With ``renormalize`` both
    trajectories are rescaled by a common scalar after each step, so the
    check runs over windows of thousands of steps without overflow (the
    identity is bilinear, hence invariant under a shared rescaling).
    """
    m = sys.m
    h1, h2 = (_as_state_data(np.eye(2 * m) if h is None else h, m)
              for h in (init1, init2))
    r1, r2 = h1.shape[1], h2.shape[1]
    # both trajectories step as one batch; the narrower one is padded with
    # zero columns, which the linear recurrence keeps zero
    hats = np.zeros((2, 2 * m, max(r1, r2)), dtype=complex)
    hats[0, :, :r1], hats[1, :, :r2] = h1, h2

    def states(k, h):
        return HatState(k, z1, h[0, :, :r1]), HatState(k, z2, h[1, :, :r2])

    worst = 0.0
    for k in range(k0, k0 + steps):
        new = propagate_hats(sys, [z1, z2], k, hats, k + 1)
        (p1, p2), (c1, c2) = states(k, hats), states(k + 1, new)
        worst = max(worst, lagrange_step_defect(sys, p1, c1, p2, c2))
        if renormalize:
            new /= max(np.max(np.abs(new)), 1.0)
        hats = new
    return worst


def fundamental_pair_defect(fund_z: FundamentalMatrix,
                            fund_zbar: FundamentalMatrix) -> float:
    """Max relative deviation of hat(zbar,k)* J_rho(k) hat(z,k) from -J.

    Normalized per site by the product of the paired trajectory norms, the
    meaningful scale when fundamental solutions grow along the window.
    """
    sys = fund_z.sys
    j = symplectic_unit(sys.m)
    worst = 0.0
    for k in fund_z.sites:
        if k < fund_zbar.k_lo or k > fund_zbar.k_hi:
            continue
        g = fund_zbar.hat(k).conj().T @ sys.j_rho(k) @ fund_z.hat(k)
        scale = 1.0 + la.opnorm(fund_zbar.hat(k)) * la.opnorm(fund_z.hat(k)) \
            * la.opnorm(sys.rho(k))
        worst = max(worst, la.opnorm(g + j) / scale)
    return worst


# ---------------------------------------------------------------------------
# Weyl solutions and the Jacobi expression
# ---------------------------------------------------------------------------

class WeylTrajectory(HatTrajectory):
    """Hat-states of the 2m x m family Psi (I; M) over the stored range."""

    def __init__(self, sys, z, k_lo, data, k0, M):
        super().__init__(sys, z, k_lo, data)
        self.k0 = k0
        self.M = M

    def u1(self, k: int) -> np.ndarray:
        return self.psi1(k)

    def u2_next(self, k: int) -> np.ndarray:
        return self.psi2_next(k)

    def u2(self, k: int) -> np.ndarray:
        return self.psi2(k)


def weyl_solution(fund: FundamentalMatrix, M) -> WeylTrajectory:
    """Column family U = Psi (I; M) at every stored site of a fundamental."""
    m = fund.m
    M = la.as_complex_matrix(M, (m, m), "M")
    stack = np.vstack([np.eye(m, dtype=complex), M])
    data = fund.data @ stack
    return WeylTrajectory(fund.sys, fund.z, fund.k_lo, data, fund.k0, M)


def jacobi_apply(sys: HamiltonianSystem, y, k: int) -> np.ndarray:
    """Apply the three-term Jacobi expression a y+ + a- y- + b y at site k.

    ``y`` is a callable or dict of m x r values; ``sys`` must carry Jacobi
    coefficients (built by :func:`hamweyl.system.jacobi_system`). psi1
    components of system solutions satisfy this expression with eigenvalue z.
    """
    if sys.jacobi is None:
        raise InputError("system carries no Jacobi coefficients")
    get = y if callable(y) else y.__getitem__
    jc = sys.jacobi
    y_prev = np.atleast_1d(np.asarray(get(k - 1), dtype=complex))
    y_here = np.atleast_1d(np.asarray(get(k), dtype=complex))
    y_next = np.atleast_1d(np.asarray(get(k + 1), dtype=complex))
    return jc.a(k) @ y_next + jc.a(k - 1) @ y_prev + jc.b(k) @ y_here
