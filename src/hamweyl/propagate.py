"""Solution propagation for discrete Hamiltonian systems.

The canonical state at site k is the hat pair (psi1(k), psi2(k+1)), which
carries the natural initial and boundary data of the system. Forward and
backward steps solve the two coupled first-order recurrences

    rho(k)   psi2(k+1) = P11(k) psi1(k) + P12(k) psi2(k),
    rho(k-1) psi1(k-1) = P21(k) psi1(k) + P22(k) psi2(k),

with P = z A + B. A step is the one-step transfer hat(k+d) = T_k(z) hat(k),
whose rows come from factorized solves of the off-diagonal pencil block
and of rho (never explicit inversion). One kernel, :func:`propagate_hats`,
serves every caller, here and in :mod:`hamweyl.weyl`, for an array of z (a
scalar z is a batch of one): it assembles the transfers of a whole site
range and z batch at once, in chunks of at most ``_TRANSFER_STACK``
matrices, and applies them with one matmul per site. One stacked pencil
check covers each chunk: a (2,1) block (forward) or (1,2) block (backward)
whose 2-norm reciprocal condition is below ``RCOND_MIN`` at any z raises
:class:`SteppingError` for the first such site in step order, and a site
beyond the window under the 'error' extension raises only after the steps
before it passed. Where that block of A vanishes at every site, the pencil
block is B's for every z: its condition is computed once per system and
site, and it is factorized once per site for the whole batch, as rho is.
Each z gets the same bits whatever the batch or chunk it is assembled in.

Trajectories are stored densely with no re-orthogonalization; every M of
:mod:`hamweyl.weyl` sweeps a subspace inward with QR instead (ker bt from
the far site, also in the limit chase and the disk walk, or the decaying
subspace of a constant tail from the window edge).
One trajectory type, :class:`HatTrajectory`, serves the fundamental system
(Theta and Phi are its left and right column blocks) and Weyl solutions; it
forms plain values from its hats on each read. Green's kernels hold their
role families as arrays of plain values at [z, conj z] instead, stepped as
one batch (:mod:`hamweyl.green`). Both convert between hats and plain values
only by :func:`_plains` and :func:`_hats`, and form the Riccati variable
V(k) = rho(k) u2(k+1) u1(k)^{-1} only by :func:`_riccati`.
"""

from __future__ import annotations

import numpy as np

from . import _linalg as la
from .errors import DomainError, InputError, SteppingError
from .system import (
    RCOND_MIN,
    BoundaryData,
    HamiltonianSystem,
    _boundary_of_size,
    _finite_z,
    _self_adjoint,
    symplectic_unit,
    weighted_boundary,
)

__all__ = [
    "HatTrajectory",
    "propagate_hats",
    "hat_trajectory",
    "fundamental",
    "lagrange_bilinear",
    "lagrange_step_defect",
    "lagrange_telescoping_check",
    "fundamental_pair_defect",
    "a_form_sum",
    "weyl_solution",
    "jacobi_apply",
]


def _as_state_data(data, m: int) -> np.ndarray:
    arr = np.asarray(data, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != 2 * m or not 1 <= arr.shape[1] <= 2 * m:
        raise InputError(f"state data must be (2m, r) with 1 <= r <= 2m, got {arr.shape}")
    return arr


# the most one-step transfers (sites x z) one assembly holds, which bounds
# the stacks of long windows and large z batches
_TRANSFER_STACK = 1 << 11


def _pencil_check(sys: HamiltonianSystem, z: np.ndarray, sites: range,
                  p: np.ndarray, d: int):
    """Check the off-diagonal pencil blocks P_ba of the steps at ``sites``
    (stored positions ``p``) in direction d.

    Returns None when that block of A vanishes at every stored site, so
    P_ba is B's for every z, and else the (n, m, m, N) blocks P_ba. The
    first site in step order whose 2-norm rcond is below ``RCOND_MIN`` at
    any z raises :class:`SteppingError`.
    """
    a, b = (slice(None, sys.m), slice(sys.m, None))[::d]
    which = "(2,1)" if d > 0 else "(1,2)"
    static, bad = sys._offdiag_static[which]
    if static and not bad.any():
        return None
    blk = None
    if static:
        bad = bad[p]
    else:
        blk = sys._A[p, b, a, None] * z + sys._B[p, b, a, None]
        bad = la.fails_check(blk.transpose(0, 3, 1, 2), "rcond", RCOND_MIN).any(axis=1)
    if bad.any():
        j = int(np.argmax(bad))
        at_j = sys._B[p[j], b, a][None] if blk is None else blk[j].transpose(2, 0, 1)
        raise SteppingError(site=sites[j], rcond=np.min(la.rcond(at_j)), which=which)
    return blk


def _solve_blocks(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^-1 b for right-hand sides b of shape (n, m, r, N), z last, and
    either (n, m, m) matrices a, one per site and factorized once for all
    r N columns of its site, or (n, m, m, N) matrices, one per site and z.
    1 x 1 matrices divide, several times faster than LAPACK."""
    if a.shape[1] == 1:
        return b / (a[..., None] if a.ndim == 3 else a)
    if a.ndim == 3:
        return np.linalg.solve(a, b.reshape(b.shape[:2] + (-1,))).reshape(b.shape)
    return np.linalg.solve(a.transpose(0, 3, 1, 2),
                           b.transpose(0, 3, 1, 2)).transpose(0, 2, 3, 1)


def _assemble(sys: HamiltonianSystem, z: np.ndarray, visited: range,
              idx: np.ndarray, d: int) -> np.ndarray:
    """Checked one-step transfers in direction d between the consecutive
    ``visited`` sites (stored positions ``idx``) as an (n, N, 2m, 2m) array.

    With a the half of the hat the pencil solve replaces and b the half it
    carries over, the a rows are X = P_ba^-1 [rho(k), -P_bb] and the b rows
    Y = rho(k+d)^-1 (P_aa X + [0, P_ab]), with P the pencil at the target
    site (forward) or the departing site (backward). rho(k+d), and P_ba
    where that block of A vanishes at every site, is factorized once per
    site for all N 2m right-hand sides. The blocks are built with z as
    their last axis, so the elementwise work runs along the batch.
    """
    m = sys.m
    a, b = (slice(None, m), slice(m, None))[::d]
    sites, p = (visited[1:], idx[1:]) if d > 0 else (visited[:-1], idx[:-1])
    blk = _pencil_check(sys, z, sites, p, d)
    B, rho = sys._B[p], sys._rho[idx]
    pen = sys._A[p, ..., None] * z + B[..., None]
    n, nz = len(p), len(z)
    x = np.empty((n, m, 2 * m, nz), dtype=complex)
    x[:, :, a] = rho[:-1, :, :, None]
    np.negative(pen[:, b, b], out=x[:, :, b])
    x = _solve_blocks(B[:, b, a] if blk is None else blk, x)
    # w = P_aa X + [0, P_ab] as m elementwise products along the batch,
    # far cheaper for large N than a matmul per site and z
    p_aa = pen[:, a, a]
    w = p_aa[:, :, 0, None] * x[:, None, 0]
    for k in range(1, m):
        w += p_aa[:, :, k, None] * x[:, None, k]
    w[:, :, b] += pen[:, a, b]
    t = np.empty((n, nz, 2 * m, 2 * m), dtype=complex)
    tz = t.transpose(0, 2, 3, 1)
    tz[:, a] = x
    tz[:, b] = _solve_blocks(rho[1:], w)
    return t


def _transfers(sys: HamiltonianSystem, z: np.ndarray, k_start: int,
               k_end: int) -> np.ndarray:
    """One-step transfers T_k(z), hat(k + d) = T_k(z) hat(k), from
    ``k_start`` to ``k_end`` as an (n, N, 2m, 2m) array in step order.

    Forward steps check the (2,1) pencil block at the target site, backward
    steps the (1,2) block at the departing site. A site unreachable under
    the extension policy raises :class:`DomainError` only after the pencils
    of the steps before it passed their check.
    """
    d = 1 if k_end >= k_start else -1
    visited = range(k_start, k_end + d, d)
    try:
        idx = sys._indices(visited)
    except DomainError:
        j = next(j for j, k in enumerate(visited) if not sys.in_reach(k))
        sites = visited[1:j] if d > 0 else visited[:j]
        if sites:
            _pencil_check(sys, z, sites, sys._indices(sites), d)
        raise
    return _assemble(sys, z, visited, idx, d)


def _steps(sys: HamiltonianSystem, z: np.ndarray, k_start: int, k_end: int):
    """The (N, 2m, 2m) transfers from ``k_start`` to ``k_end`` one by one in
    step order, assembled in chunks of at most ``_TRANSFER_STACK``."""
    d = 1 if k_end >= k_start else -1
    width = max(_TRANSFER_STACK // max(len(z), 1), 1)
    for k in range(k_start, k_end, d * width):
        yield from _transfers(sys, z, k, k + d * min(width, d * (k_end - k)))


def propagate_hats(sys: HamiltonianSystem, z, k_start: int, init, k_end: int,
                   *, trajectory: bool = False) -> np.ndarray:
    """Step hat states from ``k_start`` to ``k_end`` at every z of a batch.

    ``z`` is a scalar or a 1-d array of N spectral parameters and ``init`` a
    (2m, r) hat shared by all of them or an (N, 2m, r) stack. Returns the
    (N, 2m, r) hats at ``k_end``, or with ``trajectory`` the
    (|k_end - k_start| + 1, N, 2m, r) hats of every site in step order from
    ``init``. Each step is one matmul by the transfer of :func:`_transfers`.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    state = np.empty(z.shape + np.shape(init)[-2:], dtype=complex)
    state[...] = init
    out = None
    if trajectory:
        out = np.empty((abs(k_end - k_start) + 1,) + state.shape, dtype=complex)
        out[0] = state
    for j, t in enumerate(_steps(sys, z, k_start, k_end), 1):
        state = t @ state
        if trajectory:
            out[j] = state
    return out if trajectory else state


class HatTrajectory:
    """Dense hat-states of r solution columns over a contiguous site range.

    ``k0`` is the site of the initial data. A fundamental system is the
    2m-column trajectory of :func:`fundamental`: its left m columns are
    Theta, its right m columns Phi.

    The plain values (psi1(k); psi2(k)) are formed from the hats on each
    read by :func:`_plains`; psi2 at ``k_lo`` only when a read starts there,
    since it costs the pencil half of a backward step (which may raise
    :class:`SteppingError`).
    """

    def __init__(self, sys: HamiltonianSystem, z: complex, k_lo: int,
                 data: np.ndarray, k0: int):
        self.sys = sys
        self.z = z
        self.k_lo = k_lo
        self.k0 = k0
        self.data = data  # (n, 2m, r)
        self.data.setflags(write=False)

    @property
    def m(self) -> int:
        return self.data.shape[1] // 2

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

    def _rows(self, sites: range) -> tuple[int, int]:
        """Rows [i, j) of ``data`` for a run of consecutive sites."""
        return (self._i(sites[0]), self._i(sites[-1]) + 1) if sites else (0, 0)

    def hat(self, k: int) -> np.ndarray:
        return self.data[self._i(k)]

    def hats(self, sites: range) -> np.ndarray:
        """Hats at a run of consecutive sites as an (n, 2m, r) array."""
        i, j = self._rows(sites)
        return self.data[i:j]

    def psi1(self, k: int) -> np.ndarray:
        return self.hat(k)[: self.m]

    def psi2_next(self, k: int) -> np.ndarray:
        """psi2 at site k+1 (the bottom half of the hat at k)."""
        return self.hat(k)[self.m:]

    def plain(self, k: int) -> np.ndarray:
        """Plain solution value (psi1(k); psi2(k)) as a (2m, r) array."""
        return self.plains(range(k, k + 1))[0]

    def plains(self, sites: range) -> np.ndarray:
        """Plain values at a run of consecutive sites as an (n, 2m, r) array."""
        i, j = self._rows(sites)
        if i == 0 < j:
            t_lo = _lower_edge_transfers(self.sys, self.z, self.k_lo)[0]
            return _plains(self.data[:j], t_lo)
        return _plains(self.data[max(i - 1, 0):j])


def _plains(hats: np.ndarray, t_lo: np.ndarray | None = None) -> np.ndarray:
    """Plain values (psi1(k); psi2(k)) of hats (psi1(k); psi2(k+1)) at
    consecutive sites on axis -3: at all sites but the first, or at all
    given the transfers ``t_lo`` of :func:`_lower_edge_transfers` there."""
    m = hats.shape[-2] // 2
    if t_lo is None:
        return np.concatenate((hats[..., 1:, :m, :], hats[..., :-1, m:, :]), axis=-2)
    psi2 = np.concatenate(((t_lo @ hats[..., 0, :, :])[..., None, m:, :],
                           hats[..., :-1, m:, :]), axis=-3)
    return np.concatenate((hats[..., :m, :], psi2), axis=-2)


def _hats(plains) -> np.ndarray:
    """Hats (psi1(k); psi2(k+1)) of n + 1 consecutive plain values on axis
    -3, (2m, r) or (2m,) each, at the first n sites."""
    p = np.asarray(plains, dtype=complex)
    p = p[..., None] if p.ndim == 2 else p
    m = p.shape[-2] // 2
    return np.concatenate((p[..., :-1, :m, :], p[..., 1:, m:, :]), axis=-2)


def _riccati(sys: HamiltonianSystem, sites, hats: np.ndarray):
    """V(k) = rho(k) u2(k+1) u1(k)^{-1} of (n, 2m, m) hats (u1(k); u2(k+1))
    at ``sites`` as an (n, m, m) stack, NaN where a hat is not finite or u1(k)
    is singular (rcond below ``_linalg._SINGULAR_RCOND``), and the mask of
    the other sites."""
    u1 = hats[:, :sys.m]
    ok = np.isfinite(hats).all(axis=(1, 2))
    ok[ok] = ~(la.rcond(u1[ok]) < la._SINGULAR_RCOND)
    v = np.full(u1.shape, np.nan, dtype=complex)
    v[ok] = sys.rho(np.asarray(sites)[ok]) @ la.rsolve(hats[ok, sys.m:], u1[ok])
    return v, ok


def _lower_edge_transfers(sys: HamiltonianSystem, z, k: int) -> np.ndarray:
    """The (N, 2m, 2m) backward transfers at site k for a batch of z whose
    psi2 rows give psi2(k) from the hat at k. They read only site k: their
    psi1 rows, which would need rho(k - 1), are built with rho(k) and must
    be dropped."""
    return _assemble(sys, np.atleast_1d(np.asarray(z, dtype=complex)),
                     range(k, k - 2, -1), sys._indices(range(k, k + 1)).repeat(2), -1)[0]


def _trajectory(sys: HamiltonianSystem, z, k_start: int, init, lo: int,
                hi: int) -> np.ndarray:
    """Hats at the sites lo..hi and every z of a batch, (hi - lo + 1, N, 2m,
    r): steps from ``k_start`` forward to hi, then backward to lo."""
    fwd = propagate_hats(sys, z, k_start, init, hi, trajectory=True)
    bwd = propagate_hats(sys, z, k_start, init, lo, trajectory=True)
    return np.concatenate([bwd[:0:-1], fwd])


def hat_trajectory(sys: HamiltonianSystem, z: complex, k_start: int, init,
                   krange) -> HatTrajectory:
    """Propagate an initial hat-state over an inclusive site range.

    ``krange = (lo, hi)`` must contain ``k_start``; stepping proceeds forward
    from k_start to hi and backward from k_start to lo.
    """
    init = _as_state_data(init, sys.m)
    lo, hi = int(krange[0]), int(krange[1])
    if not lo <= k_start <= hi:
        raise InputError(f"k_start={k_start} outside requested range [{lo},{hi}]")
    return HatTrajectory(sys, z, lo, _trajectory(sys, z, k_start, init, lo, hi)[:, 0],
                         k_start)


def _weighted(bd, sys: HamiltonianSystem, k) -> np.ndarray:
    """Boundary data weighted at site k, or stacked over a sequence of
    sites; an m x 2m array is taken as already weighted."""
    if isinstance(bd, BoundaryData):
        return weighted_boundary(bd, sys, k)
    at = _boundary_of_size(bd, sys.m)
    return np.broadcast_to(at, np.shape(k) + at.shape)


def initial_hat(sys: HamiltonianSystem, k0: int, alpha) -> np.ndarray:
    """Initial fundamental hat value at k0: diag(rho, rho)^{-1} (a~*  J a~*)
    with a~ the weighted boundary matrix.

    ``alpha`` may be self-adjoint :class:`BoundaryData` (weighted
    internally) or an m x 2m array already in weighted form.
    """
    at = _weighted(_self_adjoint(alpha), sys, k0)
    j = symplectic_unit(sys.m)
    cols = np.hstack([at.conj().T, j @ at.conj().T])
    return np.linalg.solve(sys.i_rho(k0), cols)


def fundamental(sys: HamiltonianSystem, z: complex, k0: int, alpha,
                krange) -> HatTrajectory:
    """Normalized fundamental system over ``krange`` based at ``k0``.

    The left m columns satisfy the boundary condition attached to k0, the
    right m columns are their symplectic complement. Entries are polynomial
    in z.
    """
    return hat_trajectory(sys, z, k0, initial_hat(sys, k0, alpha), krange)


# ---------------------------------------------------------------------------
# bilinear form
# ---------------------------------------------------------------------------

def lagrange_bilinear(sys: HamiltonianSystem, k, hat1: np.ndarray,
                      hat2: np.ndarray) -> np.ndarray:
    """Weighted symplectic pairing of two hat-states at site k.

    Returns the r1 x r2 matrix hat1* J_rho(k) hat2, or for a range of sites
    ``k`` and (n, 2m, r) hat stacks the (n, r1, r2) stack of pairings. Along
    solution trajectories its site difference telescopes against
    (z2 - conj(z1)) times the plain quadratic pairing through A; see
    :func:`lagrange_step_defect`.
    """
    return la.adjoint(hat1) @ sys.j_rho(k) @ hat2


def _step_defects(sys: HamiltonianSystem, z1: complex, z2: complex, k: int,
                  prev1: np.ndarray, cur1: np.ndarray, prev2: np.ndarray,
                  cur2: np.ndarray) -> np.ndarray:
    """Relative one-step telescoping defects at the n sites k, k+1, ...

    ``prev`` and ``cur`` are (n, 2m, r) stacks of the hats before and after
    each step; all n defects come from one stacked pairing, one stacked
    Psi* A Psi product and one stacked 2-norm.
    """
    sites = range(k, k + cur1.shape[0])
    g_cur = lagrange_bilinear(sys, sites, cur1, cur2)
    g_prev = lagrange_bilinear(sys, range(k - 1, sites.stop - 1), prev1, prev2)
    plain1, plain2 = (_plains(np.stack((prev, cur), axis=1))[:, 0]
                      for prev, cur in ((prev1, cur1), (prev2, cur2)))
    rhs = (z2 - np.conj(z1)) * (la.adjoint(plain1) @ sys.A(sites) @ plain2)
    defect, n_cur, n_prev, n_rhs = np.linalg.norm(
        np.stack([(g_cur - g_prev) - rhs, g_cur, g_prev, rhs]), 2, axis=(2, 3))
    return defect / (1.0 + n_cur + n_prev + n_rhs)


def lagrange_step_defect(sys: HamiltonianSystem, z1: complex, z2: complex,
                         k: int, prev1: np.ndarray, cur1: np.ndarray,
                         prev2: np.ndarray, cur2: np.ndarray) -> float:
    """Relative defect of the one-step telescoping identity at site k.

    ``prev`` and ``cur`` are the hats at k-1 and k of a solution at z1 (1)
    and at z2 (2). Checks g(k) - g(k-1) = (z2 - conj(z1)) Psi1(k)* A(k)
    Psi2(k) with g the pairing of :func:`lagrange_bilinear` and Psi the
    plain values.
    """
    return float(_step_defects(sys, z1, z2, k, prev1[None], cur1[None],
                               prev2[None], cur2[None])[0])


def lagrange_telescoping_check(sys: HamiltonianSystem, z1: complex, z2: complex,
                               k0: int, steps: int, init1=None, init2=None) -> float:
    """Stream the telescoping identity over ``steps`` forward steps.

    Returns the maximum relative one-step defect. Both trajectories step
    as one two-z batch through transfers assembled a chunk of sites at a
    time, and are rescaled by a common scalar after each step, so the
    check runs over windows of thousands of steps without overflow (the
    identity is bilinear, hence invariant under a shared rescaling). The
    hats before and after every step are kept, and the defects of all steps
    are computed at once after the stepping loop.
    """
    z1, z2 = _finite_z(z1), _finite_z(z2)
    m = sys.m
    h1, h2 = (_as_state_data(np.eye(2 * m) if h is None else h, m)
              for h in (init1, init2))
    r1, r2 = h1.shape[1], h2.shape[1]
    # both trajectories step as one batch; the narrower one is padded with
    # zero columns, which the linear recurrence keeps zero
    hats = np.zeros((2, 2 * m, max(r1, r2)), dtype=complex)
    hats[0, :, :r1], hats[1, :, :r2] = h1, h2
    if steps <= 0:
        return 0.0

    prev = np.empty((steps,) + hats.shape, dtype=complex)
    cur = np.empty_like(prev)
    z = np.array([z1, z2], dtype=complex)
    for j, t in enumerate(_steps(sys, z, k0, k0 + steps)):
        prev[j] = hats
        new = np.matmul(t, hats, out=cur[j])
        hats = new / max(np.max(np.abs(new)), 1.0)
    defects = _step_defects(sys, z1, z2, k0 + 1, prev[:, 0, :, :r1],
                            cur[:, 0, :, :r1], prev[:, 1, :, :r2],
                            cur[:, 1, :, :r2])
    # NaN defects are passed over, as a running max(worst, defect) would
    return float(np.fmax.reduce(defects, initial=0.0))


def _pairing_defects(sys: HamiltonianSystem, hl: np.ndarray, hr: np.ndarray,
                     sites: range, target: np.ndarray) -> list[float]:
    """Per site of ``sites``, the deviation of hl(k)* J_rho(k) hr(k) from
    ``target`` for (n, 2m, r) hat stacks over those sites, relative to the
    product of the paired norms, the meaningful scale when solutions grow
    along the window."""
    g = lagrange_bilinear(sys, sites, hl, hr)
    scale = 1.0 + la.opnorm(hl) * la.opnorm(hr) * la.opnorm(sys.rho(sites))
    return (la.opnorm(g - target) / scale).tolist()


def fundamental_pair_defect(fund_z: HatTrajectory,
                            fund_zbar: HatTrajectory) -> float:
    """Max relative deviation of hat(zbar,k)* J_rho(k) hat(z,k) from -J
    over the common sites, normalized per site by the paired norms."""
    sites = range(max(fund_z.k_lo, fund_zbar.k_lo),
                  min(fund_z.k_hi, fund_zbar.k_hi) + 1)
    target = -symplectic_unit(fund_z.m)
    return max([0.0] + _pairing_defects(fund_z.sys, fund_zbar.hats(sites),
                                        fund_z.hats(sites), sites, target))


def a_form_sum(sys: HamiltonianSystem, traj: HatTrajectory,
               sites: range) -> np.ndarray:
    """Hermitized sum_k Psi(k)* A(k) Psi(k) of plain values over a run of
    consecutive ``sites``, as one stacked product."""
    psi = traj.plains(sites)
    return la.herm(np.sum(la.adjoint(psi) @ sys.A(sites) @ psi, axis=0))


# ---------------------------------------------------------------------------
# Weyl solutions and the Jacobi expression
# ---------------------------------------------------------------------------

def _weyl_columns(m: int, M) -> np.ndarray:
    """The 2m x m stack (I; M) that combines fundamental columns into U."""
    M = la.as_complex_matrix(M, (m, m), "M")
    return np.vstack([np.eye(m, dtype=complex), M])


def weyl_solution(fund: HatTrajectory, M) -> HatTrajectory:
    """Column family U = Psi (I; M) at every stored site of a fundamental."""
    return HatTrajectory(fund.sys, fund.z, fund.k_lo,
                         fund.data @ _weyl_columns(fund.m, M), fund.k0)


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
