"""Weyl-Titchmarsh theory: M-functions, disks, limits, measures, Riccati.

Sign conventions
----------------
With sigma = sign((ell - k0) Im z), the disk functional used throughout is

    E_ell(M) = sigma * Uhat(z, ell)* (-i J_rho(ell)) Uhat(z, ell),

Hermitized numerically. The Weyl disk is {M : E_ell(M) <= 0}, its interior
{E < 0}, the circle {E = 0}; E_ell is nondecreasing in ell, the disks nest,
and the energy identity

    2 sigma Im(M) + E_ell(M) = 2 |Im z| sum_{+[k0,ell]} U* A U

holds along with sigma Im(M) > 0 on the disk. These four statements fix the
sign of E uniquely; the self-checks in the test suite enforce all of them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

from . import _linalg as la
from .errors import EigenvalueHitError, HamweylError, InputError, TransformPoleError
from .propagate import (
    HatTrajectory,
    _riccati,
    _steps,
    _transfers,
    _weighted,
    initial_hat,
    propagate_hats,
)
from .system import (
    TOL_PSD,
    BoundaryData,
    HamiltonianSystem,
    _self_adjoint,
    dirichlet,
)

_QUAD_TOL = 1e-9            # absolute Stieltjes quadrature tolerance per bin
_MEASURE_TOL = 1e-6         # Richardson gap of a converged schedule, relative to the mass
_FIT_Y_MAX = 1e6            # largest y of the large-argument Herglotz fit
_XI_SINGULAR = 1e-12        # smin(M) / max(1, |M|) below which xi skips a point
_JUMP_THRESHOLD = 1e-3      # trace increment above which a bin is part of a jump

__all__ = [
    "DiskContext",
    "MFunction",
    "HalfLineLimit",
    "LimitOptions",
    "SpectralMeasure",
    "HerglotzReport",
    "XiReport",
    "RiccatiSolutionReport",
    "RiccatiResidualReport",
    "sigma_of",
    "disk_context",
    "plus_interval",
    "e_functional",
    "m_regular",
    "disk_membership",
    "lft_alpha_change",
    "disk_diameter_estimate",
    "limit_m",
    "herglotz_check",
    "regular_m_evaluator",
    "eigenvalues",
    "spectral_measure",
    "fit_herglotz_parts",
    "locate_jumps",
    "xi_function",
    "riccati_from_solution",
    "riccati_residual",
]


def _admissible_z(z):
    """z as a complex, or an array of z as a 1-d array, once each is finite
    with Im z != 0, as every M-function and Green's matrix needs; else
    :class:`InputError` naming the first that is not."""
    zs = np.asarray(z, dtype=complex).reshape(-1)
    bad = ~(np.isfinite(zs) & (zs.imag != 0))
    if bad.any():
        raise InputError(f"need a finite z with Im z != 0, not z={zs[bad.argmax()]}")
    return complex(zs[0]) if np.ndim(z) == 0 else zs


def sigma_of(ell: int, k0: int, z: complex) -> int:
    """sign((ell - k0) Im z); requires ell != k0 and Im z != 0."""
    s = (ell - k0) * z.imag
    if s == 0:
        raise InputError("sigma undefined: need ell != k0 and Im z != 0")
    return 1 if s > 0 else -1


def _herglotz_margin(M: np.ndarray, sigma) -> np.ndarray:
    """The least eigenvalue of sigma Im M, positive where M is
    sigma-Herglotz: of one matrix, or of each in a stack with one sigma or
    one per matrix."""
    sigma = np.reshape(sigma, np.shape(sigma) + (1, 1))
    return np.linalg.eigvalsh(la.herm(sigma * la.imag_part(M)))[..., 0]


@dataclass(frozen=True)
class DiskContext:
    """Fixed data of one finite-interval Weyl disk: z, base site, far site,
    and self-adjoint boundary data at the base site."""

    z: complex
    k0: int
    ell: int
    alpha: object  # BoundaryData or m x 2m weighted array

    @property
    def sigma(self) -> int:
        return sigma_of(self.ell, self.k0, self.z)

    def conjugate(self) -> "DiskContext":
        return replace(self, z=np.conj(self.z))


def disk_context(sys: HamiltonianSystem, z: complex, k0: int, ell: int,
                 alpha) -> DiskContext:
    """Validated disk context.

    Requires an admissible z (:func:`_admissible_z`), ell != k0, and
    self-adjoint base data. When A is not pointwise positive definite the
    two-point interval must be long enough for the summed quadratic form to
    be definite; A is examined only on intervals shorter than that, and a
    RuntimeWarning says when it fails.
    """
    z = _admissible_z(z)
    if ell == k0:
        raise InputError("disk context requires ell != k0")
    alpha = _self_adjoint(alpha)
    if abs(ell - k0) < 2 and not all(
            la.min_eig_herm(sys.A(k)) > 0
            for k in range(min(k0, ell), max(k0, ell) + 1)):
        warnings.warn(
            "interval [k0, ell] may be too short for a definite quadratic "
            "form (A is not pointwise positive definite)", RuntimeWarning,
            stacklevel=2)
    return DiskContext(z=z, k0=k0, ell=ell, alpha=alpha)


def plus_interval(k0: int, ell: int) -> range:
    """The half-open summation interval [min+1, max] used by the disk theory."""
    return range(min(k0, ell) + 1, max(k0, ell) + 1)


# ---------------------------------------------------------------------------
# the disk functional and regular M-functions
# ---------------------------------------------------------------------------

def e_functional(sys: HamiltonianSystem, ctx: DiskContext, M,
                 fund: HatTrajectory | None = None) -> np.ndarray:
    """Disk functional E_ell(M), Hermitian m x m.

    Negative definite values lie in the open Weyl disk, zero on the circle.
    The fundamental hat at ell is that of the far-site walk
    (:func:`_outward`) at z; an E past the float range raises
    :class:`HamweylError`. ``fund`` is accepted and ignored.
    """
    M = la.as_complex_matrix(M, (sys.m, sys.m), "M")
    hats, x = _outward(sys, np.array([ctx.z]), ctx.k0,
                       initial_hat(sys, ctx.k0, ctx.alpha), 0, [ctx.ell])[0]
    with np.errstate(over="ignore", invalid="ignore"):
        e_s = _disk_functional(sys, ctx.sigma, ctx.ell, hats[0], M)  # E * 4**-x
        e = np.ldexp(e_s.view(float), 2 * x[0]).view(complex)
    if not np.isfinite(e).all():
        raise HamweylError(f"E at ell={ctx.ell}, z={ctx.z} is not finite: "
                           "it leaves the float range")
    return e


def _disk_functional(sys, sigma: int, ell, hat: np.ndarray, M: np.ndarray) -> np.ndarray:
    """E_ell(M) from the fundamental hat at ell, or one per site over a
    sequence of sites with stacks of hats and M; hat * 2**-e gives
    E * 4**-e."""
    eye = np.broadcast_to(np.eye(sys.m, dtype=complex), M.shape)
    uhat = hat @ np.concatenate([eye, M], axis=-2)  # Psi^ (I; M)
    return _disk_form(sigma, sys.j_rho(ell), uhat)


def _disk_form(sigma, jr: np.ndarray, u: np.ndarray) -> np.ndarray:
    """sigma herm(-i u* J_rho u), the disk's form of the hat columns u, with
    J_rho ``jr`` at their site; stacks broadcast."""
    return la.herm(-1j * sigma * (la.adjoint(u) @ jr @ u))


@dataclass
class MFunction:
    """Regular-interval Weyl-Titchmarsh matrix with its pole diagnostic."""

    M: np.ndarray
    smin: float


# the one threshold of the "z is a pole of M" rule; sweep steps per QR
_M_SINGULAR_TOL = 1e-13
_QR_STEPS = 8


def _pole_rule(a: np.ndarray, b: np.ndarray):
    """M = a^-1 b over (N, m, m) stacks and the one rule for "z is a pole of
    M": smin = (1 + ||M||_2^2)^(-1/2), the smallest singular value of the top
    block of an orthonormal basis of span(I; M), is below 1e-13 or M is not
    finite. Returns (M, smin, hit), M NaN where hit."""
    with np.errstate(all="ignore"):
        try:
            M = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:  # NaN where a is exactly singular
            M = np.full(b.shape, np.nan, dtype=complex)
            ok = np.linalg.det(a) != 0
            M[ok] = np.linalg.solve(a[ok], b[ok])
        ok = np.all(np.isfinite(M), axis=(1, 2))
        smin = np.zeros(len(M))
        smin[ok] = 1.0 / np.hypot(1.0, la.opnorm(M[ok]))
    hit = smin < _M_SINGULAR_TOL
    M[hit] = np.nan
    return M, smin, hit


def _sweep_m(sys: HamiltonianSystem, k_inv: np.ndarray, starts, k0: int,
             y: np.ndarray, z: np.ndarray):
    """(M, smin, hit) for each member of a stack of solution families: at
    every z of a batch for one member (which starts off k0), or at one z
    for several.

    Member i is the family whose hats at ``starts[i]`` span the m columns
    of y[i] (2m x m); the sites lie on one side of k0, farthest first. One
    inward pass sweeps them all through the transfers of
    :func:`hamweyl.propagate.propagate_hats`, from starts[0] to k0: member i
    joins the stack when the pass reaches starts[i], and takes a QR every 8
    of its own steps, so each M is bit for bit that of a pass of its own.
    Then (C; D) = k_inv Y(k0), with k_inv the inverse initial hat at k0, and
    M = D C^-1 under :func:`_pole_rule`.
    """
    joins = [abs(s - starts[0]) for s in starts]  # steps before each joins
    by_phase = {}
    for i, j in enumerate(joins):
        by_phase.setdefault(j % _QR_STEPS, []).append(i)
    stack, n = y[:1], 1
    for j, t in enumerate(_steps(sys, z, starts[0], k0)):
        if j % _QR_STEPS in by_phase:
            due = [i for i in by_phase[j % _QR_STEPS] if joins[i] < j]
            if len(due) == n:
                stack = np.linalg.qr(stack)[0]
            elif due:
                stack[due] = np.linalg.qr(stack[due])[0]
        if n < len(joins) and joins[n] == j:
            stack, n = np.concatenate([stack, y[n:n + 1]]), n + 1
        stack = t @ stack
    cd = np.swapaxes(k_inv @ stack, 1, 2)  # M^T = C^-T D^T
    mt, smin, hit = _pole_rule(cd[:, :, :sys.m], cd[:, :, sys.m:])
    return np.swapaxes(mt, 1, 2), smin, hit


def _ker_basis(bt: np.ndarray) -> np.ndarray:
    """Orthonormal 2m x m basis of ker bt for a weighted boundary row bt,
    or one for each row of an (n, m, 2m) stack."""
    return la.adjoint(np.linalg.svd(bt)[2][..., bt.shape[-2]:, :])


def _base_hat(sys: HamiltonianSystem, k0: int, alpha):
    """The initial hat at k0 and its inverse. :func:`initial_hat` checks
    that ``alpha`` is self-adjoint; weighted data with a singular hat is not
    either, and raises :class:`InputError`."""
    hat = initial_hat(sys, k0, alpha)
    try:
        return hat, np.linalg.inv(hat)
    except np.linalg.LinAlgError:
        raise InputError(f"base data with a singular initial hat at k0={k0} "
                         "is not self-adjoint") from None


def m_regular(sys: HamiltonianSystem, ctx: DiskContext, beta,
              fund: HatTrajectory | None = None) -> MFunction:
    """Weyl-Titchmarsh matrix of the regular two-point problem.

    M by the inward sweep of :func:`regular_m_evaluator` at the z of
    ``ctx``; where z is a pole of M (for real z, an eigenvalue of the
    problem seen from k0) it raises :class:`EigenvalueHitError`. ``fund``
    is accepted and ignored.
    """
    if ctx.z.imag == 0:  # a real z needs self-adjoint far data
        _self_adjoint(beta)
    (M,), (smin,) = _m_at(sys, ctx, beta, [ctx.z])
    return MFunction(M=M, smin=float(smin))


def _m_at(sys: HamiltonianSystem, ctx: DiskContext, beta, zs):
    """(M, smin) of the regular problem of ``ctx`` with far data ``beta`` at
    each z of ``zs`` as one evaluator batch; the first pole raises
    :class:`EigenvalueHitError`."""
    M, smin, hit = regular_m_evaluator(sys, ctx.k0, ctx.ell, ctx.alpha, beta).extract(zs)
    if hit.any():
        i = int(np.argmax(hit))
        raise EigenvalueHitError(complex(zs[i]), float(smin[i]))
    return M, smin


def disk_membership(E: np.ndarray, tol: float = 1e-9) -> str:
    """Classify a disk-functional value: circle, interior, exterior, or
    boundary_ambiguous."""
    eigs = np.linalg.eigvalsh(la.herm(E))
    norm = float(np.max(np.abs(eigs))) if eigs.size else 0.0
    if norm <= tol:
        return "circle"
    if eigs[-1] < -tol:
        return "interior"
    if eigs[-1] > tol:
        return "exterior"
    return "boundary_ambiguous"


def lft_alpha_change(M_gamma, alpha: BoundaryData, gamma: BoundaryData) -> np.ndarray:
    """Base-boundary change as a linear fractional transformation.

    Maps the matrix computed with base data gamma to the one with base data
    alpha (far-end data fixed):
    [-a J g* + a g* M] [a g* + a J g* M]^{-1}.
    """
    M_gamma = la.as_complex_matrix(M_gamma)
    m = M_gamma.shape[0]
    from .system import symplectic_unit

    j = symplectic_unit(m)
    ag = alpha.gamma @ gamma.gamma.conj().T
    ajg = alpha.gamma @ j @ gamma.gamma.conj().T
    num = -ajg + ag @ M_gamma
    den = ag + ajg @ M_gamma
    if la.rcond(den) < la._SINGULAR_RCOND:
        raise TransformPoleError(
            "boundary-change transform has a singular denominator")
    return la.rsolve(num, den)


# ---------------------------------------------------------------------------
# limiting disks
# ---------------------------------------------------------------------------

def _disk_diameter(sys, sigma: int, ell, hats: np.ndarray, exps) -> np.ndarray:
    """Per-direction diameters d_i = 2 (lam_i(F22(z)) lam_i(F22(conj z)))^(-1/2)
    of the Weyl disk at (z, ell), descending, from the fundamental hats at
    ell for [z, conj z], standing for hats * 2**exps; d_0 = 2 ||R_l|| ||R_r||.
    Over a sequence of sites on one side of k0, hats and exps are stacked
    per site and so are the diameters.

    R_l = F22(z)^(-1/2) and R_r = F22(conj z)^(-1/2), with F22(w) = sigma(w)
    herm(-i Phi^(w)* J_rho(ell) Phi^(w)), which the energy identity makes
    2 |Im z| sum Phi* A Phi over the plus interval; lam_i is the i-th
    smallest eigenvalue. The walk's rescaled hats (:func:`_outward`) and
    logs keep every product finite; inf where an eigenvalue is not positive
    (the disk is unbounded there).
    """
    sign = sigma * np.array([1, -1])[:, None, None]
    jr = np.expand_dims(sys.j_rho(ell), -3)  # shared by z and conj z
    lam = np.linalg.eigvalsh(_disk_form(sign, jr, hats[..., sys.m:]))
    logs = np.log2(lam, out=np.full_like(lam, -np.inf), where=lam > 0)
    return np.exp2(1.0 - 0.5 * logs.sum(axis=-2)
                   - np.sum(exps, axis=-1)[..., None])


def disk_diameter_estimate(sys: HamiltonianSystem, ctx: DiskContext,
                           n_samples: int = 8,
                           fund: HatTrajectory | None = None) -> float:
    """Diameter 2 ||R_l|| ||R_r|| of the Weyl disk at (z, ell).

    From the hats of the far-site walk (:func:`_outward`) at z and conj z,
    so bit for bit the diameter that ``hamweyl disk`` reports at ell.
    Nonincreasing in |ell| because the disks nest. ``n_samples`` and
    ``fund`` are accepted and ignored.
    """
    hats, exps = _outward(sys, np.array([ctx.z, np.conj(ctx.z)]), ctx.k0,
                          initial_hat(sys, ctx.k0, ctx.alpha), 0, [ctx.ell])[0]
    return float(_disk_diameter(sys, ctx.sigma, ctx.ell, hats, exps)[0])


def _outward(sys, zz: np.ndarray, k: int, hats, exps, sites) -> list:
    """[(hats, exps)] at each of ``sites`` (one side of k0, in order of
    offset) of the fundamental hats at each of zz, hats * 2**exps, stepped
    out from site k. At each site and every 16 steps, or every step once a
    16-step chunk overflowed, each hat is divided by 2**e, e the binary
    exponent of its largest entry: exact, since only exponents change."""
    at = []
    with np.errstate(over="ignore", invalid="ignore"):
        for ell in sites:
            stride = _RESCALE_STEPS
            while k != ell:
                step = min(max(ell, k - stride), k + stride)
                nxt = propagate_hats(sys, zz, k, hats, step)
                if stride > 1 and not np.isfinite(nxt).all():
                    # a transfer outgrew 2**64 per step: go on one site at a
                    # time with a rescale after each
                    stride = 1
                    continue
                _, e = np.frexp(np.max(np.abs(nxt), axis=(-2, -1)))
                hats, exps, k = nxt * np.ldexp(1.0, -e)[..., None, None], exps + e, step
            at.append((hats, exps))
    return at


def _side_rows(sys, z: complex, k0: int, k_inv, beta, sites, at) -> dict:
    """ell -> (smin, walk row, None at a pole) for the far sites on one side
    of k0, in order of offset, with their hats ``at`` from :func:`_outward`:
    every M from one :func:`_sweep_m` pass, then E(M), the norms, the scale
    and the diameters once over the stack of sites with finite hats."""
    far = sites[::-1]
    M, smin, hit = (a[::-1] for a in _sweep_m(
        sys, k_inv, far, k0, _ker_basis(_weighted(beta, sys, far)), np.array([z])))
    hats, exps = map(np.stack, zip(*at))
    n, m, sigma = len(sites), sys.m, sigma_of(sites[0], k0, z)
    e_rel = np.full((n, m, m), np.nan, dtype=complex)
    e_norm, diam = np.full(n, np.inf), np.full((n, m), np.inf)
    ok = ~hit & np.isfinite(hats).all(axis=(1, 2, 3))
    if ok.any():
        at_ok = [ell for ell, good in zip(sites, ok) if good]
        h, x, Mk = hats[ok], exps[ok], M[ok]
        e_s = _disk_functional(sys, sigma, at_ok, h[:, 0], Mk)  # E * 4**-x
        with np.errstate(over="ignore"):
            e_norm[ok] = np.ldexp(la.opnorm(e_s), 2 * x[:, 0])
        # float_power is the C library's pow, as float ** 2 is; x * x can
        # differ from it in the last bit
        scale = np.maximum(np.ldexp(1.0, -2 * x[:, 0]),
                           np.float_power(la.opnorm(h[:, 0]), 2)
                           * (1.0 + np.float_power(la.opnorm(Mk), 2)))
        e_rel[ok] = e_s / scale[:, None, None]
        diam[ok] = _disk_diameter(sys, sigma, at_ok, h, x)
    return {ell: (smin[i], None if hit[i] else
                  (ell, M[i], e_rel[i], float(e_norm[i]), diam[i]))
            for i, ell in enumerate(sites)}


def _far_walk(sys: HamiltonianSystem, z: complex, k0: int, alpha, beta, blocks):
    """Yield (ell, M, e_rel, e_norm, diameters) for each far site ell of
    each block of sites in turn; a site of a later block lies beyond every
    earlier site on its side of k0. M is the regular M with far data
    ``beta``, bit for bit that of :func:`regular_m_evaluator`; a pole raises
    :class:`EigenvalueHitError` once the rows before it are out.

    Per block and side of k0, one outward pass (:func:`_outward`) carries
    the fundamental hats at z and conj z from the farthest site so far
    through the block's sites, and one inward pass from the block's
    farthest site gives every M (:func:`_side_rows`). So a walk takes steps
    in proportion to its largest offset, not to the sum of its offsets, in
    any order of sites. The hats give the per-direction diameters of
    :func:`_disk_diameter`, e_norm = ||E(M)|| (inf past the float range)
    and e_rel = E(M) / max(1, ||Psi^(ell)||^2 (1 + ||M||^2)), E against the
    scale of its rounding; inf, inf and NaN once a single step overflows
    the hats.
    """
    (init, k_inv), zz = _base_hat(sys, k0, alpha), np.array([z, np.conj(z)])
    ends = dict.fromkeys((1, -1), (k0, init, 0))
    for block in blocks:
        rows = {}
        for d in ends:
            sites = sorted({ell for ell in block if d * (ell - k0) > 0}, key=lambda e: d * e)
            if sites:
                at = _outward(sys, zz, *ends[d], sites)
                ends[d] = (sites[-1],) + at[-1]
                rows.update(_side_rows(sys, z, k0, k_inv, beta, sites, at))
        for ell in block:
            smin, row = rows[ell]
            if row is None:
                raise EigenvalueHitError(z, float(smin))
            yield row


# the largest limit-point diameter of a converged chase relative to 1 + |M|,
# the first far-site offset, and the most steps between power-of-two
# rescalings of the walked hats
_LP_THRESHOLD = 1e-6
_SCHEDULE_START = 8
_RESCALE_STEPS = 16
# tail multipliers closer to the unit circle than this times ||T||_F have
# no trustworthy side
_UNIT_MARGIN = 64 * np.finfo(float).eps


@dataclass
class LimitOptions:
    """Controls for :func:`limit_m`."""

    ell_schedule: list[int] | None = None
    tol: float = 1e-9
    beta: BoundaryData | None = None


@dataclass
class HalfLineLimit:
    """Half-line M toward one endpoint: exact from a constant tail, or
    chased along a far-site schedule."""

    M_pm: np.ndarray | None
    direction: int
    ell_sequence: list[int]
    cauchy_gap: float
    diameter_estimate: float
    # "limit_point" | "intermediate" | "limit_circle" | "inconclusive"
    classification: str
    beta: BoundaryData
    gaps: list[float] = field(default_factory=list)
    diameters: list[float] = field(default_factory=list)
    note: str = ""
    circle_rank: int = 0  # directions whose disk radius stays positive

    def square_summable_dimension(self) -> int | None:
        """Numerical estimate of the square-summable solution count:
        m + ``circle_rank``, from m (limit point) to 2m (limit circle);
        None when the run was inconclusive.
        """
        if self.M_pm is None or self.classification == "inconclusive":
            return None
        return self.M_pm.shape[0] + self.circle_rank


def _side(direction) -> int:
    """+1 or -1 from a half-line name: +-1, "+"/"-" or "plus"/"minus"."""
    for side, names in ((+1, (+1, "+", "plus")), (-1, (-1, "-", "minus"))):
        if direction in names:
            return side
    raise InputError(f"direction must be +-1, '+'/'-' or 'plus'/'minus', not {direction!r}")


def _default_schedule(k0: int, end: int, first: int = _SCHEDULE_START) -> list[int]:
    """The doubling far sites k0 + d first 2^j strictly between k0 and
    ``end``, d = sign(end - k0) (-1 when end = k0), then ``end``."""
    d = 1 if end > k0 else -1
    out, s = [], first
    while s < d * (end - k0):
        out.append(k0 + d * s)
        s *= 2
    return out + [end]


def _doubling_blocks(schedule, k0):
    """The schedule cut into blocks, each ending at its first site at least
    twice as far from k0 as the block's first site."""
    blocks = []
    for ell in schedule:
        if not blocks or abs(blocks[-1][-1] - k0) >= 2 * abs(blocks[-1][0] - k0):
            blocks.append([])
        blocks[-1].append(ell)
    return blocks


def _clip_psd(a: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(la.herm(a))
    return la.herm((v * np.clip(w, 0.0, None)) @ v.conj().T)


def _herglotz_cone(M: np.ndarray, sigma: int) -> np.ndarray:
    """M with sigma Im M clipped to the positive semidefinite cone."""
    return la.herm(M) + 1j * sigma * _clip_psd(sigma * la.imag_part(M))


def _tail_basis(sys: HamiltonianSystem, z: complex, edge: int, direction: int):
    """Orthonormal 2m x m basis of the hats at ``edge`` of the solutions that
    decay toward direction * infinity in a constant tail.

    Every transfer beyond ``edge`` is the forward one at edge -> edge + 1
    (direction +1) or edge - 1 -> edge (-1), and the decaying hats are its
    invariant subspace with |lambda| < 1 (+1) or |lambda| > 1 (-1), read from
    an ordered complex Schur form. A multiplier within rounding of the unit
    circle, or a split other than m/m, raises :class:`InputError`.
    """
    start = edge if direction > 0 else edge - 1
    t = _transfers(sys, np.array([z]), start, start + 1)[0, 0]
    s, q, sdim = scipy.linalg.schur(t, output="complex",
                                    sort="iuc" if direction > 0 else "ouc")
    lam = np.abs(np.diag(s))
    near = np.abs(lam - 1.0) <= _UNIT_MARGIN * np.linalg.norm(t)
    if near.any() or sdim != sys.m:
        what = (f"a multiplier of modulus {lam[np.argmax(near)]:.17g}"
                if near.any() else f"a {sdim}/{2 * sys.m - sdim} split")
        raise InputError(f"the constant tail at site {edge} has {what} at "
                         f"z={z}, not an m/m split of its multipliers "
                         "about the unit circle")
    return q[:, :sys.m]


def limit_m(sys: HamiltonianSystem, z: complex, k0: int, alpha,
            direction, opts: LimitOptions | None = None) -> HalfLineLimit:
    """Half-line limit M+- of the regular M along ell -> direction * infinity.

    Exact path (no ``opts.ell_schedule``, ``constant-edge`` extension): the
    solutions that decay toward direction * infinity are the tail's
    invariant subspace of :func:`_tail_basis`, taken at the window edge
    (or at k0 when k0 lies beyond it) and swept to k0 at z alone as in
    :func:`regular_m_evaluator`. The result is a ``limit_point`` with
    ``ell_sequence`` [edge], zero gap and diameter, and no far boundary:
    ``opts.tol`` and ``opts.beta`` do not enter it (beta is only recorded).
    No m/m split of the tail's multipliers raises :class:`InputError`, a
    pole of M :class:`EigenvalueHitError`.

    Chase (an explicit ``opts.ell_schedule``, or a ``periodic`` or ``error``
    system, which has no constant tail): the schedule sites must lie on
    the direction's side of k0 with strictly increasing offsets, all in
    reach, or :class:`InputError` is raised before any step. The chase
    walks them with :func:`_far_walk`, in blocks that each end at their
    first site at least twice as far from k0 as the block's first site (one
    outward pass and one inward sweep per block), which gives at each site
    the regular M with a fixed self-adjoint far boundary (Dirichlet by
    default), bit for bit that of :func:`regular_m_evaluator`, and the
    disk's per-direction diameters, each recorded at most as large as the
    one before it (the disks nest). Stops when two consecutive values
    differ by less than ``opts.tol`` relative or the window is exhausted;
    the rest of that block has been walked, so a pencil failing there
    raises too. Relative to 1 + |M|, a direction is limit-point when its
    last diameter is at most ``opts.tol`` (the limit lies in that disk), or
    below ``_LP_THRESHOLD`` after the chase converged; it is limit-circle
    otherwise when its last finite, unclipped diameter is at least half the
    latest one at no more than half its offset from k0 (a point direction
    shrinks geometrically as the offset doubles). All point reads
    ``limit_point``, all circle ``limit_circle``, a mix of the two
    ``intermediate`` (``circle_rank`` counts the circle directions), and
    anything else ``inconclusive``. In the limit-point regime the chased
    value is boundary-independent; otherwise it depends on the chosen far
    boundary, which is recorded on the result.

    A pencil failing its check raises :class:`SteppingError`; a pole at a
    site ends the chase at the site before it, with a note. The returned
    matrix is projected onto the sigma-Herglotz sign cone (a no-op up to
    roundoff in valid runs).
    """
    opts = opts or LimitOptions()
    direction = _side(direction)
    z = _admissible_z(z)
    beta = _self_adjoint(opts.beta if opts.beta is not None else dirichlet(sys.m))
    sigma = sigma_of(k0 + direction, k0, z)
    if opts.ell_schedule is None and sys.extension == "constant-edge":
        edge = max(sys.k_max, k0) if direction > 0 else min(sys.k_min, k0)
        M, smin, hit = _sweep_m(sys, _base_hat(sys, k0, alpha)[1],
                                [edge], k0, _tail_basis(sys, z, edge, direction)[None],
                                np.array([z]))
        if hit[0]:
            raise EigenvalueHitError(z, float(smin[0]))
        return HalfLineLimit(M_pm=_herglotz_cone(M[0], sigma), direction=direction,
                             ell_sequence=[edge], cauchy_gap=0.0,
                             diameter_estimate=0.0, classification="limit_point",
                             beta=beta)
    schedule = opts.ell_schedule or _default_schedule(
        k0, sys.k_max if direction > 0 else sys.k_min)
    offsets = [direction * (ell - k0) for ell in schedule]
    if not all(a < b for a, b in zip([0] + offsets, offsets)):
        raise InputError(f"far sites {list(schedule)} must lie on the "
                         f"{'+' if direction > 0 else '-'} side of k0={k0} "
                         "with strictly increasing offsets")
    if not all(map(sys.in_reach, schedule)):
        raise InputError(f"far sites {list(schedule)} leave the window "
                         f"{sys.window} of an 'error' system")

    ells, gaps, raw, M_final = [], [], [], None
    converged, note = False, ""
    try:
        for ell, M, _, _, diam in _far_walk(sys, z, k0, alpha, beta,
                                            _doubling_blocks(schedule, k0)):
            if ells:
                gaps.append(la.opnorm(M - M_final) / (1.0 + la.opnorm(M)))
            ells.append(ell)
            M_final = M
            raw.append(diam)
            converged = bool(gaps) and gaps[-1] < opts.tol
            if converged:
                break
    except EigenvalueHitError as err:
        note = f"{err} at ell={schedule[len(ells)]}"

    if not ells:
        return HalfLineLimit(M_pm=None, direction=direction, ell_sequence=ells,
                             cauchy_gap=np.inf, diameter_estimate=np.inf,
                             classification="inconclusive", beta=beta,
                             gaps=gaps, note=note or "no M values computed")

    # the disks nest: a wider one is F22 losing definiteness to rounding
    raw = np.array(raw)
    nested = np.minimum.accumulate(raw, axis=0)
    diameters = nested[:, 0].tolist()
    diam, r = diameters[-1], nested[-1]
    scale = 1.0 + la.opnorm(M_final)
    # per direction: limit point when the disk pins M to tol (the limit lies
    # in every nested disk) or the chase converged inside a small disk;
    # limit circle when the last finite, unclipped diameter is at least half
    # the latest one at no more than half its offset from k0 (a point
    # direction shrinks geometrically as the offset doubles; a window edge
    # just past a doubling site says nothing about that)
    point = (r <= opts.tol * scale) | (converged & (r < _LP_THRESHOLD * scale))
    offsets = np.abs(np.array(ells) - k0)
    circle = np.zeros(sys.m, dtype=bool)
    for i in np.flatnonzero(~point):
        j = np.flatnonzero((raw[:, i] == nested[:, i]) & np.isfinite(raw[:, i]))
        half = j[2 * offsets[j] <= offsets[j[-1]]] if len(j) else j
        circle[i] = len(half) > 0 and raw[j[-1], i] >= 0.5 * raw[half[-1], i]
    if point.all():
        classification = "limit_point"
        if not converged:
            note = (note + "; " if note else "") + \
                f"Cauchy criterion not met; the disk diameter {diam:.1e} at " \
                f"ell={ells[-1]} bounds the distance to the limit"
    elif circle.any() and np.all(point | circle):
        classification = "limit_circle" if circle.all() else "intermediate"
        regime = "limit-circle" if circle.all() else \
            f"intermediate ({circle.sum()} of {sys.m} directions limit-circle)"
        note = (note + "; " if note else "") + \
            f"{regime} regime: the returned value depends on the " \
            "recorded far boundary data"
    else:
        classification = "inconclusive"
        if not note and not converged:
            note = "window exhausted before the Cauchy criterion was met"

    return HalfLineLimit(M_pm=_herglotz_cone(M_final, sigma), direction=direction,
                         ell_sequence=ells, cauchy_gap=gaps[-1] if gaps else np.inf,
                         diameter_estimate=diam, classification=classification,
                         beta=beta, gaps=gaps, diameters=diameters, note=note,
                         circle_rank=int(circle.sum()))


# ---------------------------------------------------------------------------
# Herglotz structure
# ---------------------------------------------------------------------------

@dataclass
class HerglotzReport:
    rows: list[dict]
    violations: list[str]

    @property
    def passed(self) -> bool:
        return not self.violations


def herglotz_check(sys: HamiltonianSystem, z_grid, k0: int, alpha, *,
                   ell: int | None = None, beta=None,
                   direction=None, opts: LimitOptions | None = None,
                   tol: float = 1e-10) -> HerglotzReport:
    """Verify the Herglotz structure of M on a grid in the upper half plane.

    Either a regular target (``ell`` and optional ``beta``) or a half-line
    target (``direction``) must be given. Checks the definite imaginary
    part, the conjugation symmetry M(conj z) = M(z)*, and maximal rank.
    """
    if (ell is None) == (direction is None):
        raise InputError("give exactly one of ell= (regular) or direction=")
    zs = _admissible_z(np.reshape(z_grid, -1))
    if np.any(zs.imag < 0):
        raise InputError("grid must lie in the open upper half plane")
    if ell is not None:
        # the grid and its conjugates as one batch (an empty grid checks alpha)
        ctx = disk_context(sys, zs[0] if zs.size else 1j, k0, ell, alpha)
        M, _ = _m_at(sys, ctx, beta if beta is not None else dirichlet(sys.m),
                     np.concatenate([zs, zs.conj()]))
        pairs = zip(M[:zs.size], M[zs.size:])
        far = ell
    else:
        side = _side(direction)
        far = k0 + side
        pairs = ((limit_m(sys, z, k0, alpha, side, opts).M_pm,
                  limit_m(sys, np.conj(z), k0, alpha, side, opts).M_pm)
                 for z in zs)
    rows, violations = [], []
    for z, (mz, mzbar) in zip(zs, pairs):
        z = complex(z)
        if mz is None or mzbar is None:
            violations.append(f"z={z}: no M value")
            continue
        im_min = float(_herglotz_margin(mz, sigma_of(far, k0, z)))
        conj_defect = la.opnorm(mzbar - mz.conj().T) / (1.0 + la.opnorm(mz))
        rank_smin = la.smallest_singular_value(mz)
        scale = 1.0 + la.opnorm(mz)
        ok = (im_min > 0) and (conj_defect <= tol) and (rank_smin > 1e-10 * scale)
        rows.append({"z": z, "im_min_eig": im_min, "conj_defect": conj_defect,
                     "rank_smin": rank_smin, "ok": ok})
        if im_min <= 0:
            violations.append(f"z={z}: Im part not definite (min eig {im_min:.2e})")
        if conj_defect > tol:
            violations.append(f"z={z}: conjugation symmetry defect {conj_defect:.2e}")
        if rank_smin <= 1e-10 * scale:
            violations.append(f"z={z}: rank deficient (smin {rank_smin:.2e})")
    return HerglotzReport(rows=rows, violations=violations)


# ---------------------------------------------------------------------------
# Stieltjes inversion
# ---------------------------------------------------------------------------

def regular_m_evaluator(sys: HamiltonianSystem, k0: int, ell: int, alpha, beta):
    """Vectorized z -> M(z) for the regular two-point problem.

    The returned callable accepts a scalar (returning (m, m)) or an array
    (returning (N, m, m)), as :func:`spectral_measure`, :func:`xi_function`
    and :func:`fit_herglotz_parts` require. Theta + Phi M is the solution
    whose hat at ell lies in ker bt, so all z of a call sweep an orthonormal
    basis of ker bt from ell to k0 as one batch (:func:`_sweep_m`; Miller's
    backward recurrence, Gautschi, SIAM Rev. 9, 1967). Where z is a pole
    of M the evaluator returns NaN and :func:`m_regular` raises. ``extract``
    maps a z array to the full (M, smin, hit) tuple.
    """
    if ell == k0:
        raise InputError("ell must differ from k0")
    k_inv = _base_hat(sys, k0, alpha)[1]
    y0 = _ker_basis(_weighted(beta, sys, ell))[None]

    def extract(z):
        return _sweep_m(sys, k_inv, [ell], k0, y0,
                        np.atleast_1d(np.asarray(z, dtype=complex)))

    def ev(z):
        arr = np.asarray(z, dtype=complex)
        M = extract(arr.reshape(-1))[0]
        return M[0] if arr.ndim == 0 else M

    ev.m = sys.m
    ev.extract = extract
    return ev


# ---------------------------------------------------------------------------
# eigenvalues of the regular problem
# ---------------------------------------------------------------------------

# bracket width relative to max(1, |a| + |b|), and the most pencil entries
# (sites x 4m^2 x lam) stacked per count, which bounds long windows
_EIG_WIDTH = 1e-12
_EIG_STACK = 1 << 20


def _pencil_data(sys: HamiltonianSystem, k0: int, ell: int, alpha, beta):
    """A, B at L+1..R and rho at L..R, L = min(k0, ell), R = max(k0, ell), and
    bases Q_L, Q_R of the boundary subspaces of the hats at L and R: the Phi
    block of the initial hat at k0, and ker bt at ell."""
    m = sys.m
    q_alpha = initial_hat(sys, k0, alpha)[:, m:]
    q_beta = _ker_basis(_weighted(beta, sys, ell))
    sites = range(min(k0, ell), max(k0, ell) + 1)
    q_lo, q_hi = (q_alpha, q_beta) if k0 < ell else (q_beta, q_alpha)
    return sys.A(sites[1:]), sys.B(sites[1:]), sys.rho(sites), q_lo, q_hi


def _inv(d: np.ndarray, shift: np.ndarray, exact: bool) -> np.ndarray:
    """Inverse of a stack of shifted pivots. 1 x 1 pivots invert elementwise,
    several times faster than LAPACK, unless ``exact``; otherwise a pivot
    that the shift made exactly singular is shifted by -pivmin I once more,
    in place."""
    if d.shape[-1] == 1 and not exact:
        return 1.0 / d
    try:
        return np.linalg.inv(d)
    except np.linalg.LinAlgError:
        d -= (np.linalg.det(d) == 0)[:, None, None] * shift
        return np.linalg.inv(d)


def _pivots(data, lam: np.ndarray, exact: bool = False):
    """Shifted block LDL* pivots, (2(R - L), N, m, m), of T(lam) = H - lam W,
    and pivmin at each lam; ``exact`` as in :func:`_inv`.

    T is (S_rho - B - lam A) on the hat at L in span Q_L, the hats
    (psi1(k); psi2(k+1)) for L < k < R and the hat at R in span Q_R, tested
    against the same unknowns; W >= 0 is the A weight. With P = B + lam A,
    (T_L; U_L) = Q_L and (X_R; Y_R) = Q_R, elimination in site order gives

        D_L = U_L* (rho(L) T_L - P22(L+1) U_L),   Z_L^-1 := U_L D_L^-1 U_L*,
        X_k = -P11(k) - P12(k) Z_{k-1}^-1 P12(k)*,
        Z_k = -P22(k+1) - rho(k) X_k^-1 rho(k),
        D_R = X_R* (rho(R) Y_R - P11(R) X_R) - X_R* P12(R) Z_{R-1}^-1 P12(R)* X_R,

    each shifted by -pivmin I (unit roundoff times the coefficient scale, as in
    LAPACK xSTEBZ) before it is inverted or counted, so that a lam on an
    eigenvalue of a leading block inverts a tiny negative pivot (:func:`_inv`).
    """
    A, B, rho, q_lo, q_hi = data
    m = rho.shape[-1]
    scale = max(1.0, np.max(np.abs(B)), np.max(np.abs(rho)))
    pivmin = np.finfo(float).eps * (scale + np.abs(lam) * np.max(np.abs(A)))
    shift = pivmin[:, None, None] * np.eye(m)
    p = -(B[:, None] + lam[:, None, None] * A[:, None])  # -P, sites first
    d11, d22 = p[:, :, :m, :m] - shift, p[:, :, m:, m:] - shift
    p12 = p[:, :, :m, m:]
    p21 = la.adjoint(p12)
    piv = np.empty((2 * len(rho) - 2,) + shift.shape, dtype=complex)
    top, bot = q_lo[:m], q_lo[m:]
    # each pivot is stored after it is inverted, which may shift it
    z = la.adjoint(bot) @ (rho[0] @ top + p[0, :, m:, m:] @ bot) - shift
    zinv = bot @ _inv(z, shift, exact) @ la.adjoint(bot)
    piv[0] = z
    for j in range(1, len(rho) - 1):
        x = d11[j - 1] - p12[j - 1] @ zinv @ p21[j - 1]
        z = d22[j] - rho[j] @ _inv(x, shift, exact) @ rho[j]
        zinv = _inv(z, shift, exact)
        piv[2 * j - 1], piv[2 * j] = x, z
    top, bot = q_hi[:m], q_hi[m:]
    xp = la.adjoint(top) @ p12[-1]
    piv[-1] = (la.adjoint(top) @ (rho[-1] @ bot + p[-1, :, :m, :m] @ top)
               - xp @ zinv @ la.adjoint(xp) - shift)
    return piv, pivmin


def _negative_index(data, lam: np.ndarray):
    """N(lam), the negative eigenvalues of T(lam) at each lam, and
    log|det T(lam)|: by Sylvester's law of inertia the negative eigenvalues
    mu of the pivots, and det T the product of the pivot determinants, so
    both come from one stacked ``eigvalsh`` per chunk, and the sign of
    det T is (-1)^N. W >= 0 makes N nondecreasing, rising at each eigenvalue
    by its multiplicity; hat directions at the ends that no row reaches
    (U_L c = 0, X_R c = 0) give zero pivots, a constant in N once shifted
    and a smooth factor pivmin(lam) of det T. A 1 x 1 pivot that the shift
    made exactly zero leaves non-finite pivots after it, and its lam is
    eliminated again with ``exact``; a mu that is still exactly zero counts
    as -pivmin."""
    step = max(1, _EIG_STACK // data[0].size)
    count, logdet = [], []
    for i in range(0, len(lam), step):
        chunk = lam[i:i + step]
        with np.errstate(divide="ignore", invalid="ignore"):
            piv, pivmin = _pivots(data, chunk)
        if not np.isfinite(piv).all():
            bad = ~np.isfinite(piv).all(axis=(0, 2, 3))
            piv[:, bad] = _pivots(data, chunk[bad], exact=True)[0]
        mu = np.linalg.eigvalsh(piv)
        mu = np.where(mu == 0.0, -pivmin[:, None], mu)
        count.append(np.count_nonzero(mu < 0, axis=(0, 2)))
        logdet.append(np.sum(np.log(np.abs(mu)), axis=(0, 2)))
    return np.concatenate(count), np.concatenate(logdet)


def eigenvalues(sys: HamiltonianSystem, k0: int, ell: int, alpha: BoundaryData,
                beta: BoundaryData, interval) -> np.ndarray:
    """Eigenvalues in (a, b] of the regular problem on [k0, ell] (the real
    poles of its M), ascending and repeated by multiplicity; ell < k0 works
    the same way, and the boundary data must have sign class zero.

    The count N(b) - N(a) is exact (:func:`_negative_index`; the discrete
    oscillation theorem of Bohner, Dosly and Kratz, Trans. AMS 361, 2009).
    The eigenvalue of rank r keeps a bracket (lo, hi] with N(lo) < r <= N(hi),
    and every live bracket takes one step per vectorized count. A bracket
    that holds its eigenvalue alone (N(lo) = r - 1, N(hi) = r) steps to the
    regula falsi point of det T, a polynomial that changes sign once inside
    it and comes with the count, kept half the final width inside the
    bracket. It follows the Illinois rule: when the same end moves twice in
    a row, the other end's |det T| is halved (Dowell and Jarratt, BIT 11,
    1971). Every other bracket, and one that its last three steps did not
    halve, steps to its midpoint. A bracket stops at width
    1e-12 max(1, |a| + |b|) and returns its midpoint.
    """
    if ell == k0:
        raise InputError("ell must differ from k0")
    _self_adjoint(beta)
    a, b = float(interval[0]), float(interval[1])
    if not (np.isfinite(a) and np.isfinite(b) and b > a):
        raise InputError("interval must be finite and nondegenerate")
    data = _pencil_data(sys, k0, ell, alpha, beta)
    (n_a, n_b), (g_a, g_b) = _negative_index(data, np.array([a, b]))
    rank = np.arange(n_a + 1, n_b + 1)
    # the ends with their counts and log|det T|. Brackets are equal or
    # disjoint, so each counted point narrows every bracket it certifies:
    # its own and those equal to it
    lo, n_lo, g_lo = (np.full(rank.shape, v) for v in (a, n_a, g_a))
    hi, n_hi, g_hi = (np.full(rank.shape, v) for v in (b, n_b, g_b))
    width = _EIG_WIDTH * max(1.0, abs(a) + abs(b))
    last = np.zeros(rank.shape, dtype=int)       # end the last step moved: -1 lo, +1 hi
    before = np.full((3,) + rank.shape, np.inf)  # widths 3, 2 and 1 steps back
    while (i := np.flatnonzero(hi - lo > width)).size:
        top = np.maximum(g_lo[i], g_hi[i])
        u, v = np.exp(g_lo[i] - top), np.exp(g_hi[i] - top)
        x = np.clip(lo[i] + (hi[i] - lo[i]) * u / (u + v),
                    lo[i] + 0.5 * width, hi[i] - 0.5 * width)
        secant = ((n_lo[i] == rank[i] - 1) & (n_hi[i] == rank[i]) & np.isfinite(x)
                  & (hi[i] - lo[i] <= 0.5 * before[0, i]))
        x = np.where(secant, x, 0.5 * (lo[i] + hi[i]))
        before = np.concatenate([before[1:], (hi - lo)[None]])
        points, back = np.unique(x, return_inverse=True)
        n_x, g_x = (y[back] for y in _negative_index(data, points))
        step = np.where(n_x >= rank[i], 1, -1)
        for end, n_end, g_end, side in ((hi, n_hi, g_hi, 1), (lo, n_lo, g_lo, -1)):
            moved = step == side
            end[i[moved]], n_end[i[moved]], g_end[i[moved]] = x[moved], n_x[moved], g_x[moved]
            # Illinois: the other end moved a second time in a row
            g_end[i[~moved & (last[i] == step)]] -= np.log(2.0)
        last[i] = step
    return 0.5 * (lo + hi)


@dataclass
class SpectralMeasure:
    """Matrix measure increments over a real grid from Stieltjes inversion.

    ``increments`` holds the smallest-epsilon values, ``increments_richardson``
    the linear-in-epsilon extrapolation from the last two schedule entries
    (equal to ``increments`` for single-entry schedules). ``converged`` flags
    the comparison of the last two epsilon passes against ``measure_tol``.
    """

    grid: np.ndarray
    increments: np.ndarray              # (n_bins, m, m) Hermitian
    epsilon_schedule: tuple[float, ...]
    increments_richardson: np.ndarray
    converged: bool
    convergence_gap: float
    clip_flags: list[int] = field(default_factory=list)

    @property
    def n_bins(self) -> int:
        return self.increments.shape[0]

    def total(self, richardson: bool = False) -> np.ndarray:
        inc = self.increments_richardson if richardson else self.increments
        return la.herm(np.sum(inc, axis=0))

    def trace_increments(self, richardson: bool = False) -> np.ndarray:
        inc = self.increments_richardson if richardson else self.increments
        return np.real(np.trace(inc, axis1=1, axis2=2))


def _adaptive_bin_integrals(f, edges: np.ndarray, quad_tol: float,
                            width_floor: float, quad_rel: float = 1e-6,
                            max_depth: int = 60):
    """Locally refined Simpson rule of a matrix-valued function.

    Returns per-bin integrals (n_bins, m, m). Each open segment [a, b]
    carries its values at a, its midpoint and b. The one-panel Simpson value
    s1 and the two-panel value s2 (from the two quarter points) differ by
    about 15 times the error of s2 (Lyness, J. ACM 16, 1969). A segment is
    accepted when |s2 - s1|, that 1/15 estimate taken 15-fold, is below the
    per-segment share of ``quad_tol`` (or ``quad_rel`` relative to the
    segment value, whichever is larger) or its width drops under
    ``width_floor``, and then adds the extrapolated value
    s2 + (s2 - s1) / 15; otherwise its halves go on. The 15-fold margin
    covers segments about one Lorentzian width wide, where the estimate is
    not yet asymptotic and can fall short of the error. All segment
    bookkeeping is vectorized: the integrand is called once on the edges
    and bin midpoints, then once per depth level with the quarter points of
    every open segment.
    """
    n_bins = len(edges) - 1
    a = edges[:-1].astype(float)
    b = edges[1:].astype(float)
    f0 = f(np.concatenate([edges, 0.5 * (a + b)]))
    fa, fb, fm = f0[:n_bins], f0[1:n_bins + 1], f0[n_bins + 1:]
    out = np.zeros((n_bins,) + f0.shape[1:], dtype=complex)
    bin_width = b - a
    bi = np.arange(n_bins)
    depth = np.zeros(n_bins, dtype=int)
    while a.size:
        n = a.size
        h = b - a
        mid = 0.5 * (a + b)
        fq = f(np.concatenate([0.5 * (a + mid), 0.5 * (mid + b)]))
        fl, fr = fq[:n], fq[n:]
        w = h[:, None, None]
        s1 = w / 6.0 * (fa + 4.0 * fm + fb)
        s2 = w / 12.0 * (fa + 4.0 * fl + 2.0 * fm + 4.0 * fr + fb)
        err = np.max(np.abs(s2 - s1), axis=(1, 2))
        mag = np.max(np.abs(s2), axis=(1, 2))
        tol_here = np.maximum(quad_tol * h / bin_width[bi], quad_rel * mag)
        accept = (err <= tol_here) | (h <= width_floor) | (depth >= max_depth)
        np.add.at(out, bi[accept], s2[accept] + (s2[accept] - s1[accept]) / 15.0)
        k = ~accept
        a = np.concatenate([a[k], mid[k]])
        b = np.concatenate([mid[k], b[k]])
        fa, fm, fb = (np.concatenate(p) for p in
                      ((fa[k], fm[k]), (fl[k], fr[k]), (fm[k], fb[k])))
        bi = np.concatenate([bi[k], bi[k]])
        depth = np.concatenate([depth[k] + 1, depth[k] + 1])
    return out


def spectral_measure(m_eval, interval, grid_n: int, eps_schedule, *,
                     sigma: int = +1, quad_rel: float = 1e-6) -> SpectralMeasure:
    """Stieltjes inversion of a Herglotz evaluator onto a real grid.

    ``m_eval`` maps a 1-d array of N spectral parameters to the (N, m, m)
    stack of M values in one call (as :func:`regular_m_evaluator` does). Per
    bin (l_i + d, l_{i+1} + d] with offset d = eps/2, the increment is
    (1/pi) times the integral of Im[sigma M(nu + i eps)], computed at the
    last two epsilons of the decreasing schedule, the only ones read, by a
    locally refined Simpson rule:
    per segment the one- and two-panel Simpson pair, an error test on their
    difference (Lyness's 1/15 estimate, taken 15-fold) and the extrapolated
    value (see :func:`_adaptive_bin_integrals`). The reported increments are
    those of the smallest epsilon; a linear Richardson extrapolation across
    the last two epsilons is stored alongside, and disagreement beyond
    ``_MEASURE_TOL`` flags the schedule as non-convergent (not fatal).
    Increments are Hermitized by one stacked eigendecomposition; eigenvalues
    in [-TOL_PSD, 0) are clipped to zero and bins with larger negatives
    flagged. A non-finite interval, ``grid_n`` < 1 or an epsilon that is not
    positive and finite is an :class:`InputError`, raised before any
    quadrature.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not (np.isfinite(lo) and np.isfinite(hi) and hi > lo):
        raise InputError("interval must be finite and nondegenerate")
    if int(grid_n) < 1:
        raise InputError(f"grid_n must be >= 1, got {grid_n}")
    eps_list = [float(e) for e in np.atleast_1d(np.asarray(eps_schedule, dtype=float))]
    if not eps_list or not all(0 < e < np.inf for e in eps_list):
        raise InputError(f"eps schedule must be positive and finite, not {eps_list}")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise InputError("eps schedule must be strictly decreasing")
    base_edges = np.linspace(lo, hi, int(grid_n) + 1)

    per_eps = []
    for eps in eps_list[-2:]:  # only the last two are read
        def integrand(nu):
            return la.imag_part(sigma * m_eval(np.asarray(nu, dtype=float) + 1j * eps))

        per_eps.append(_adaptive_bin_integrals(
            integrand, base_edges + 0.5 * eps, _QUAD_TOL, width_floor=eps / 256.0,
            quad_rel=quad_rel) / np.pi)

    inc = per_eps[-1]
    if len(per_eps) == 2:
        e1, e2 = eps_list[-2], eps_list[-1]
        prev = per_eps[-2]
        rich = inc + (inc - prev) * (e2 / (e1 - e2))
        gap = float(np.max(np.abs(inc - prev)))
        total = max(1.0, float(np.max(np.abs(np.sum(inc, axis=0)))))
        converged = gap <= _MEASURE_TOL * total
    else:
        rich, gap, converged = inc.copy(), np.inf, False

    clip_flags = []

    def clean(stack):
        w, v = np.linalg.eigh(la.herm(stack))
        neg = np.flatnonzero(np.any(w < -TOL_PSD, axis=1)).tolist()
        clip_flags.extend(i for i in neg if i not in clip_flags)
        w = np.where((w < 0) & (w >= -TOL_PSD), 0.0, w)
        return la.herm((v * w[:, None, :]) @ la.adjoint(v))

    inc, rich = clean(inc), clean(rich)
    if not converged and len(per_eps) == 2:
        warnings.warn(
            f"spectral measure schedule not converged (gap {gap:.2e}); "
            "refine the epsilon schedule", RuntimeWarning, stacklevel=2)
    return SpectralMeasure(grid=base_edges, increments=inc,
                           epsilon_schedule=tuple(eps_list),
                           increments_richardson=rich, converged=converged,
                           convergence_gap=gap, clip_flags=clip_flags)


def fit_herglotz_parts(m_eval, *, sigma: int = +1):
    """Large-argument fit of the affine and linear representation parts.

    Evaluates sigma M(iy) at y = ``_FIT_Y_MAX`` and a quarter of it in one
    call of the array evaluator ``m_eval`` (see :func:`spectral_measure`):
    the linear part is the Hermitized limit of M(iy)/(iy) (clipped to the
    positive cone; zero for Schroedinger- and Dirac-type cases), the affine
    part the Hermitian remainder at the largest argument. A large-y fit for
    diagnostics.
    """
    ys = np.array([_FIT_Y_MAX / 4.0, _FIT_Y_MAX])
    vals = m_eval(1j * ys)
    c2 = _clip_psd(sigma * vals[-1] / (1j * ys[-1]))  # _clip_psd Hermitizes
    c1 = la.herm(sigma * vals[-1] - 1j * ys[-1] * c2)
    return c1, c2


def locate_jumps(measure: SpectralMeasure, richardson: bool = True):
    """Cluster adjacent above-threshold bins into candidate point masses.

    Returns (positions, masses): mass-weighted centroids of maximal runs of
    bins whose trace increment exceeds ``_JUMP_THRESHOLD``. A pole sitting
    near a bin edge spreads over two neighbouring bins (the quadrature
    offset is half the smoothing epsilon), so clustering is required before
    counting.
    """
    tr = measure.trace_increments(richardson=richardson)
    centers = 0.5 * (measure.grid[:-1] + measure.grid[1:])
    # the runs [i, j) of hot bins start where hot rises and end where it falls
    edges = np.diff(np.concatenate(([0], tr > _JUMP_THRESHOLD, [0])).astype(int))
    runs = list(zip(np.flatnonzero(edges > 0), np.flatnonzero(edges < 0)))
    masses = [float(np.sum(tr[i:j])) for i, j in runs]
    positions = [float(np.sum(centers[i:j] * tr[i:j]) / w)
                 for (i, j), w in zip(runs, masses)]
    return np.array(positions), np.array(masses)


@dataclass
class XiReport:
    xi: np.ndarray            # (n, m, m); NaN blocks where skipped
    skipped: list[int]
    range_defect: float       # max violation of 0 <= Xi <= I over the grid


def xi_function(m_eval, lambda_grid, eps: float) -> XiReport:
    """Phase matrix (1/pi) Im log M(lambda + i eps) on a real grid.

    ``m_eval`` evaluates the whole grid in one call (see
    :func:`spectral_measure`). Uses the principal matrix logarithm; grid
    points with numerically singular M are skipped and flagged. Eigenvalues of the result are
    checked against [0, 1] and the worst violation is reported.
    """
    lam = np.asarray(lambda_grid, dtype=float).reshape(-1)
    w = m_eval(lam + 1j * float(eps))
    s = np.linalg.svd(w, compute_uv=False)
    keep = ~(s[:, -1] < _XI_SINGULAR * np.maximum(1.0, s[:, 0]))
    xi = np.full(w.shape, np.nan, dtype=complex)
    for i in np.flatnonzero(keep):
        xi[i] = la.herm(la.imag_part(scipy.linalg.logm(w[i]))) / np.pi
    eigs = np.linalg.eigvalsh(xi[keep])
    worst = float(np.max(np.maximum(0.0 - eigs[:, 0], eigs[:, -1] - 1.0), initial=0.0))
    return XiReport(xi=xi, skipped=np.flatnonzero(~keep).tolist(),
                    range_defect=worst)


# ---------------------------------------------------------------------------
# Riccati route
# ---------------------------------------------------------------------------

@dataclass
class RiccatiSolutionReport:
    """Per-site V = rho u2+ u1^{-1} with the membership sign diagnostic.

    ``sign_max[k]`` is the largest eigenvalue of sigma(k) Im V(k); strictly
    negative values are the interior membership condition.
    """

    V: dict[int, np.ndarray]
    sign_max: dict[int, float]
    errors: dict[int, str]

    @property
    def all_interior(self) -> bool:
        return not self.errors and all(v < 0 for v in self.sign_max.values())


def riccati_from_solution(sys: HamiltonianSystem, U: HatTrajectory,
                          k0: int | None = None) -> RiccatiSolutionReport:
    """Riccati variable along a Weyl-solution trajectory.

    V(k) = rho(k) u2(k+1) u1(k)^{-1}, for all sites as one stack; sites with
    singular u1 are recorded as per-site errors rather than raised. ``k0``
    defaults to the site of U's initial data. U needs m columns: a
    fundamental system (2m) raises :class:`InputError`.
    """
    if U.data.shape[1:] != (2 * sys.m, sys.m):
        raise InputError(f"a Weyl solution has ({2 * sys.m}, {sys.m}) hats, "
                         f"not {U.data.shape[1:]}: m columns of height 2m")
    k0 = U.k0 if k0 is None else k0
    v, ok = _riccati(sys, U.sites, U.data)
    good = [k for k, b in zip(U.sites, ok) if b]
    sigma = np.array([sigma_of(k if k != k0 else k0 + 1, k0, U.z) for k in good])
    sign = np.linalg.eigvalsh(la.herm(sigma[:, None, None] * la.imag_part(v[ok])))[:, -1]
    finite = np.isfinite(U.data).all(axis=(1, 2))
    return RiccatiSolutionReport(
        V=dict(zip(good, v[ok])), sign_max=dict(zip(good, sign.tolist())),
        errors={k: f"{'u1 singular' if f else 'the solution is not finite'} at site {k}"
                for k, b, f in zip(U.sites, ok, finite) if not b})


@dataclass
class RiccatiResidualReport:
    norms: dict[int, float]
    errors: dict[int, str]

    @property
    def max_norm(self) -> float:
        return max(self.norms.values()) if self.norms else np.nan


def riccati_residual(sys: HamiltonianSystem, z: complex,
                     V: dict[int, np.ndarray]) -> RiccatiResidualReport:
    """Defect of the one-step Riccati recursion at every site with a predecessor.

    residual(k) = V(k) - P11(k)
                  - P12(k) [rho(k-1) V(k-1)^{-1} rho(k-1) - P22(k)]^{-1} P21(k).
    """
    norms, errors = {}, {}
    for k in sorted(V):
        if k - 1 not in V:
            continue
        p11, p12, p21, p22 = sys.pencil_blocks(z, k)
        rho_prev, v_prev = sys.rho(k - 1), V[k - 1]
        if la.rcond(v_prev) < la._SINGULAR_RCOND:
            errors[k] = f"V({k - 1}) singular"
            continue
        inner = rho_prev @ np.linalg.inv(v_prev) @ rho_prev - p22
        if la.rcond(inner) < la._SINGULAR_RCOND:
            errors[k] = f"inner matrix singular at site {k}"
            continue
        correction = p12 @ np.linalg.solve(inner, p21)
        scale = 1.0 + la.opnorm(V[k]) + la.opnorm(p11) + la.opnorm(correction)
        norms[k] = la.opnorm(V[k] - p11 - correction) / scale
    return RiccatiResidualReport(norms=norms, errors=errors)
