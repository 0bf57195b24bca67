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
from .errors import EigenvalueHitError, InputError, TransformPoleError
from .propagate import (
    FundamentalMatrix,
    WeylTrajectory,
    _a_form_sum,
    _weighted,
    fundamental,
    initial_hat,
    propagate_hats,
    weyl_solution,
)
from .system import (
    TOL_PSD,
    BoundaryData,
    HamiltonianSystem,
    dirichlet,
)

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
    "a_form_sum",
    "e_functional",
    "m_regular",
    "m_from_hat",
    "disk_membership",
    "lft_alpha_change",
    "boundary_family",
    "disk_diameter_estimate",
    "limit_m",
    "herglotz_check",
    "regular_m_evaluator",
    "spectral_measure",
    "fit_herglotz_parts",
    "locate_jumps",
    "xi_function",
    "riccati_from_solution",
    "riccati_residual",
]


def sigma_of(ell: int, k0: int, z: complex) -> int:
    """sign((ell - k0) Im z); requires ell != k0 and Im z != 0."""
    s = (ell - k0) * z.imag
    if s == 0:
        raise InputError("sigma undefined: need ell != k0 and Im z != 0")
    return 1 if s > 0 else -1


@dataclass(frozen=True)
class DiskContext:
    """Fixed data of one finite-interval Weyl disk: z, base site, far site,
    and self-adjoint boundary data at the base site."""

    z: complex
    k0: int
    ell: int
    alpha: object  # BoundaryData or m x 2m weighted array
    definiteness_interval_ok: bool = True

    @property
    def sigma(self) -> int:
        return sigma_of(self.ell, self.k0, self.z)

    def conjugate(self) -> "DiskContext":
        return replace(self, z=np.conj(self.z))


def disk_context(sys: HamiltonianSystem, z: complex, k0: int, ell: int,
                 alpha) -> DiskContext:
    """Validated disk context.

    Requires Im z != 0, ell != k0, and (for :class:`BoundaryData` input)
    sign class zero at the base site. When A is not pointwise positive
    definite the two-point interval must be long enough for the summed
    quadratic form to be definite; the flag records that condition.
    """
    z = complex(z)
    if z.imag == 0:
        raise InputError("disk context requires Im z != 0")
    if ell == k0:
        raise InputError("disk context requires ell != k0")
    if isinstance(alpha, BoundaryData):
        if alpha.sign_class != "zero":
            raise InputError("base boundary data must have sign class zero")
    else:
        alpha = la.as_complex_matrix(alpha)
    a_pd = all(la.min_eig_herm(sys.A(k)) > 0
               for k in range(min(k0, ell), max(k0, ell) + 1))
    ok = a_pd or abs(ell - k0) >= 2
    if not ok:
        warnings.warn(
            "interval [k0, ell] may be too short for a definite quadratic "
            "form (A is not pointwise positive definite)", RuntimeWarning,
            stacklevel=2)
    return DiskContext(z=z, k0=k0, ell=ell, alpha=alpha,
                       definiteness_interval_ok=ok)


def plus_interval(k0: int, ell: int) -> range:
    """The half-open summation interval [min+1, max] used by the disk theory."""
    return range(min(k0, ell) + 1, max(k0, ell) + 1)


def a_form_sum(sys: HamiltonianSystem, traj, sites) -> np.ndarray:
    """sum_k Psi(k)* A(k) Psi(k) over ``sites`` using plain solution values."""
    return _a_form_sum(sys, traj, sites)


# ---------------------------------------------------------------------------
# the disk functional and regular M-functions
# ---------------------------------------------------------------------------

def _fundamental_for(sys, ctx: DiskContext, fund: FundamentalMatrix | None):
    if fund is not None:
        return fund
    lo, hi = min(ctx.k0, ctx.ell), max(ctx.k0, ctx.ell)
    return fundamental(sys, ctx.z, ctx.k0, ctx.alpha, (lo, hi))


def e_functional(sys: HamiltonianSystem, ctx: DiskContext, M,
                 fund: FundamentalMatrix | None = None) -> np.ndarray:
    """Disk functional E_ell(M), Hermitian m x m.

    Negative definite values lie in the open Weyl disk, zero on the circle.
    """
    fund = _fundamental_for(sys, ctx, fund)
    u = weyl_solution(fund, M)
    uhat = u.hat(ctx.ell)
    g = uhat.conj().T @ sys.j_rho(ctx.ell) @ uhat
    return la.herm(-1j * ctx.sigma * g)


@dataclass
class MFunction:
    """Regular-interval Weyl-Titchmarsh matrix with solve diagnostics."""

    M: np.ndarray
    context: DiskContext
    beta: object
    smin: float
    rcond: float

    @property
    def m(self) -> int:
        return self.M.shape[0]


# the one threshold of the "z is on an eigenvalue" rule
_M_SINGULAR_TOL = 1e-13


def _extract_m(hats: np.ndarray, bt: np.ndarray):
    """M = -[bt Phi^]^{-1} [bt Theta^] from an (N, 2m, 2m) stack of hats at ell.

    The one rule for "z is on an eigenvalue": the weighted right block is
    singular when its 2-norm rcond, or its smallest singular value against
    the scale of the whole boundary-weighted row, is below 1e-13.
    Returns (M, smin, rcond, hit) over the stack, with M NaN where ``hit``.
    """
    m = hats.shape[1] // 2
    btheta = bt @ hats[:, :, :m]
    bphi = bt @ hats[:, :, m:]
    s = np.linalg.svd(bphi, compute_uv=False)
    smin, smax = s[:, -1], s[:, 0]
    rc = np.divide(smin, smax, out=np.zeros_like(smax), where=smax > 0.0)

    def tiny(norm_theta, sel):
        # judge singularity against the whole boundary-weighted row: a right
        # block that is tiny relative to the left block is a pole of M even
        # when it is perfectly conditioned on its own (always so for m = 1)
        row = np.maximum(np.maximum(norm_theta, smax[sel]), 1e-300)
        return smin[sel] < _M_SINGULAR_TOL * row

    # the 2-norm of the left block is taken only where its Frobenius bound
    # (with a margin for rounding) leaves the decision open
    hit = rc < _M_SINGULAR_TOL
    frobenius = np.linalg.norm(btheta, axis=(1, 2)) * (1.0 + 1e-10)
    sel = ~hit & tiny(frobenius, slice(None))
    hit[sel] = tiny(np.linalg.svd(btheta[sel], compute_uv=False)[:, 0], sel)
    ok = ~hit
    M = np.full_like(btheta, np.nan)
    M[ok] = -np.linalg.solve(bphi[ok], btheta[ok])
    return M, smin, rc, hit


def m_from_hat(sys: HamiltonianSystem, hat: np.ndarray, ell: int, beta):
    """M from one fundamental hat value at ell; returns (M, smin, rcond).

    ``beta`` is :class:`BoundaryData` (weighted at ell) or an m x 2m array
    already in weighted form. M is None when the weighted right block is
    singular by the rule of the batched extraction.
    """
    M, smin, rc, hit = _extract_m(hat[None], _weighted(beta, sys, ell))
    return (None if hit[0] else M[0]), float(smin[0]), float(rc[0])


def m_regular(sys: HamiltonianSystem, ctx: DiskContext, beta,
              fund: FundamentalMatrix | None = None) -> MFunction:
    """Weyl-Titchmarsh matrix of the regular two-point problem.

    M = -[bt Phi^(z,ell)]^{-1} [bt Theta^(z,ell)]. The weighted right block
    is nonsingular for Im z != 0 and self-adjoint beta; it is checked anyway,
    and a singular block raises :class:`EigenvalueHitError` (for real z this
    is exactly an eigenvalue of the two-point problem).
    """
    if isinstance(beta, BoundaryData) and beta.sign_class != "zero" \
            and ctx.z.imag == 0:
        raise InputError("real z requires self-adjoint boundary data")
    fund = _fundamental_for(sys, ctx, fund)
    M, smin, rc = m_from_hat(sys, fund.hat(ctx.ell), ctx.ell, beta)
    if M is None:
        raise EigenvalueHitError(ctx.z, smin)
    return MFunction(M=M, context=ctx, beta=beta, smin=smin, rcond=rc)


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
    if la.rcond(den) < 1e-13:
        raise TransformPoleError(
            "boundary-change transform has a singular denominator")
    return la.rsolve(num, den)


# ---------------------------------------------------------------------------
# sampling families and limiting disks
# ---------------------------------------------------------------------------

def boundary_family(m: int, n_samples: int) -> list[BoundaryData]:
    """Fixed quasi-uniform family of self-adjoint boundary data.

    For m = 1 these are (cos t, sin t) with t = j pi / n. For m > 1 each
    member is (cos(D) W*, sin(D) W*) with W Haar unitary and D diagonal,
    drawn from a per-index seed so that families nest: the first n' members
    of family(n) coincide with family(n') for n' <= n.
    """
    out = []
    for j in range(n_samples):
        if m == 1:
            t = np.pi * j / n_samples
            g1 = np.array([[np.cos(t)]], dtype=complex)
            g2 = np.array([[np.sin(t)]], dtype=complex)
        else:
            rng = np.random.default_rng(0xB0D + j)
            w = la.haar_unitary(m, rng)
            d = rng.uniform(0.0, np.pi, size=m)
            g1 = np.diag(np.cos(d)).astype(complex) @ w.conj().T
            g2 = np.diag(np.sin(d)).astype(complex) @ w.conj().T
        out.append(BoundaryData(g1, g2, "zero"))
    return out


def disk_diameter_estimate(sys: HamiltonianSystem, ctx: DiskContext,
                           n_samples: int = 8,
                           fund: FundamentalMatrix | None = None) -> float:
    """Max pairwise distance of circle points over the sampled family.

    A lower bound on the disk diameter at (z, ell); nonincreasing in |ell|
    up to sampling error because the disks nest.
    """
    fund = _fundamental_for(sys, ctx, fund)
    return _sampled_diameter(sys, fund.hat(ctx.ell), ctx.ell, n_samples)


def _sampled_diameter(sys, hat: np.ndarray, ell: int, n_samples: int) -> float:
    """Max pairwise distance of the circle points at ell over the sampled family."""
    points = [M for M, _, _ in (m_from_hat(sys, hat, ell, bd)
                                for bd in boundary_family(sys.m, n_samples))
              if M is not None]
    return max((la.opnorm(p - q) for i, p in enumerate(points)
                for q in points[i + 1:]), default=0.0)


@dataclass
class LimitOptions:
    """Controls for :func:`limit_m`."""

    ell_schedule: list[int] | None = None
    tol: float = 1e-9
    n_samples: int = 8
    lp_threshold: float = 1e-6
    lc_threshold: float = 1e-2
    beta: BoundaryData | None = None
    start: int = 8


@dataclass
class HalfLineLimit:
    """Result of chasing M along a far-site schedule toward one endpoint."""

    M_pm: np.ndarray | None
    direction: int
    ell_sequence: list[int]
    cauchy_gap: float
    diameter_estimate: float
    classification: str  # "limit_point" | "limit_circle" | "inconclusive"
    beta: BoundaryData
    gaps: list[float] = field(default_factory=list)
    diameters: list[float] = field(default_factory=list)
    note: str = ""

    def square_summable_dimension(self) -> int | None:
        """Numerical estimate of the square-summable solution count.

        m columns in the limit-point regime, 2m in the limit-circle regime,
        None when the run was inconclusive.
        """
        if self.M_pm is None:
            return None
        m = self.M_pm.shape[0]
        if self.classification == "limit_point":
            return m
        if self.classification == "limit_circle":
            return 2 * m
        return None


def _default_schedule(sys, k0, direction, start):
    edge = sys.k_max if direction > 0 else sys.k_min
    out = []
    s = start
    while True:
        ell = k0 + direction * s
        if (direction > 0 and ell >= edge) or (direction < 0 and ell <= edge):
            break
        out.append(ell)
        s *= 2
    if not out or out[-1] != edge:
        if edge != k0:
            out.append(edge)
    return out


def _clip_psd(a: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(la.herm(a))
    return la.herm((v * np.clip(w, 0.0, None)) @ v.conj().T)


def limit_m(sys: HamiltonianSystem, z: complex, k0: int, alpha,
            direction, opts: LimitOptions | None = None) -> HalfLineLimit:
    """Half-line limit of the regular M along ell -> +-infinity.

    Propagates one fundamental hat outward (with scalar renormalization,
    under which M is invariant), evaluating M at each schedule site with a
    fixed self-adjoint far boundary (Dirichlet by default). Stops when two
    consecutive values differ by less than ``opts.tol`` relative or the
    window is exhausted; the latter yields an inconclusive classification.

    The diameter estimate samples circle points at the final site. In the
    limit-point regime the returned value is boundary-independent; in the
    limit-circle regime it depends on the chosen far boundary, which is
    recorded on the result. The returned matrix is projected onto the
    sigma-Herglotz sign cone (a no-op up to roundoff in valid runs).
    """
    opts = opts or LimitOptions()
    direction = +1 if direction in (+1, "+", "plus") else -1
    z = complex(z)
    if z.imag == 0:
        raise InputError("half-line limits require Im z != 0")
    beta = opts.beta if opts.beta is not None else dirichlet(sys.m)
    if beta.sign_class != "zero":
        raise InputError("far boundary data must have sign class zero")
    schedule = opts.ell_schedule or _default_schedule(sys, k0, direction, opts.start)
    if not schedule:
        raise InputError("empty far-site schedule (window too small)")
    sigma = sigma_of(k0 + direction, k0, z)

    hat, k = initial_hat(sys, k0, alpha)[0], k0
    ells, values, gaps = [], [], []
    hats_at = {}
    prev = None
    converged = False
    note = ""
    for ell in schedule:
        hat, k = propagate_hats(sys, z, k, hat, ell, renormalize=True)[0], ell
        if not la.all_finite(hat):
            note = f"propagation lost finiteness before ell={ell}"
            break
        M, smin, _ = m_from_hat(sys, hat, ell, beta)
        if M is None:
            note = f"far boundary block singular at ell={ell} (smin={smin:.2e})"
            break
        ells.append(ell)
        values.append(M)
        hats_at[ell] = hat
        if prev is not None:
            gap = la.opnorm(M - prev) / (1.0 + la.opnorm(M))
            gaps.append(gap)
            if gap < opts.tol:
                converged = True
                break
        prev = M

    if not values:
        return HalfLineLimit(M_pm=None, direction=direction, ell_sequence=ells,
                             cauchy_gap=np.inf, diameter_estimate=np.inf,
                             classification="inconclusive", beta=beta,
                             gaps=gaps, note=note or "no M values computed")

    M_final = values[-1]
    ell_final = ells[-1]
    scale = 1.0 + la.opnorm(M_final)

    diameters = [_sampled_diameter(sys, hats_at[ell], ell, opts.n_samples)
                 for ell in ells[-3:]]
    diam = diameters[-1]

    # limit point: the chase converged and the disks have collapsed.
    # limit circle: the disks stay large and their shrinking has stalled
    # (in the point case the sampled diameter decays geometrically along the
    # doubling schedule; a stalled ratio across some recent doubling is the
    # finite-window signature of a positive-diameter limiting disk).
    ratios = [b / a for a, b in zip(diameters, diameters[1:]) if a > 0]
    stalled = bool(ratios) and max(ratios) >= 0.5
    big = max(diameters) > opts.lc_threshold * scale
    if converged and diam < opts.lp_threshold * scale:
        classification = "limit_point"
    elif big and stalled and len(diameters) >= 2:
        classification = "limit_circle"
        note = (note + "; " if note else "") + \
            "limit-circle regime: the returned value depends on the " \
            "recorded far boundary data"
    else:
        classification = "inconclusive"
        if not note and not converged:
            note = "window exhausted before the Cauchy criterion was met"

    m_proj = la.real_part(M_final) + 1j * sigma * _clip_psd(
        sigma * la.imag_part(M_final))
    return HalfLineLimit(M_pm=m_proj, direction=direction, ell_sequence=ells,
                         cauchy_gap=gaps[-1] if gaps else np.inf,
                         diameter_estimate=diam, classification=classification,
                         beta=beta, gaps=gaps, diameters=diameters, note=note)


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
    rows, violations = [], []
    for z in np.asarray(z_grid, dtype=complex).reshape(-1):
        z = complex(z)
        if z.imag <= 0:
            raise InputError("grid must lie in the open upper half plane")
        if ell is not None:
            bd = beta if beta is not None else dirichlet(sys.m)
            mz = m_regular(sys, disk_context(sys, z, k0, ell, alpha), bd).M
            mzbar = m_regular(sys, disk_context(sys, np.conj(z), k0, ell, alpha),
                              bd).M
            sgn = sigma_of(ell, k0, z)
        else:
            dir_ = +1 if direction in (+1, "+", "plus") else -1
            mz = limit_m(sys, z, k0, alpha, dir_, opts).M_pm
            mzbar = limit_m(sys, np.conj(z), k0, alpha, dir_, opts).M_pm
            sgn = dir_
        if mz is None or mzbar is None:
            violations.append(f"z={z}: no M value")
            continue
        im_min = la.min_eig_herm(sgn * la.imag_part(mz))
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
    and :func:`fit_herglotz_parts` require. All z of a call go through one
    batched propagation with the pencil check of
    :func:`hamweyl.propagate.propagate_hats`, so a near-singular pencil
    raises :class:`SteppingError` as in :func:`m_regular`. M is extracted by
    the singularity rule of :func:`m_regular`: where m_regular raises
    :class:`EigenvalueHitError` the evaluator returns NaN. Its ``extract``
    attribute maps a z array to the full (M, smin, rcond, hit) tuple.
    """
    if ell == k0:
        raise InputError("ell must differ from k0")
    init, _ = initial_hat(sys, k0, alpha)
    bt = _weighted(beta, sys, ell)

    def extract(z):
        return _extract_m(propagate_hats(sys, z, k0, init, ell), bt)

    def ev(z):
        arr = np.asarray(z, dtype=complex)
        M = extract(arr.reshape(-1))[0]
        return M[0] if arr.ndim == 0 else M

    ev.m = sys.m
    ev.extract = extract
    return ev


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
    affine_part: np.ndarray | None = None
    linear_part: np.ndarray | None = None
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
    """Locally refined composite trapezoid of a matrix-valued function.

    Returns per-bin integrals (n_bins, m, m). Segments split until the
    two-level trapezoid difference is below the per-segment share of
    ``quad_tol`` (or ``quad_rel`` relative to the segment value, whichever
    is larger) or the segment width drops under ``width_floor``. All segment
    bookkeeping is vectorized; the integrand is called once per depth level
    with the batch of new midpoints.
    """
    n_bins = len(edges) - 1
    f0 = f(edges)
    m = f0.shape[1]
    out = np.zeros((n_bins, m, m), dtype=complex)
    bin_width = np.diff(edges)
    a = edges[:-1].astype(float)
    b = edges[1:].astype(float)
    fa = f0[:-1].copy()
    fb = f0[1:].copy()
    bi = np.arange(n_bins)
    depth = np.zeros(n_bins, dtype=int)
    while a.size:
        mid = 0.5 * (a + b)
        fm = f(mid)
        h = b - a
        t1 = 0.5 * h[:, None, None] * (fa + fb)
        t2 = 0.25 * h[:, None, None] * (fa + 2.0 * fm + fb)
        err = np.max(np.abs(t2 - t1), axis=(1, 2))
        mag = np.max(np.abs(t2), axis=(1, 2))
        tol_here = np.maximum(quad_tol * h / bin_width[bi], quad_rel * mag)
        accept = (err <= tol_here) | (h <= width_floor) | (depth >= max_depth)
        np.add.at(out, bi[accept], t2[accept])
        keep = ~accept
        a, b, fa, fb, bi, depth, mid_k, fm_k = (
            a[keep], b[keep], fa[keep], fb[keep], bi[keep], depth[keep],
            mid[keep], fm[keep])
        a = np.concatenate([a, mid_k])
        b = np.concatenate([mid_k, b])
        fa = np.concatenate([fa, fm_k])
        fb = np.concatenate([fm_k, fb])
        bi = np.concatenate([bi, bi])
        depth = np.concatenate([depth + 1, depth + 1])
    return out


def spectral_measure(m_eval, interval, grid_n: int, eps_schedule, *,
                     sigma: int = +1, quad_tol: float = 1e-9,
                     quad_rel: float = 1e-6, measure_tol: float = 1e-6,
                     tol_psd: float = TOL_PSD,
                     fit_tail_parts: bool = False) -> SpectralMeasure:
    """Stieltjes inversion of a Herglotz evaluator onto a real grid.

    ``m_eval`` maps a 1-d array of N spectral parameters to the (N, m, m)
    stack of M values in one call (as :func:`regular_m_evaluator` does). Per
    bin (l_i + d, l_{i+1} + d] with offset d = eps/2, the increment is
    (1/pi) times the integral of Im[sigma M(nu + i eps)], computed by a
    locally refined composite trapezoid at each epsilon of the decreasing
    schedule. The reported increments are those of the smallest epsilon; a
    linear Richardson extrapolation across the last two epsilons is stored
    alongside, and disagreement beyond ``measure_tol`` flags the schedule as
    non-convergent (not fatal). Increments are Hermitized; eigenvalues in
    [-tol_psd, 0) are clipped to zero and larger negatives flagged.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not hi > lo:
        raise InputError("interval must be nondegenerate")
    eps_list = [float(e) for e in np.atleast_1d(np.asarray(eps_schedule, dtype=float))]
    if not eps_list or any(e <= 0 for e in eps_list):
        raise InputError("eps schedule must be positive")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise InputError("eps schedule must be strictly decreasing")
    base_edges = np.linspace(lo, hi, int(grid_n) + 1)

    per_eps = []
    for eps in eps_list:
        delta = 0.5 * eps

        def integrand(nu):
            s = sigma * m_eval(np.asarray(nu, dtype=float) + 1j * eps)
            return (s - s.conj().swapaxes(-1, -2)) / 2j

        raw = _adaptive_bin_integrals(integrand, base_edges + delta, quad_tol,
                                      width_floor=eps / 256.0, quad_rel=quad_rel)
        per_eps.append(raw / np.pi)

    inc = per_eps[-1]
    if len(per_eps) >= 2:
        e1, e2 = eps_list[-2], eps_list[-1]
        prev = per_eps[-2]
        rich = inc + (inc - prev) * (e2 / (e1 - e2))
        gap = float(np.max(np.abs(inc - prev)))
        total = max(1.0, float(np.max(np.abs(np.sum(inc, axis=0)))))
        converged = gap <= measure_tol * total
    else:
        rich = inc.copy()
        gap = np.inf
        converged = False

    clip_flags = []

    def clean(stack):
        cleaned = np.empty_like(stack)
        for i, a in enumerate(stack):
            w, v = np.linalg.eigh(la.herm(a))
            if np.any(w < -tol_psd) and i not in clip_flags:
                clip_flags.append(i)
            w = np.where((w < 0) & (w >= -tol_psd), 0.0, w)
            cleaned[i] = la.herm((v * w) @ v.conj().T)
        return cleaned

    inc = clean(inc)
    rich = clean(rich)
    if not converged and len(per_eps) >= 2:
        warnings.warn(
            f"spectral measure schedule not converged (gap {gap:.2e}); "
            "refine the epsilon schedule", RuntimeWarning, stacklevel=2)
    c1 = c2 = None
    if fit_tail_parts:
        c1, c2 = fit_herglotz_parts(m_eval, sigma=sigma)
    return SpectralMeasure(grid=base_edges, increments=inc,
                           epsilon_schedule=tuple(eps_list),
                           increments_richardson=rich, converged=converged,
                           convergence_gap=gap, affine_part=c1,
                           linear_part=c2, clip_flags=clip_flags)


def fit_herglotz_parts(m_eval, y_max: float = 1e6, sigma: int = +1):
    """Large-argument fit of the affine and linear representation parts.

    Evaluates sigma M(iy) at y = y_max and y_max/4 in one call of the array
    evaluator ``m_eval`` (see :func:`spectral_measure`): the linear part is the
    Hermitized limit of M(iy)/(iy) (clipped to the positive cone; zero for
    Schroedinger- and Dirac-type cases), the affine part the Hermitian
    remainder at the largest argument. A large-y fit for diagnostics, off by
    default in :func:`spectral_measure`.
    """
    ys = np.array([y_max / 4.0, y_max])
    vals = m_eval(1j * ys)
    c2_raw = la.herm(sigma * vals[-1] / (1j * ys[-1]))
    c2 = _clip_psd(c2_raw)
    c1 = la.real_part(sigma * vals[-1] - 1j * ys[-1] * c2)
    return c1, c2


def locate_jumps(measure: SpectralMeasure, threshold: float = 1e-3,
                 richardson: bool = True):
    """Cluster adjacent above-threshold bins into candidate point masses.

    Returns (positions, masses): mass-weighted centroids of maximal runs of
    bins whose trace increment exceeds ``threshold``. A pole sitting near a
    bin edge spreads over two neighbouring bins (the quadrature offset is
    half the smoothing epsilon), so clustering is required before counting.
    """
    tr = measure.trace_increments(richardson=richardson)
    centers = 0.5 * (measure.grid[:-1] + measure.grid[1:])
    hot = tr > threshold
    positions, masses = [], []
    i = 0
    n = len(tr)
    while i < n:
        if not hot[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and hot[j + 1]:
            j += 1
        mass = float(np.sum(tr[i:j + 1]))
        positions.append(float(np.sum(centers[i:j + 1] * tr[i:j + 1]) / mass))
        masses.append(mass)
        i = j + 1
    return np.array(positions), np.array(masses)


@dataclass
class XiReport:
    lambdas: np.ndarray
    xi: np.ndarray            # (n, m, m); NaN blocks where skipped
    skipped: list[int]
    range_defect: float       # max violation of 0 <= Xi <= I over the grid

    @property
    def range_ok(self) -> bool:
        return self.range_defect <= 1e-8


def xi_function(m_eval, lambda_grid, eps: float, *, sign: int = +1,
                singular_tol: float = 1e-12) -> XiReport:
    """Phase matrix (1/pi) Im log(sign * M(lambda + i eps)) on a real grid.

    ``m_eval`` evaluates the whole grid in one call (see
    :func:`spectral_measure`). Uses the principal matrix logarithm; grid
    points with numerically singular M are skipped and flagged. Eigenvalues of the result are
    checked against [0, 1] and the worst violation is reported.
    """
    lam = np.asarray(lambda_grid, dtype=float).reshape(-1)
    vals = m_eval(lam + 1j * float(eps))
    m = vals.shape[-1]
    xi = np.full((len(lam), m, m), np.nan, dtype=complex)
    skipped = []
    worst = 0.0
    for i, v in enumerate(vals):
        w = sign * v
        if la.smallest_singular_value(w) < singular_tol * max(1.0, la.opnorm(w)):
            skipped.append(i)
            continue
        logw = scipy.linalg.logm(w)
        x = la.herm(la.imag_part(logw)) / np.pi
        xi[i] = x
        eigs = np.linalg.eigvalsh(x)
        worst = max(worst, float(max(0.0 - eigs[0], eigs[-1] - 1.0, 0.0)))
    return XiReport(lambdas=lam, xi=xi, skipped=skipped, range_defect=worst)


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


def riccati_from_solution(sys: HamiltonianSystem, U: WeylTrajectory,
                          k0: int | None = None,
                          singular_tol: float = 1e-12) -> RiccatiSolutionReport:
    """Riccati variable along a Weyl-solution trajectory.

    V(k) = rho(k) u2(k+1) u1(k)^{-1}; sites with singular u1 are recorded as
    per-site errors rather than raised.
    """
    k0 = U.k0 if k0 is None else k0
    z = U.z
    v_out, sign_out, errors = {}, {}, {}
    for k in U.sites:
        u1 = U.u1(k)
        if la.rcond(u1) < singular_tol:
            errors[k] = f"u1 singular at site {k}"
            continue
        v = sys.rho(k) @ la.rsolve(U.u2_next(k), u1)
        v_out[k] = v
        sigma = sigma_of(k, k0, z) if k != k0 else sigma_of(k0 + 1, k0, z)
        sign_out[k] = la.max_eig_herm(sigma * la.imag_part(v))
    return RiccatiSolutionReport(V=v_out, sign_max=sign_out, errors=errors)


@dataclass
class RiccatiResidualReport:
    norms: dict[int, float]
    errors: dict[int, str]

    @property
    def max_norm(self) -> float:
        return max(self.norms.values()) if self.norms else np.nan


def riccati_residual(sys: HamiltonianSystem, z: complex, V: dict[int, np.ndarray],
                     singular_tol: float = 1e-13) -> RiccatiResidualReport:
    """Defect of the one-step Riccati recursion at every site with a predecessor.

    residual(k) = V(k) - P11(k)
                  - P12(k) [rho(k-1) V(k-1)^{-1} rho(k-1) - P22(k)]^{-1} P21(k).
    """
    norms, errors = {}, {}
    for k in sorted(V):
        if k - 1 not in V:
            continue
        p11, p12, p21, p22 = sys.pencil_blocks(z, k)
        rho_prev = sys.rho(k - 1)
        v_prev = V[k - 1]
        if la.rcond(v_prev) < singular_tol:
            errors[k] = f"V({k - 1}) singular"
            continue
        inner = rho_prev @ np.linalg.inv(v_prev) @ rho_prev - p22
        if la.rcond(inner) < singular_tol:
            errors[k] = f"inner matrix singular at site {k}"
            continue
        correction = p12 @ np.linalg.solve(inner, p21)
        res = V[k] - p11 - correction
        scale = 1.0 + la.opnorm(V[k]) + la.opnorm(p11) + la.opnorm(correction)
        norms[k] = la.opnorm(res) / scale
    return RiccatiResidualReport(norms=norms, errors=errors)
