"""Whole-line and half-line Green's matrices and the nonhomogeneous solve.

A kernel couples two solution families: the decaying family at the singular
endpoint(s) built from half-line (or circle-surrogate) M data, and either the
opposite decaying family (whole line) or the base-boundary column block of
the fundamental system (half lines). The mixed diagonal block is implemented
exactly as the theory prints it and certified at construction time by the
delta-residual identity

    ((S_rho - zA - B) K(z, ., ell))(k) = delta_{k ell} I_{2m},

never trusted: a defect above 1e-6, or a solve residual above it, raises
:class:`KernelConstructionError`.

Every kernel is built at its own z, in either half plane, from the families
at z and conj z, each held as one array of plain values at [z, conj z];
the Herglotz signs of M+- follow sign(Im z).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _linalg as la
from .errors import InputError, KernelConstructionError
from .propagate import (
    _hats,
    _lower_edge_transfers,
    _pairing_defects,
    _plains,
    _riccati,
    _trajectory,
    _weyl_columns,
    initial_hat,
    lagrange_bilinear,
)
from .system import HamiltonianSystem
from .weyl import _admissible_z, _herglotz_margin, sigma_of

__all__ = [
    "GreensKernel",
    "NonhomogeneousSolve",
    "build_whole_kernel",
    "build_half_kernel_plus",
    "build_half_kernel_minus",
    "delta_residual",
    "alternative_representation",
    "solve_nonhomogeneous",
    "boundary_flux",
    "flux_trend",
    "diagonal_riccati_blocks",
]

_CERTIFICATE_TOL = 1e-6  # the bar of the kernel delta defect and the solve residual
_N_PROBES = 4  # source sites next to k0 at which a kernel is certified

# the sides of k0 whose decaying family (from M_plus, M_minus) a variant
# couples; a half kernel's window ends at k0 on the other side
_SIDES = {"whole": ("+", "-"), "half_plus": ("+",), "half_minus": ("-",)}


def _cut(variant: str, window, k0: int) -> tuple[int, int]:
    """``window`` cut at k0 to the sides of k0 that ``variant`` couples."""
    sides = _SIDES[variant]
    return (window[0] if "-" in sides else k0, window[1] if "+" in sides else k0)


@dataclass
class GreensKernel:
    """Evaluator for a 2m x 2m Green's matrix over a finite window.

    ``at(k, ell)`` returns the kernel block. Each coupled solution family
    is held as one array of its plain values (psi1(k); psi2(k)) over the
    window and one site above it, at [z, conj(z)]: shape (2, n, 2m, m). For
    the whole-line variant the coupling matrix is (M_minus - M_plus)^{-1};
    the half-line variants couple through +I and -I respectively.
    """

    variant: str              # "whole" | "half_plus" | "half_minus"
    z: complex
    k0: int
    window: tuple[int, int]
    sys: HamiltonianSystem
    omega: np.ndarray
    M_plus: np.ndarray | None
    M_minus: np.ndarray | None
    # plain values of the +/- role families and of the fundamental system
    _up: np.ndarray = None
    _um: np.ndarray = None
    _psi: np.ndarray = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def m(self) -> int:
        return self.sys.m

    def _rows(self, k: int, n: int = 1) -> slice:
        """Rows of the sites k .. k+n-1 in the arrays over lo .. hi+1."""
        lo, hi = self.window
        if n and not lo <= k <= k + n - 1 <= hi + 1:
            raise InputError(f"sites {k}..{k + n - 1} outside [{lo},{hi + 1}]")
        return slice(k - lo, k - lo + n)

    def at(self, k: int, ell: int) -> np.ndarray:
        """Kernel block K(z, k, ell)."""
        if k == ell:
            return self._diag(range(k, k + 1))[0]
        u, v = (self._up, self._um) if k > ell else (self._um, self._up)
        return u[0, self._rows(k)][0] @ self.omega @ v[1, self._rows(ell)][0].conj().T

    def _diag(self, sites: range) -> np.ndarray:
        """Diagonal blocks K(z, k, k) over a run of sites as a stack: top
        rows from U+ Omega U-'*, bottom rows from U- Omega U+'*, one product
        per m x m block."""
        m, s = self.m, self._rows(sites.start, len(sites))
        rows = [(self._up, self._um), (self._um, self._up)]
        out = np.empty((len(sites), 2 * m, 2 * m), dtype=complex)
        for half, (left, right) in zip((slice(None, m), slice(m, None)), rows):
            u = left[0, s, half] @ self.omega
            v = right[1, s]
            out[:, half, :m] = u @ la.adjoint(v[:, :m])
            out[:, half, m:] = u @ la.adjoint(v[:, m:])
        return out

    def source_sites(self) -> range:
        """Sites of the window on the variant's sides of k0 (k0 itself too on
        the whole line), where a source term is admitted."""
        lo, hi = self.window
        sides = _SIDES[self.variant]
        return range(lo if "-" in sides else self.k0 + 1,
                     hi + 1 if "+" in sides else self.k0)


def _herglotz_checked(M, side: str, variant: str, z: complex, m: int) -> np.ndarray:
    """M_plus (side "+") or M_minus of a ``variant`` kernel at z as a finite
    complex m x m matrix, once sigma Im M_plus > 0 > sigma Im M_minus,
    sigma = sign(Im z), up to a slack of 1e-10 (1 + ||M||)."""
    label = "M_plus" if side == "+" else "M_minus"
    if M is None:
        raise InputError(f"the {variant} kernel needs {label}")
    M = la.as_complex_matrix(M, (m, m), label)
    sigma = sigma_of(1 if side == "+" else -1, 0, z)  # the sign of M's half line
    lo = _herglotz_margin(M, sigma)
    if lo < -1e-10 * (1.0 + la.opnorm(M)):
        raise KernelConstructionError(
            f"Im {label} must be {'positive' if sigma > 0 else 'negative'} definite "
            f"at z={z} (offending eigenvalue {lo:.3e})")
    return M


def _certify(kernel: GreensKernel) -> None:
    lo, hi = kernel.window
    candidates = [kernel.k0 + d for d in (-2, -1, 1, 2, 3)]
    probes = [p for p in candidates
              if p in kernel.source_sites() and lo < p < hi][:_N_PROBES]
    if not probes:
        probes = [p for p in kernel.source_sites() if lo < p < hi][:1]
    if not probes:
        kernel.diagnostics["delta_defect"] = np.nan
        return
    worst = max(delta_residual(kernel, ell) for ell in probes)
    kernel.diagnostics["delta_defect"] = worst
    if worst > _CERTIFICATE_TOL:
        raise KernelConstructionError(
            f"delta-residual certificate failed: defect {worst:.2e} > "
            f"{_CERTIFICATE_TOL:g} at the sites {probes} next to k0")


def _operator_residual(sys: HamiltonianSystem, z: complex, y: np.ndarray,
                       k_lo: int):
    """((S_rho - zA - B) y)(k) at the inner sites of an (n, 2m, r) stack
    ``y`` of site values from k_lo, with the pencils of those sites."""
    m = sys.m
    sites = range(k_lo, k_lo + len(y) - 1)
    p = sys.pencil(z, sites[1:])
    py = p @ y[1:-1]
    rho = sys.rho(sites)
    return np.concatenate((rho[1:] @ y[2:, m:] - py[:, :m],
                           rho[:-1] @ y[:-2, :m] - py[:, m:]), axis=1), p


def delta_residual(kernel: GreensKernel, ell: int) -> float:
    """Max norm over interior sites of (S_rho - zA - B) K(., ell) - delta I."""
    lo, hi = kernel.window
    column = _unit_column(kernel, ell, False, kernel.at(ell, ell))[:-1]
    res, _ = _operator_residual(kernel.sys, kernel.z, column, lo)
    if lo < ell < hi:
        res[ell - lo - 1] -= np.eye(2 * kernel.m)
    return max([0.0] + la.opnorm(res).tolist())


def _build(sys, z, k0, alpha, window, variant, M_plus, M_minus, certify=True):
    """The ``variant`` kernel over ``window``; only the M of its sides is read."""
    z = _admissible_z(z)
    sides = _SIDES[variant]
    lo, hi = int(window[0]), int(window[1])
    if not lo <= k0 <= hi or _cut(variant, (lo, hi), k0) != (lo, hi):
        raise InputError(f"a {variant} window must contain k0 and end there on a "
                         f"side it does not couple, not {(lo, hi)}")
    m = sys.m
    mp, mm = (_herglotz_checked(M, side, variant, z, m) if side in sides else None
              for side, M in zip("+-", (M_plus, M_minus)))
    if len(sides) == 2:
        diff = mm - mp
        if la.rcond(diff) < la._SINGULAR_RCOND:
            raise KernelConstructionError("M_minus - M_plus is singular")
        omega, target = np.linalg.inv(diff), diff
    else:
        eye = np.eye(m, dtype=complex)
        omega = target = eye if mp is not None else -eye

    # fundamental hats at [z, conj z] as one batch over lo..hi+1, so plain
    # values reach the top edge; psi2 at lo comes from a backward transfer
    zs = np.array([z, np.conj(z)])
    hats = _trajectory(sys, zs, k0, initial_hat(sys, k0, alpha), lo, hi + 1).swapaxes(0, 1)
    t_lo = _lower_edge_transfers(sys, zs, lo)
    psi = _plains(hats, t_lo)

    def role(M):
        """Plains of Psi (I; M) at z and Psi (I; M*) at conj z, or of the
        fundamental's Phi block where a half kernel has no M."""
        if M is None:
            return psi[..., m:]
        return _plains(np.stack([h @ _weyl_columns(m, w)
                                 for h, w in zip(hats, (M, M.conj().T))]), t_lo)

    up, um = role(mp), role(mm)
    bad = ~(np.isfinite(up) & np.isfinite(um)).all(axis=(0, 2, 3))
    if bad.any():  # else the pairing's SVD norms raise LinAlgError
        raise KernelConstructionError("the solution families leave the float range "
                                      f"at site {lo + bad.argmax()} of [{lo}, {hi}]")
    kernel = GreensKernel(variant=variant, z=z, k0=k0, window=(lo, hi), sys=sys,
                          omega=omega, M_plus=mp, M_minus=mm, _up=up, _um=um, _psi=psi)
    # the pairing is exactly constant in k; far-site drift measures float
    # cancellation in the decaying family, not a formula error
    defects = _pairing_defects(sys, _hats(um[1])[:-1], _hats(up[0])[:-1],
                               range(lo, hi), target)
    kernel.diagnostics["coupling_defect"] = max(
        [0.0] + defects[max(k0 - 8 - lo, 0):k0 + 9 - lo])
    kernel.diagnostics["coupling_drift"] = max([0.0] + defects)
    if variant == "whole":
        cross = mp @ omega @ mm - mm @ omega @ mp
        kernel.diagnostics["coupling_identity_defect"] = la.opnorm(cross)
    if certify:
        _certify(kernel)
    return kernel


def build_whole_kernel(sys: HamiltonianSystem, z: complex, k0: int, alpha,
                       M_plus, M_minus, window, certify: bool = True) -> GreensKernel:
    """Whole-line Green's kernel from a pair of half-line (or circle
    surrogate) matrices.

    Requires sigma Im M_plus > 0 and sigma Im M_minus < 0, sigma = sign(Im z),
    and an invertible difference; the kernel identity holds for any
    admissible pair since only the solution property and the coupling
    inverse enter.
    """
    return _build(sys, z, k0, alpha, window, "whole", M_plus, M_minus, certify)


def build_half_kernel_plus(sys: HamiltonianSystem, z: complex, k0: int, alpha,
                           M_plus, window, certify: bool = True) -> GreensKernel:
    """Right half-line kernel on [k0, hi]; the base-boundary role is played
    by the fundamental's right column block and the coupling is +I."""
    return _build(sys, z, k0, alpha, window, "half_plus", M_plus, None, certify)


def build_half_kernel_minus(sys: HamiltonianSystem, z: complex, k0: int, alpha,
                            M_minus, window, certify: bool = True) -> GreensKernel:
    """Left half-line kernel on [lo, k0]; mirror of the plus variant with an
    overall sign and coupling -I."""
    return _build(sys, z, k0, alpha, window, "half_minus", None, M_minus, certify)


def alternative_representation(kernel: GreensKernel, k: int, ell: int) -> np.ndarray:
    """Off-diagonal whole-line kernel through the fundamental system.

    K(z,k,ell) = Psi(z,k) T Psi(conj z, ell)* with T the 2x2 block matrix in
    (M_minus - M_plus)^{-1} and the one-sided products of M data.
    """
    if kernel.variant != "whole":
        raise InputError("alternative representation applies to whole-line kernels")
    if k == ell:
        raise InputError("alternative representation holds off the diagonal")
    om = kernel.omega
    a, b = (kernel.M_plus, kernel.M_minus) if k > ell \
        else (kernel.M_minus, kernel.M_plus)
    t = np.block([[om, om @ b], [a @ om, a @ om @ b]])
    return (kernel._psi[0, kernel._rows(k)][0] @ t
            @ kernel._psi[1, kernel._rows(ell)][0].conj().T)


# ---------------------------------------------------------------------------
# nonhomogeneous solve
# ---------------------------------------------------------------------------

@dataclass
class NonhomogeneousSolve:
    """Superposition solution y(k) = sum_ell K(k, ell) A(ell) f(ell) with
    residual, square-summability, and boundary diagnostics."""

    y: dict
    residual_by_site: dict[int, float]
    residual_max: float
    l2a_lhs: float
    l2a_rhs: float
    l2a_bound: float          # (Im z)^{-2} * rhs
    kernel_square_trace: dict[int, float]

    def y_hat(self, k: int) -> np.ndarray:
        return _hats([self.y[k], self.y[k + 1]])[0]

    @property
    def l2a_ok(self) -> bool:
        return self.l2a_lhs <= self.l2a_bound + 1e-6 * (1.0 + self.l2a_rhs)


def _coerce_source(kernel: GreensKernel, f) -> dict:
    m2 = 2 * kernel.m
    sites = kernel.source_sites()
    if not isinstance(f, dict):
        arr = np.asarray(f, dtype=complex)
        if len(arr) != len(sites):
            raise InputError(
                f"array source must cover the {len(sites)} admissible sites")
        f = dict(zip(sites, arr))
    out = {}
    for k, v in f.items():
        k, v = int(k), np.asarray(v, dtype=complex)
        if k not in sites:
            raise InputError(f"source at site {k} outside the admissible range")
        v = v[:, None] if v.ndim == 1 else v
        if v.shape[0] != m2:
            raise InputError(f"source values must have {m2} rows")
        if out and v.shape[1] != next(iter(out.values())).shape[1]:
            raise InputError("source values must share a column count")
        out[k] = v
    return out


def _superpose(kernel: GreensKernel, g: np.ndarray, span: range,
               rows: bool) -> np.ndarray:
    """Off-diagonal part of y(k) = sum_ell K(k, ell) g(ell) at the sites
    lo .. hi+1 of ``g`` (sources in ``span``): U+(k) Omega S-(k) + U-(k)
    Omega S+(k), with S- the prefix sum of U-'(ell)* g(ell) over ell < k and
    S+ the suffix sum of U+'(ell)* g(ell) over ell > k (' marks conj z).
    With ``rows`` the sum runs over the adjoint kernel K(k, ell)* =
    K(conj z, ell, k), whose columns are the rows of K: the z and conj(z)
    families swap and Omega becomes Omega*."""
    lo = kernel.window[0]
    # flipping the z axis swaps the z and conj(z) families
    up, um = (f[::-1] if rows else f for f in (kernel._up, kernel._um))
    om = kernel.omega.conj().T if rows else kernel.omega
    y = np.zeros_like(g)
    if not span:
        return y
    a, b = span.start - lo, span.stop - lo
    t = np.zeros((len(g), kernel.m, g.shape[2]), dtype=complex)
    t[a:b] = la.adjoint(um[1, a:b]) @ g[a:b]
    y[a + 1:] += up[0, a + 1:] @ om @ np.cumsum(t, axis=0)[a:-1]
    t[:] = 0.0
    c = max(a, 1)
    t[c:b] = la.adjoint(up[1, c:b]) @ g[c:b]
    y[:b - 1] += um[0, :b - 1] @ om @ np.cumsum(t[::-1], axis=0)[::-1][1:b]
    return y


def _unit_column(kernel: GreensKernel, ell: int, rows: bool,
                 diag_block) -> np.ndarray:
    """Column K(., ell) over lo .. hi+1 (with ``rows``, the adjoint row
    K(ell, .)*) as :func:`_superpose` gives it, bit for bit the site-by-site
    blocks (a product with I is exact)."""
    lo, hi = kernel.window
    g = np.zeros((hi + 2 - lo, 2 * kernel.m, 2 * kernel.m), dtype=complex)
    g[ell - lo] = np.eye(2 * kernel.m)
    column = _superpose(kernel, g, range(ell, ell + 1), rows)
    column[ell - lo] = diag_block
    return column


def solve_nonhomogeneous(kernel: GreensKernel, f) -> NonhomogeneousSolve:
    """Evaluate the kernel superposition in O(n) and certify it.

    Checks the pointwise residual of the nonhomogeneous system at interior
    sites, the square-summability inequality
    sum y* A y <= (Im z)^{-2} sum f* A f (up to truncation slack), and
    reports the per-site kernel square sums for tail-decay diagnostics.
    A relative residual above 1e-6 at any interior site raises
    :class:`KernelConstructionError`; the kernel probes only next to k0.
    """
    sys = kernel.sys
    lo, hi = kernel.window
    z = kernel.z
    fd = _coerce_source(kernel, f)
    r = next(iter(fd.values())).shape[1] if fd else 1
    # one extra site so hats exist at the top edge
    a = sys.A(range(lo, hi + 2))
    f_all = np.zeros((hi + 2 - lo, 2 * kernel.m, r), dtype=complex)
    for k, v in fd.items():
        f_all[k - lo] = v
    g = a @ f_all
    src = kernel.source_sites()
    rows = slice(src.start - lo, src.stop - lo)
    y = _superpose(kernel, g, src, False)
    y[rows] += kernel._diag(src) @ g[rows]

    res, pencils = _operator_residual(sys, z, y[:-1], lo)
    af = g[1:-2]
    scale = 1.0 + la.opnorm(y[1:-2]) * la.opnorm(pencils) + la.opnorm(af)
    residual_by_site = dict(zip(range(lo + 1, hi),
                                (la.opnorm(res - af) / scale).tolist()))
    residual_max = max(residual_by_site.values(), default=0.0)
    if residual_max > _CERTIFICATE_TOL:
        raise KernelConstructionError(
            f"solve certificate failed: relative residual {residual_max:.2e} > "
            f"{_CERTIFICATE_TOL:g}")

    rhs = float(np.vdot(f_all, g).real)
    lhs = float(np.vdot(y[rows], a[rows] @ y[rows]).real)
    ksq = {}
    for k in (lo, (lo + hi) // 2, hi):
        # the row K(k, .), read as the adjoint column K(k, .)*
        col = _unit_column(kernel, k, True,
                           kernel.at(k, k).conj().T if k in src else 0.0)
        ksq[k] = float(np.vdot(col[rows], a[rows] @ col[rows]).real)

    return NonhomogeneousSolve(
        y=dict(zip(range(lo, hi + 2), y)),
        residual_by_site=residual_by_site,
        residual_max=residual_max,
        l2a_lhs=lhs, l2a_rhs=rhs,
        l2a_bound=rhs / (z.imag ** 2),
        kernel_square_trace=ksq)


def _fluxes(kernel: GreensKernel, y, sites: range, side: str) -> np.ndarray:
    """(n, m, r) stack of Uhat_side(conj z, k)* J_rho(k) yhat(k) over a
    range of sites of the window."""
    if side not in _SIDES[kernel.variant]:
        raise InputError(f"a {kernel.variant} kernel has a flux on the sides "
                         f"{_SIDES[kernel.variant]}, not {side!r}")
    u = (kernel._up if side == "+" else kernel._um)[1]
    uhat = _hats(u[kernel._rows(sites.start, len(sites) + 1)])
    yhat = _hats([y[k] for k in range(sites.start, sites.stop + 1)])
    return lagrange_bilinear(kernel.sys, sites, uhat, yhat)


def boundary_flux(kernel: GreensKernel, solve: NonhomogeneousSolve | dict,
                  k: int, side: str = "+") -> np.ndarray:
    """Flux pairing of the decaying family against a solution at a site k
    of the window (the hats at k read the plain values at k and k+1).

    Returns Uhat_side(conj z, k)* J_rho(k) yhat(k); it must tend to zero at
    the corresponding singular endpoint, and vanishes identically when y is
    the decaying family itself.
    """
    y = solve.y if isinstance(solve, NonhomogeneousSolve) else solve
    return _fluxes(kernel, y, range(k, k + 1), side)[0]


def flux_trend(kernel: GreensKernel, solve: NonhomogeneousSolve,
               side: str = "+") -> dict:
    """Magnitude of the endpoint flux over the outer third of the window.

    Returns the sampled sites, norms, the last/first ratio, and the fraction
    of successive decreases; a decaying trend is the finite-window surrogate
    of the boundary condition at the singular endpoint. The sample is the
    max(2, (hi - lo) // 3) sites that end at hi - 1 (side "+") or start at
    lo (side "-"), clamped to the sites lo..hi whose hats the window holds.
    A one-step window samples one site on the "+" side, and a window of
    one site one on either side: a single sampled site reports ratio 1 (0
    when its flux vanishes) and monotone fraction 0, that is, no trend.
    """
    lo, hi = kernel.window
    n = max(2, (hi - lo) // 3)
    if side == "+":
        sites = range(max(lo, hi - n), max(lo, hi - 1) + 1)
    else:
        sites = range(lo, min(hi, lo + n - 1) + 1)
    norms = la.opnorm(_fluxes(kernel, solve.y, sites, side)).tolist()
    outward = norms if side == "+" else norms[::-1]  # toward the side's end
    drops = sum(1 for a, b in zip(outward, outward[1:]) if b < a)
    ratio = (outward[-1] / outward[0]) if outward[0] > 0 else 0.0
    return {"sites": list(sites), "norms": norms, "ratio": ratio,
            "monotone_fraction": drops / max(1, len(norms) - 1)}


def diagonal_riccati_blocks(kernel: GreensKernel, sites=None) -> dict:
    """Diagonal kernel blocks through the Riccati variables of both families.

    For each requested site computes V_side = rho u_{side,2}+ u_{side,1}^{-1},
    assembles the four diagonal entries from (V_plus - V_minus)^{-1}, and
    cross-checks against the directly evaluated diagonal block. Sites with a
    singular leading block are reported as errors. All sites are computed
    as one stack.
    """
    m = kernel.m
    lo, hi = kernel.window
    sites = list(range(lo, hi) if sites is None else sites)
    # rows of the plains at k and k+1; V from the z-family hats (u1(k);
    # u2(k+1)), the diagonal entries from the plains at k of both families
    rows = np.array([kernel._rows(k, 2).start for k in sites], dtype=int)
    (vp, ok_p), (vm, ok_m) = (
        _riccati(kernel.sys, sites, _hats(f[0])[rows])
        for f in (kernel._up, kernel._um))
    lead = ok_p & ok_m
    ok = lead.copy()
    ok[lead] = ~(la.rcond(vp[lead] - vm[lead]) < la._SINGULAR_RCOND)
    errors = {k: "V_plus - V_minus singular" if a else "leading block singular"
              for k, a, b in zip(sites, lead, ok) if not b}
    rows, vp, vm = rows[ok], vp[ok], vm[ok]
    (up, up_c), (um, um_c) = kernel._up[:, rows], kernel._um[:, rows]
    core = np.linalg.inv(vp - vm)
    left = la.rsolve(um[:, m:], um[:, :m]) @ core
    blk = np.block([
        [core, core @ np.linalg.solve(la.adjoint(um_c[:, :m]), la.adjoint(um_c[:, m:]))],
        [left, left @ np.linalg.solve(la.adjoint(up_c[:, :m]), la.adjoint(up_c[:, m:]))]])
    defect = la.opnorm(blk - kernel._diag(range(lo, hi + 1))[rows]).tolist()
    good = [k for k, b in zip(sites, ok) if b]
    return {"blocks": dict(zip(good, blk)), "defect": dict(zip(good, defect)),
            "errors": errors, "V_plus": dict(zip(good, vp)), "V_minus": dict(zip(good, vm))}
