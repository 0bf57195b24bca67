"""Whole-line and half-line Green's matrices and the nonhomogeneous solve.

A kernel couples two solution families: the decaying family at the singular
endpoint(s) built from half-line (or circle-surrogate) M data, and either the
opposite decaying family (whole line) or the base-boundary column block of
the fundamental system (half lines). The mixed diagonal block is implemented
exactly as the theory prints it and certified at construction time by the
delta-residual identity

    ((S_rho - zA - B) K(z, ., ell))(k) = delta_{k ell} I_{2m},

never trusted; a failure is logged together with the residual of the
alternative row mixing rather than silently swapped.

Kernels for Im z < 0 are produced from the conjugation symmetry
K(z, k, ell) = K(conj z, ell, k)* rather than re-derived.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import _linalg as la
from .errors import InputError, KernelConstructionError
from .propagate import (
    HatTrajectory,
    _pairing_defects,
    fundamental,
    weyl_solution,
)
from .system import HamiltonianSystem

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


@dataclass
class GreensKernel:
    """Evaluator for a 2m x 2m Green's matrix over a finite window.

    ``at(k, ell)`` returns the kernel block; trajectories of the coupled
    solution families at z and conj(z) cover the window and one site above
    it, with their plain values computed once. For the
    whole-line variant the coupling matrix is (M_minus - M_plus)^{-1}; the
    half-line variants couple through +I and -I respectively.
    """

    variant: str              # "whole" | "half_plus" | "half_minus"
    z: complex
    k0: int
    alpha: object
    window: tuple[int, int]
    sys: HamiltonianSystem
    omega: np.ndarray
    M_plus: np.ndarray | None
    M_minus: np.ndarray | None
    # solution families in the +/- roles at z_pos and conj(z_pos)
    _up_z: HatTrajectory = None
    _up_zb: HatTrajectory = None
    _um_z: HatTrajectory = None
    _um_zb: HatTrajectory = None
    _fund_z: HatTrajectory = None
    _fund_zb: HatTrajectory = None
    conjugated: bool = False
    diagnostics: dict = field(default_factory=dict)

    @property
    def m(self) -> int:
        return self.sys.m

    @property
    def z_pos(self) -> complex:
        return self.z if not self.conjugated else np.conj(self.z)

    def _at_pos(self, k: int, ell: int) -> np.ndarray:
        om = self.omega
        if k > ell:
            return self._up_z.plain(k) @ om @ self._um_zb.plain(ell).conj().T
        if k < ell:
            return self._um_z.plain(k) @ om @ self._up_zb.plain(ell).conj().T
        return self._diag(range(k, k + 1))[0]

    def _diag(self, sites: range, alternative: bool = False) -> np.ndarray:
        """Diagonal blocks K(z_pos, k, k) over a run of sites as a stack: top
        rows from U+ Omega U-'*, bottom rows from U- Omega U+'* (swapped for
        the ``alternative`` row mixing), one product per m x m block."""
        m = self.m
        rows = [(self._up_z, self._um_zb), (self._um_z, self._up_zb)]
        if alternative:
            rows.reverse()
        out = np.empty((len(sites), 2 * m, 2 * m), dtype=complex)
        for half, (left, right) in zip((slice(None, m), slice(m, None)), rows):
            u = left.plains(sites)[:, half] @ self.omega
            v = right.plains(sites)
            out[:, half, :m] = u @ la.adjoint(v[:, :m])
            out[:, half, m:] = u @ la.adjoint(v[:, m:])
        return out

    def at(self, k: int, ell: int) -> np.ndarray:
        """Kernel block K(z, k, ell)."""
        if self.conjugated:
            return self._at_pos(ell, k).conj().T
        return self._at_pos(k, ell)

    def source_sites(self) -> range:
        """Sites where a source term is admitted by the variant."""
        lo, hi = self.window
        if self.variant == "half_plus":
            return range(self.k0 + 1, hi + 1)
        if self.variant == "half_minus":
            return range(lo, self.k0)
        return range(lo, hi + 1)

    # hat values of the +/- role families at conj(z); used for flux checks
    def u_hat_conj(self, side: str, k: int) -> np.ndarray:
        fam = self._up_zb if side == "+" else self._um_zb
        return fam.hat(k)


def _herglotz_sign_check(M: np.ndarray, want_positive: bool, label: str) -> None:
    im = la.imag_part(M)
    lo = la.min_eig_herm(im) if want_positive else -la.max_eig_herm(im)
    if lo <= 0 and abs(lo) > 1e-10 * (1.0 + la.opnorm(M)):
        sign = "positive" if want_positive else "negative"
        raise KernelConstructionError(
            f"Im {label} must be {sign} definite for Im z > 0 "
            f"(offending eigenvalue {lo:.3e})")


def _certify(kernel: GreensKernel, n_probe: int = 4) -> None:
    lo, hi = kernel.window
    candidates = [kernel.k0 + d for d in (-2, -1, 1, 2, 3)]
    probes = [p for p in candidates
              if p in kernel.source_sites() and lo < p < hi][:n_probe]
    if not probes:
        probes = [p for p in kernel.source_sites() if lo < p < hi][:1]
    if not probes:
        kernel.diagnostics["delta_defect"] = np.nan
        return
    worst = max(delta_residual(kernel, ell) for ell in probes)
    kernel.diagnostics["delta_defect"] = worst
    if worst > 1e-6:
        alt = max(_delta_residual_with_diag(
            kernel, ell, kernel._diag(range(ell, ell + 1), alternative=True)[0])
            for ell in probes)
        kernel.diagnostics["delta_defect_alternative_diag"] = alt
        warnings.warn(
            f"delta-residual certificate failed (printed diagonal: {worst:.2e}, "
            f"alternative mixing: {alt:.2e}); kernel kept as printed",
            RuntimeWarning, stacklevel=3)


def _operator_residual(sys: HamiltonianSystem, z: complex, y: np.ndarray,
                       k_lo: int):
    """((S_rho - zA - B) y)(k) at the inner sites of an (n, 2m, r) stack
    ``y`` of site values from k_lo, with the pencils of those sites."""
    m = sys.m
    idx = sys._indices(range(k_lo, k_lo + len(y) - 1))
    p = z * sys._A[idx[1:]] + sys._B[idx[1:]]
    py = p @ y[1:-1]
    rho = sys._rho[idx]
    return np.concatenate((rho[1:] @ y[2:, m:] - py[:, :m],
                           rho[:-1] @ y[:-2, :m] - py[:, m:]), axis=1), p


def _delta_residual_with_diag(kernel: GreensKernel, ell: int,
                              diag_block: np.ndarray) -> float:
    lo, hi = kernel.window
    column = _unit_column(kernel, ell, False, diag_block)[:-1]
    res, _ = _operator_residual(kernel.sys, kernel.z_pos, column, lo)
    if lo < ell < hi:
        res[ell - lo - 1] -= np.eye(2 * kernel.m)
    return max([0.0] + la.opnorm(res).tolist())


def delta_residual(kernel: GreensKernel, ell: int) -> float:
    """Max norm over interior sites of (S_rho - zA - B) K(., ell) - delta I."""
    return _delta_residual_with_diag(kernel, ell, kernel._at_pos(ell, ell))


def _build(sys, z, k0, alpha, window, variant, M_plus, M_minus, certify=True):
    z = complex(z)
    if z.imag == 0:
        raise InputError("Green's kernels require Im z != 0")
    conjugated = z.imag < 0
    z_pos = np.conj(z) if conjugated else z
    mp = None if M_plus is None else la.as_complex_matrix(M_plus)
    mm = None if M_minus is None else la.as_complex_matrix(M_minus)
    if conjugated:
        mp = None if mp is None else mp.conj().T
        mm = None if mm is None else mm.conj().T

    lo, hi = int(window[0]), int(window[1])
    if not lo <= k0 <= hi:
        raise InputError("window must contain k0")
    m = sys.m

    if variant == "whole":
        if mp is None or mm is None:
            raise InputError("whole-line kernel needs both M_plus and M_minus")
        _herglotz_sign_check(mp, True, "M_plus")
        _herglotz_sign_check(mm, False, "M_minus")
        diff = mm - mp
        if la.rcond(diff) < 1e-13:
            raise KernelConstructionError("M_minus - M_plus is singular")
        omega = np.linalg.inv(diff)
    elif variant == "half_plus":
        if mp is None:
            raise InputError("half_plus kernel needs M_plus")
        _herglotz_sign_check(mp, True, "M_plus")
        omega = np.eye(m, dtype=complex)
    elif variant == "half_minus":
        if mm is None:
            raise InputError("half_minus kernel needs M_minus")
        _herglotz_sign_check(mm, False, "M_minus")
        omega = -np.eye(m, dtype=complex)
    else:
        raise InputError(f"unknown variant {variant!r}")

    # cache one site above the window: hats at the top edge (and the hat of
    # the base-site boundary value for the left half line) read psi2 there
    fund_z = fundamental(sys, z_pos, k0, alpha, (lo, hi + 1))
    fund_zb = fundamental(sys, np.conj(z_pos), k0, alpha, (lo, hi + 1))

    def weyl_roles(M):
        return weyl_solution(fund_z, M), weyl_solution(fund_zb, M.conj().T)

    def phi_roles():
        # the base-boundary roles are the fundamental's own Phi columns
        return fund_z._columns(slice(m, None)), fund_zb._columns(slice(m, None))

    if variant == "whole":
        (up_z, up_zb), (um_z, um_zb) = weyl_roles(mp), weyl_roles(mm)
        target = mm - mp
    elif variant == "half_plus":
        (up_z, up_zb), (um_z, um_zb) = weyl_roles(mp), phi_roles()
        target = np.eye(m, dtype=complex)
    else:
        (up_z, up_zb), (um_z, um_zb) = phi_roles(), weyl_roles(mm)
        target = -np.eye(m, dtype=complex)

    kernel = GreensKernel(variant=variant, z=z, k0=k0, alpha=alpha,
                          window=(lo, hi), sys=sys, omega=omega,
                          M_plus=None if mp is None else
                          (mp.conj().T if conjugated else mp),
                          M_minus=None if mm is None else
                          (mm.conj().T if conjugated else mm),
                          _up_z=up_z, _up_zb=up_zb, _um_z=um_z, _um_zb=um_zb,
                          _fund_z=fund_z, _fund_zb=fund_zb,
                          conjugated=conjugated)
    # the pairing is exactly constant in k; far-site drift measures float
    # cancellation in the decaying family, not a formula error
    defects = _pairing_defects(um_zb, up_z, range(lo, hi), target)
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

    Requires Im M_plus > 0 and Im M_minus < 0 for Im z > 0 and an invertible
    difference; the kernel identity holds for any admissible pair since only
    the solution property and the coupling inverse enter.
    """
    return _build(sys, z, k0, alpha, window, "whole", M_plus, M_minus, certify)


def build_half_kernel_plus(sys: HamiltonianSystem, z: complex, k0: int, alpha,
                           M_plus, window, certify: bool = True) -> GreensKernel:
    """Right half-line kernel on [k0, hi]; the base-boundary role is played
    by the fundamental's right column block and the coupling is +I."""
    if int(window[0]) != k0:
        raise InputError("half_plus window must start at k0")
    return _build(sys, z, k0, alpha, window, "half_plus", M_plus, None, certify)


def build_half_kernel_minus(sys: HamiltonianSystem, z: complex, k0: int, alpha,
                            M_minus, window, certify: bool = True) -> GreensKernel:
    """Left half-line kernel on [lo, k0]; mirror of the plus variant with an
    overall sign and coupling -I."""
    if int(window[1]) != k0:
        raise InputError("half_minus window must end at k0")
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
    if kernel.conjugated:
        return alternative_representation_conj(kernel, k, ell)
    om = kernel.omega
    a, b = (kernel.M_plus, kernel.M_minus) if k > ell \
        else (kernel.M_minus, kernel.M_plus)
    t = np.block([[om, om @ b], [a @ om, a @ om @ b]])
    psi_z = kernel._fund_z.plain(k)
    psi_zb = kernel._fund_zb.plain(ell)
    return psi_z @ t @ psi_zb.conj().T


def alternative_representation_conj(kernel: GreensKernel, k: int, ell: int):
    inner = replace(kernel, conjugated=False, z=kernel.z_pos,
                    M_plus=kernel.M_plus.conj().T,
                    M_minus=kernel.M_minus.conj().T)
    return alternative_representation(inner, ell, k).conj().T


# ---------------------------------------------------------------------------
# nonhomogeneous solve
# ---------------------------------------------------------------------------

@dataclass
class NonhomogeneousSolve:
    """Superposition solution y(k) = sum_ell K(k, ell) A(ell) f(ell) with
    residual, square-summability, and boundary diagnostics."""

    kernel: GreensKernel
    f: dict
    y: dict
    residual_by_site: dict[int, float]
    residual_max: float
    l2a_lhs: float
    l2a_rhs: float
    l2a_bound: float          # (Im z)^{-2} * rhs
    kernel_square_trace: dict[int, float]

    def y_hat(self, k: int) -> np.ndarray:
        return _hat_from_plain(self.y, k, self.kernel.m)

    @property
    def l2a_ok(self) -> bool:
        return self.l2a_lhs <= self.l2a_bound + 1e-6 * (1.0 + self.l2a_rhs)


def _hat_from_plain(y, k: int, m: int) -> np.ndarray:
    """Hat (y1(k); y2(k+1)) of a family of plain (2m, r) or (2m,) values."""
    return np.vstack([np.asarray(y[k], dtype=complex)[:m].reshape(m, -1),
                      np.asarray(y[k + 1], dtype=complex)[m:].reshape(m, -1)])


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
               conjugated: bool) -> np.ndarray:
    """Off-diagonal part of y(k) = sum_ell K(k, ell) g(ell) at the sites
    lo .. hi+1 of ``g`` (sources in ``span``): U+(k) Omega S-(k) + U-(k)
    Omega S+(k), with S- the prefix sum of U-'(ell)* g(ell) over ell < k and
    S+ the suffix sum of U+'(ell)* g(ell) over ell > k (' marks conj z). The
    ``conjugated`` frame, K(z, k, ell) = K(conj z, ell, k)*, swaps the z and
    conj(z) families and takes Omega*."""
    lo, hi = kernel.window
    # reversing the order swaps the z and conj(z) families
    up, umb, um, upb = (kernel._up_z, kernel._um_zb, kernel._um_z,
                        kernel._up_zb)[::-1 if conjugated else 1]
    om = kernel.omega.conj().T if conjugated else kernel.omega
    y = np.zeros_like(g)
    if not span:
        return y
    a, b = span.start - lo, span.stop - lo
    t = np.zeros((len(g), kernel.m, g.shape[2]), dtype=complex)
    t[a:b] = la.adjoint(umb.plains(span)) @ g[a:b]
    y[a + 1:] += (up.plains(range(span.start + 1, hi + 2)) @ om
                  @ np.cumsum(t, axis=0)[a:-1])
    t[:] = 0.0
    above = range(max(span.start, lo + 1), span.stop)
    t[above.start - lo:b] = la.adjoint(upb.plains(above)) @ g[above.start - lo:b]
    y[:b - 1] += (um.plains(range(lo, span[-1])) @ om
                  @ np.cumsum(t[::-1], axis=0)[::-1][1:b])
    return y


def _unit_column(kernel: GreensKernel, ell: int, conjugated: bool,
                 diag_block) -> np.ndarray:
    """Column K(., ell) over lo .. hi+1 in the frame of :func:`_superpose`,
    bit for bit the site-by-site blocks (a product with I is exact)."""
    lo, hi = kernel.window
    g = np.zeros((hi + 2 - lo, 2 * kernel.m, 2 * kernel.m), dtype=complex)
    g[ell - lo] = np.eye(2 * kernel.m)
    column = _superpose(kernel, g, range(ell, ell + 1), conjugated)
    column[ell - lo] = diag_block
    return column


def solve_nonhomogeneous(kernel: GreensKernel, f) -> NonhomogeneousSolve:
    """Evaluate the kernel superposition in O(n) and certify it.

    Checks the pointwise residual of the nonhomogeneous system at interior
    sites, the square-summability inequality
    sum y* A y <= (Im z)^{-2} sum f* A f (up to truncation slack), and
    reports the per-site kernel square sums for tail-decay diagnostics.
    """
    sys = kernel.sys
    lo, hi = kernel.window
    z = kernel.z
    fd = _coerce_source(kernel, f)
    r = next(iter(fd.values())).shape[1] if fd else 1
    # one extra site so hats exist at the top edge
    a = sys._A[sys._indices(range(lo, hi + 2))]
    f_all = np.zeros((hi + 2 - lo, 2 * kernel.m, r), dtype=complex)
    for k, v in fd.items():
        f_all[k - lo] = v
    g = a @ f_all
    src = kernel.source_sites()
    rows = slice(src.start - lo, src.stop - lo)
    y = _superpose(kernel, g, src, kernel.conjugated)
    diag = kernel._diag(src)
    y[rows] += (la.adjoint(diag) if kernel.conjugated else diag) @ g[rows]

    res, pencils = _operator_residual(sys, z, y[:-1], lo)
    af = g[1:-2]
    scale = 1.0 + la.opnorm(y[1:-2]) * la.opnorm(pencils) + la.opnorm(af)
    residual_by_site = dict(zip(range(lo + 1, hi),
                                (la.opnorm(res - af) / scale).tolist()))

    rhs = float(np.vdot(f_all, g).real)
    lhs = float(np.vdot(y[rows], a[rows] @ y[rows]).real)
    ksq = {}
    for k in (lo, (lo + hi) // 2, hi):
        # the row K(k, .) is the adjoint of the other frame's column at k
        col = _unit_column(kernel, k, not kernel.conjugated,
                           kernel.at(k, k).conj().T if k in src else 0.0)
        ksq[k] = float(np.vdot(col[rows], a[rows] @ col[rows]).real)

    return NonhomogeneousSolve(
        kernel=kernel, f=fd, y=dict(zip(range(lo, hi + 2), y)),
        residual_by_site=residual_by_site,
        residual_max=max(residual_by_site.values()) if residual_by_site else 0.0,
        l2a_lhs=lhs, l2a_rhs=rhs,
        l2a_bound=rhs / (z.imag ** 2),
        kernel_square_trace=ksq)


def boundary_flux(kernel: GreensKernel, solve: NonhomogeneousSolve | dict,
                  k: int, side: str = "+") -> np.ndarray:
    """Flux pairing of the decaying family against a solution at site k.

    Returns Uhat_side(conj z, k)* J_rho(k) yhat(k); it must tend to zero at
    the corresponding singular endpoint, and vanishes identically when y is
    the decaying family itself.
    """
    if side not in ("+", "-"):
        raise InputError("side must be '+' or '-'")
    if kernel.variant == "half_plus" and side == "-":
        raise InputError("half_plus kernels have no minus-side flux")
    if kernel.variant == "half_minus" and side == "+":
        raise InputError("half_minus kernels have no plus-side flux")
    uhat = kernel.u_hat_conj(side, k)
    y = solve.y if isinstance(solve, NonhomogeneousSolve) else solve
    return uhat.conj().T @ kernel.sys.j_rho(k) @ _hat_from_plain(y, k, kernel.m)


def flux_trend(kernel: GreensKernel, solve: NonhomogeneousSolve,
               side: str = "+") -> dict:
    """Magnitude of the endpoint flux over the outer third of the window.

    Returns the sampled sites, norms, the last/first ratio, and the fraction
    of successive decreases; a decaying trend is the finite-window surrogate
    of the boundary condition at the singular endpoint.
    """
    lo, hi = kernel.window
    if side == "+":
        sites = range(hi - max(2, (hi - lo) // 3), hi)
    else:
        sites = range(lo, lo + max(2, (hi - lo) // 3))
    norms = [la.opnorm(boundary_flux(kernel, solve, k, side)) for k in sites]
    drops = sum(1 for a, b in zip(norms, norms[1:])
                if (b < a if side == "+" else b > a))
    ratio = (norms[-1] / norms[0]) if norms[0] > 0 else 0.0
    if side == "-":
        ratio = (norms[0] / norms[-1]) if norms[-1] > 0 else 0.0
    return {"sites": list(sites), "norms": norms, "ratio": ratio,
            "monotone_fraction": drops / max(1, len(norms) - 1)}


def diagonal_riccati_blocks(kernel: GreensKernel, sites=None) -> dict:
    """Diagonal kernel blocks through the Riccati variables of both families.

    For each requested site computes V_side = rho u_{side,2}+ u_{side,1}^{-1},
    assembles the four diagonal entries from (V_plus - V_minus)^{-1}, and
    cross-checks against the directly evaluated diagonal block. Sites with a
    singular leading block are reported as errors.
    """
    if kernel.conjugated:
        raise InputError("diagonal Riccati blocks are computed on Im z > 0 kernels")
    sys = kernel.sys
    m = kernel.m
    lo, hi = kernel.window
    sites = range(lo, hi) if sites is None else sites
    out = {"blocks": {}, "defect": {}, "errors": {}, "V_plus": {}, "V_minus": {}}
    for k in sites:
        up = kernel._up_z.plain
        um = kernel._um_z.plain
        phi_p, th_p = up(k)[:m], up(k)[m:]
        phi_m, th_m = um(k)[:m], um(k)[m:]
        if min(la.rcond(phi_p), la.rcond(phi_m)) < 1e-13:
            out["errors"][k] = "leading block singular"
            continue
        v_p = sys.rho(k) @ la.rsolve(up(k + 1)[m:], phi_p)
        v_m = sys.rho(k) @ la.rsolve(um(k + 1)[m:], phi_m)
        diff = v_p - v_m
        if la.rcond(diff) < 1e-13:
            out["errors"][k] = "V_plus - V_minus singular"
            continue
        core = np.linalg.inv(diff)
        phi_p_c = kernel._up_zb.plain(k)[:m]
        th_p_c = kernel._up_zb.plain(k)[m:]
        phi_m_c = kernel._um_zb.plain(k)[:m]
        th_m_c = kernel._um_zb.plain(k)[m:]
        left = la.rsolve(th_m, phi_m) @ core
        blk = np.block([
            [core, core @ np.linalg.solve(phi_m_c.conj().T, th_m_c.conj().T)],
            [left, left @ np.linalg.solve(phi_p_c.conj().T, th_p_c.conj().T)]])
        out["blocks"][k] = blk
        out["defect"][k] = la.opnorm(blk - kernel._at_pos(k, k))
        out["V_plus"][k] = v_p
        out["V_minus"][k] = v_m
    return out
