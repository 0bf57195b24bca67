"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` (or execute this file
directly) to see the per-criterion lines. Every tolerance is pinned here;
nothing is deferred to later calibration.
"""

import time

import numpy as np
import pytest

from hamweyl import _linalg as la
from hamweyl import green as hg
from hamweyl import propagate as hp
from hamweyl import system as hsys
from hamweyl import testkit as htk
from hamweyl import weyl as hwl

from conftest import make_free_jacobi

CLASSES = ("jacobi", "dirac", "general_A12zero")
RESULTS = []


def report(num, name, ok, detail):
    line = f"ACCEPTANCE {num:>3} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    RESULTS.append(line)
    assert ok, line


def battery(n, window, ms=(1, 2, 3), seed0=500):
    out = []
    for i in range(n):
        m = ms[i % len(ms)]
        cls = CLASSES[i % len(CLASSES)]
        out.append((htk.random_system(m, window, seed=seed0 + i, cls=cls), m))
    return out


def interior_family(m, n, sigma, seed=900):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        c = complex(rng.normal(), -sigma * rng.uniform(0.3, 1.5))
        h = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        h = 0.25 * (h + h.conj().T) / 2
        out.append(hsys.make_boundary_data(np.hstack([np.eye(m),
                                                      c * np.eye(m) + h])))
    return out


# ---------------------------------------------------------------------------

def test_c01_lagrange_identity():
    """Telescoped bilinear form vs the weighted quadratic pairing, 500 steps."""
    z_pairs = [(1j, 1j), (0.3 + 0.7j, -0.2 + 0.4j), (1.5 + 0.05j, 1.5 - 0.05j),
               (-2.0 + 0.5j, 0.1 + 0.9j), (0.8 + 0.3j, 0.8 - 0.3j)]
    worst = 0.0
    for sysr, m in battery(20, (0, 501), seed0=500):
        for z1, z2 in z_pairs:
            worst = max(worst, hp.lagrange_telescoping_check(
                sysr, z1, z2, 0, 500))
    report(1, "lagrange-identity", worst <= 1e-10,
           f"max rel defect {worst:.2e} <= 1e-10 over 20 systems x 5 z-pairs")


def _disk_battery():
    """Shared battery for criteria 2, 3: contexts plus reusable fundamentals."""
    out = []
    for i, (sysr, m) in enumerate(battery(10, (0, 16), seed0=650)):
        z = (0.4 + 0.8j, 0.4 - 0.8j, -1.1 + 0.6j, 1.2 - 0.5j)[i % 4]
        k0 = 2 if i % 2 == 0 else 12
        ell = k0 + 8 if i % 2 == 0 else k0 - 8
        al = hsys.dirichlet(m)
        ctx = hwl.disk_context(sysr, z, k0, ell, al)
        lo, hi = min(k0, ell), max(k0, ell)
        fund = hp.fundamental(sysr, z, k0, al, (lo, hi))
        out.append((sysr, m, ctx, fund))
    return out


def test_c02_circle_and_interior():
    worst_circle = 0.0
    worst_interior = -np.inf
    for sysr, m, ctx, fund in _disk_battery():
        for bd in hwl.boundary_family(m, 8):
            mf = hwl.m_regular(sysr, ctx, bd, fund=fund)
            e_val = hwl.e_functional(sysr, ctx, mf.M, fund=fund)
            worst_circle = max(worst_circle, la.opnorm(e_val))
        for bd in interior_family(m, 8, ctx.sigma):
            mf = hwl.m_regular(sysr, ctx, bd, fund=fund)
            e_val = hwl.e_functional(sysr, ctx, mf.M, fund=fund)
            scale = 1.0 + la.opnorm(e_val)
            worst_interior = max(worst_interior,
                                 la.max_eig_herm(e_val) / scale)
    ok = worst_circle <= 1e-9 and worst_interior < -1e-12
    report(2, "weyl-circle-interior", ok,
           f"circle |E| {worst_circle:.2e} <= 1e-9; "
           f"interior max-eig/scale {worst_interior:.2e} < -1e-12")


def test_c03_energy_identity():
    worst = 0.0
    for sysr, m, ctx, fund in _disk_battery():
        betas = hwl.boundary_family(m, 4) + interior_family(m, 4, ctx.sigma)
        for bd in betas:
            mf = hwl.m_regular(sysr, ctx, bd, fund=fund)
            e_val = hwl.e_functional(sysr, ctx, mf.M, fund=fund)
            u = hp.weyl_solution(fund, mf.M)
            s = hwl.a_form_sum(sysr, u, hwl.plus_interval(ctx.k0, ctx.ell))
            lhs = 2 * ctx.sigma * la.imag_part(mf.M) + e_val
            rhs = 2 * abs(ctx.z.imag) * s
            worst = max(worst, la.opnorm(lhs - rhs) / (1.0 + la.opnorm(rhs)))
    report(3, "energy-identity", worst <= 1e-10,
           f"max rel defect {worst:.2e} <= 1e-10 on the disk battery")


def test_c04_herglotz_grid():
    res = np.linspace(-1.0, 5.0, 10)
    ims = np.linspace(0.1, 1.0, 10)
    grid = [complex(r, i) for r in res for i in ims]
    worst_conj = 0.0
    min_im = np.inf
    for sysr, m, ell in ((make_free_jacobi((0, 16)), 1, 11),
                         (htk.random_system(2, (0, 14), seed=777,
                                            cls="general_A12zero"), 2, 10)):
        rep = hwl.herglotz_check(sysr, grid, 0, hsys.dirichlet(m), ell=ell,
                                 tol=1e-10)
        assert rep.passed, rep.violations[:3]
        worst_conj = max(worst_conj, max(r["conj_defect"] for r in rep.rows))
        min_im = min(min_im, min(r["im_min_eig"] for r in rep.rows))
    report(4, "herglotz-structure", worst_conj <= 1e-10 and min_im > 0,
           f"conj defect {worst_conj:.2e} <= 1e-10, min Im-eig {min_im:.2e} > 0 "
           "on a 10x10 upper-half grid")


def test_c05_nesting():
    worst = -np.inf
    for sysr, m in battery(4, (0, 24), seed0=710):
        z = 0.5 + 0.9j
        al = hsys.dirichlet(m)
        fund = hp.fundamental(sysr, z, 0, al, (0, 20))
        pairs = [(4, 8), (4, 16), (8, 12), (6, 18), (10, 20)]
        for ell1, ell2 in pairs:
            ctx2 = hwl.disk_context(sysr, z, 0, ell2, al)
            ctx1 = hwl.disk_context(sysr, z, 0, ell1, al)
            for bd in hwl.boundary_family(m, 4):
                m2 = hwl.m_regular(sysr, ctx2, bd, fund=fund).M
                e1 = hwl.e_functional(sysr, ctx1, m2, fund=fund)
                scale = 1.0 + la.opnorm(e1)
                worst = max(worst, la.max_eig_herm(e1) / scale)
    report(5, "disk-nesting", worst <= 1e-9,
           f"max eig of inner-disk functional {worst:.2e} <= 1e-9 "
           "over 4 systems x 5 interval pairs x 4 circle points")


def test_c06_lft():
    worst = 0.0
    count = 0
    for sysr, m in ((htk.random_system(1, (0, 12), seed=801, cls="jacobi"), 1),
                    (htk.random_system(2, (0, 12), seed=802,
                                       cls="general_A12zero"), 2)):
        z = 0.7 + 0.8j
        be = hwl.boundary_family(m, 7)[5]
        fam = hwl.boundary_family(m, 10)
        for i in range(0, 10, 2):
            alpha, gamma = fam[i], fam[i + 1]
            m_g = hwl.m_regular(sysr, hwl.disk_context(sysr, z, 0, 9, gamma),
                                be).M
            m_a = hwl.m_regular(sysr, hwl.disk_context(sysr, z, 0, 9, alpha),
                                be).M
            via = hwl.lft_alpha_change(m_g, alpha, gamma)
            worst = max(worst, la.opnorm(via - m_a) / (1.0 + la.opnorm(m_a)))
            count += 1
        # inversion identity between the two coordinate presets
        m_d = hwl.m_regular(sysr, hwl.disk_context(sysr, z, 0, 9,
                                                   hsys.dirichlet(m)), be).M
        m_n = hwl.m_regular(sysr, hwl.disk_context(sysr, z, 0, 9,
                                                   hsys.neumann(m)), be).M
        worst = max(worst, la.opnorm(m_d + np.linalg.inv(m_n))
                    / (1.0 + la.opnorm(m_d)))
    report(6, "lft-boundary-change", worst <= 1e-9,
           f"max defect {worst:.2e} <= 1e-9 over {count} random pairs "
           "plus the inversion identity")


def test_c07_limit_point_oracle():
    sysj = make_free_jacobi((-10, 210))
    al = hsys.dirichlet(1)
    v_root = htk.constant_riccati_fixed_point(sysj, 1j, +1)
    lim = hwl.limit_m(sysj, 1j, 0, al, +1,
                      hwl.LimitOptions(ell_schedule=[25, 50, 100, 200]))
    ctx200 = hwl.disk_context(sysj, 1j, 0, 200, al)
    diam = hwl.disk_diameter_estimate(sysj, ctx200)
    gap = la.opnorm(lim.M_pm + v_root)
    ok = gap <= 1e-8 and diam <= 1e-6 and lim.classification == "limit_point"
    report(7, "limit-point-riccati", ok,
           f"|M+ + V| {gap:.2e} <= 1e-8, diameter(200) {diam:.2e} <= 1e-6, "
           f"classification {lim.classification}")


def test_c08_eigenvalue_duality():
    worst = 0.0
    checked = 0
    # free case against the closed form
    n = 10
    sysf = make_free_jacobi((0, n + 1))
    al = be = hsys.dirichlet(1)
    found = htk.eig_via_detPhi(sysf, 0, n + 1, al, be, (-0.5, 4.5), grid_n=1401)
    closed = np.sort(2 - 2 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1)))
    ok_free = len(found) == n and np.max(np.abs(found - closed)) <= 1e-8
    for m, seed in ((1, 811), (2, 812)):
        for length in (5, 10, 20):
            sysr = htk.random_system(m, (0, length + 1), seed=seed + length,
                                     cls="jacobi")
            alm = bem = hsys.dirichlet(m)
            oracle = htk.jacobi_bvp_oracle(
                htk.RegularBVP(sysr, 0, length + 1, alm, bem))
            lo, hi = float(oracle[0]) - 0.4, float(oracle[-1]) + 0.4
            grid_n = 1401 if length <= 10 else 2401
            found_r = htk.eig_via_detPhi(sysr, 0, length + 1, alm, bem,
                                         (lo, hi), grid_n=grid_n)
            for lam in oracle:
                worst = max(worst, float(np.min(np.abs(found_r - lam))))
            for f in found_r:
                worst = max(worst, float(np.min(np.abs(oracle - f))))
            checked += len(oracle)
    ok = ok_free and worst <= 1e-8
    report(8, "eigenvalue-duality", ok,
           f"scan-vs-dense deviation {worst:.2e} <= 1e-8 over {checked} "
           "eigenvalues; free-case closed form matched")


def _kernel_battery():
    """Five systems with admissible M data, windows sized for 1e-9 floats."""
    out = []
    sysf = make_free_jacobi((-40, 40))
    mp = -htk.constant_riccati_fixed_point(sysf, 1j, +1)
    mm = -htk.constant_riccati_fixed_point(sysf, 1j, -1)
    out.append((sysf, 1, 1j, mp, mm))
    for m, seed, cls, z in ((1, 821, "jacobi", 0.4 + 0.7j),
                            (2, 822, "jacobi", -0.3 + 0.8j),
                            (2, 823, "dirac", 0.2 + 0.9j),
                            (1, 824, "general_A12zero", 0.6 + 0.6j)):
        sysr = htk.random_system(m, (-16, 16), seed=seed, cls=cls)
        al = hsys.dirichlet(m)
        bd = hwl.boundary_family(m, 3)[1]
        mp = hwl.m_regular(sysr, hwl.disk_context(sysr, z, 0, 10, al), bd).M
        mm = hwl.m_regular(sysr, hwl.disk_context(sysr, z, 0, -10, al), bd).M
        out.append((sysr, m, z, mp, mm))
    return out


def test_c09_green_delta_identity():
    worst = 0.0
    worst_alt = 0.0
    for sysr, m, z, mp, mm in _kernel_battery():
        al = hsys.dirichlet(m)
        whole = hg.build_whole_kernel(sysr, z, 0, al, mp, mm, (-6, 6))
        plus = hg.build_half_kernel_plus(sysr, z, 0, al, mp, (0, 7))
        minus = hg.build_half_kernel_minus(sysr, z, 0, al, mm, (-7, 0))
        for ker in (whole, plus, minus):
            lo, hi = ker.window
            for ell in ker.source_sites():
                if lo < ell < hi:
                    worst = max(worst, hg.delta_residual(ker, ell))
        for k, ell in ((3, -2), (-4, 1), (5, 0), (0, -5), (2, 6)):
            alt = hg.alternative_representation(whole, k, ell)
            worst_alt = max(worst_alt, la.opnorm(alt - whole.at(k, ell)))
    ok = worst <= 1e-9 and worst_alt <= 1e-9
    report(9, "green-delta-identity", ok,
           f"delta residual {worst:.2e} <= 1e-9 on 5 systems x 3 variants; "
           f"alternative representation defect {worst_alt:.2e} <= 1e-9")


def test_c10_nonhomogeneous_solve():
    worst_res = 0.0
    worst_bc = 0.0
    rng = np.random.default_rng(77)
    for sysr, m, z, mp, mm in _kernel_battery():
        al = hsys.dirichlet(m)
        at0 = hsys.weighted_boundary(al, sysr, 0)
        plus = hg.build_half_kernel_plus(sysr, z, 0, al, mp, (0, 8))
        minus = hg.build_half_kernel_minus(sysr, z, 0, al, mm, (-8, 0))
        for ker in (plus, minus):
            f = {k: rng.normal(size=2 * m) + 1j * rng.normal(size=2 * m)
                 for k in ker.source_sites()}
            sol = hg.solve_nonhomogeneous(ker, f)
            worst_res = max(worst_res, sol.residual_max)
            worst_bc = max(worst_bc, float(np.linalg.norm(at0 @ sol.y_hat(0))))
    # square-summability bound: free chain, random source on 101 sites
    sysf = make_free_jacobi((-60, 60))
    z = 0.05j
    mpf = -htk.constant_riccati_fixed_point(sysf, z, +1)
    mmf = -htk.constant_riccati_fixed_point(sysf, z, -1)
    ker = hg.build_whole_kernel(sysf, z, 0, hsys.dirichlet(1), mpf, mmf,
                                (-50, 50))
    f = {k: rng.normal(size=2) for k in range(-50, 51)}
    sol = hg.solve_nonhomogeneous(ker, f)
    worst_res = max(worst_res, sol.residual_max)
    l2_ok = sol.l2a_lhs <= sol.l2a_bound + 1e-6 * (1.0 + sol.l2a_rhs)
    ok = worst_res <= 1e-9 and worst_bc <= 1e-10 and l2_ok
    report(10, "nonhomogeneous-solve", ok,
           f"residual {worst_res:.2e} <= 1e-9, base boundary {worst_bc:.2e} "
           f"<= 1e-10, l2A {sol.l2a_lhs:.4f} <= {sol.l2a_bound:.4f} + slack")


def free_half_line_m_plus():
    def ev(zz):
        zz = np.asarray(zz, dtype=complex)
        disc = np.sqrt(zz * zz - 4 * zz)
        r1 = (zz + disc) / 2
        r2 = (zz - disc) / 2
        v = np.where(r1.imag < 0, r1, r2)
        return (-v)[..., None, None]

    return ev


def test_c11_spectral_measure():
    # regular problem with interior length 10
    sysj = make_free_jacobi((0, 11))
    al = be = hsys.dirichlet(1)
    oracle = htk.jacobi_bvp_oracle(htk.RegularBVP(sysj, 0, 11, al, be))
    m_eval = hwl.regular_m_evaluator(sysj, 0, 11, al, be)
    import warnings as _warnings
    with _warnings.catch_warnings():
        # raw pole-bin increments differ between epsilon passes by their
        # O(eps) Lorentzian tails; the extrapolated increments used below
        # are the converging quantity, so the schedule flag is expected here
        _warnings.simplefilter("ignore", RuntimeWarning)
        sm = hwl.spectral_measure(m_eval, (-0.5, 4.5), 250, [2e-6, 1e-6],
                                  quad_rel=1e-4)
    coarse_pos, _ = hwl.locate_jumps(sm)
    located = []
    for pos in coarse_pos:
        sm2 = hwl.spectral_measure(m_eval, (pos - 0.03, pos + 0.03), 300,
                                   [1e-6], quad_rel=1e-4)
        t2 = sm2.trace_increments()
        centers = 0.5 * (sm2.grid[:-1] + sm2.grid[1:])
        mass = float(np.sum(t2))
        located.append(float(np.sum(centers * t2) / mass))
    located = np.array(sorted(located))
    loc_err = (np.max(np.abs(located - oracle))
               if len(located) == len(oracle) else np.inf)
    tr = sm.trace_increments(richardson=True)
    away = np.ones(len(tr), bool)
    for lam in oracle:
        away &= (sm.grid[1:] < lam - 0.02) | (sm.grid[:-1] > lam + 0.02)
    away_mass = float(np.sum(np.abs(tr[away])))
    # free half-line: mass confined to the band
    smh = hwl.spectral_measure(free_half_line_m_plus(), (-1.0, 5.0), 60,
                               [1e-4, 1e-5, 1e-6])
    trh = smh.trace_increments(richardson=True)
    outside = (smh.grid[1:] <= -0.01) | (smh.grid[:-1] >= 4.01)
    out_mass = float(np.sum(np.abs(trh[outside])))
    ok = (len(located) == 10 and loc_err <= 1e-4 and away_mass <= 1e-6
          and out_mass <= 1e-6)
    report(11, "spectral-measure", ok,
           f"located 10/10 jumps to {loc_err:.2e} <= 1e-4; away mass "
           f"{away_mass:.2e} <= 1e-6; half-line out-of-band {out_mass:.2e} "
           "<= 1e-6")


def test_c12_riccati_equivalence():
    agree = True
    worst_res = 0.0
    for i, (sysr, m) in enumerate(battery(10, (0, 16), seed0=840)):
        z = (0.5 + 0.8j, 0.5 - 0.8j)[i % 2]
        al = hsys.dirichlet(m)
        k0, ell = 0, 10
        ctx = hwl.disk_context(sysr, z, k0, ell, al)
        fund = hp.fundamental(sysr, z, k0, al, (0, 12))
        # interior point: strictly inside the disk at ell
        bd_int = interior_family(m, 1, ctx.sigma, seed=950 + i)[0]
        m_int = hwl.m_regular(sysr, ctx, bd_int, fund=fund).M
        e_int = hwl.e_functional(sysr, ctx, m_int, fund=fund)
        u = hp.weyl_solution(fund, m_int)
        rep = hwl.riccati_from_solution(sysr, u)
        # membership and the per-site sign condition are both strict signs;
        # disk interior at ell corresponds to negative signs on (k0, ell]
        # (beyond ell the finite-disk functional grows and the sign flips)
        sign_ok = all(rep.sign_max[k] < 0 for k in range(k0 + 1, ell + 1)
                      if k in rep.sign_max)
        agree &= (la.max_eig_herm(e_int) < 0) == sign_ok
        agree &= sign_ok and not rep.errors
        # residual check on the float-trustworthy range: trajectory error is
        # amplified geometrically with the distance from the base site
        v_near = {k: v for k, v in rep.V.items() if k <= k0 + 6}
        res = hwl.riccati_residual(sysr, z, v_near)
        worst_res = max(worst_res, res.max_norm)
        # exterior point: wrong-half-plane imaginary part
        m_ext = m_int.conj().T
        e_ext = hwl.e_functional(sysr, ctx, m_ext, fund=fund)
        u_ext = hp.weyl_solution(fund, m_ext)
        rep_ext = hwl.riccati_from_solution(sysr, u_ext)
        sign_fails = any(v >= 0 for v in rep_ext.sign_max.values()) \
            or bool(rep_ext.errors)
        agree &= (la.max_eig_herm(e_ext) > 0) == sign_fails
        agree &= sign_fails
    ok = agree and worst_res <= 1e-10
    report(12, "riccati-equivalence", ok,
           f"membership/sign verdicts agree on 10 systems; Riccati residual "
           f"{worst_res:.2e} <= 1e-10")


def test_c13_transform_invariance():
    worst_unit = 0.0
    worst_nf = 0.0
    for i in range(5):
        m = (1, 2, 2, 3, 2)[i]
        sysr = htk.random_system(m, (0, 14), seed=870 + i,
                                 cls="general_A12zero", rho_mode="spd")
        z = 0.6 + 0.7j
        al = hsys.dirichlet(m)
        be = hwl.boundary_family(m, 3)[1]
        k0, ell = 1, 9
        base = hwl.m_regular(sysr, hwl.disk_context(sysr, z, k0, ell, al),
                             be).M
        # unit-weight transform
        uni, (a2, b2) = hsys.to_unit_rho(sysr, al, be)
        m_unit = hwl.m_regular(uni, hwl.disk_context(uni, z, k0, ell, a2),
                               b2).M
        worst_unit = max(worst_unit,
                         la.opnorm(m_unit - base) / (1.0 + la.opnorm(base)))
        # diagonalizing normal form with transported weighted data
        nf, rec = hsys.normal_form(sysr)
        at = hsys.weighted_boundary(al, sysr, k0)
        bt = hsys.weighted_boundary(be, sysr, ell)
        qk = np.kron(np.eye(2), rec.Q_at(k0)).astype(complex)
        ql = np.kron(np.eye(2), rec.Q_at(ell)).astype(complex)
        gamma = at @ np.linalg.inv(qk)
        delta = bt @ np.linalg.inv(ql)
        m_nf = hwl.m_regular(nf, hwl.disk_context(nf, z, k0, ell, gamma),
                             delta).M
        worst_nf = max(worst_nf,
                       la.opnorm(m_nf - base) / (1.0 + la.opnorm(base)))
    ok = worst_unit <= 1e-10 and worst_nf <= 1e-10
    report(13, "transform-invariance", ok,
           f"unit-weight defect {worst_unit:.2e}, normal-form defect "
           f"{worst_nf:.2e}, both <= 1e-10 on 5 systems")


if __name__ == "__main__":
    t0 = time.time()
    failures = 0
    for fn in sorted(k for k in list(globals()) if k.startswith("test_c")):
        try:
            globals()[fn]()
        except AssertionError as e:
            failures += 1
            print(str(e))
    print(f"\n{13 - failures}/13 criteria passed in {time.time() - t0:.1f}s")
    raise SystemExit(1 if failures else 0)
