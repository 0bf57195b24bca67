import numpy as np
import pytest

from hamweyl import _linalg as la
from hamweyl import green as hg
from hamweyl import propagate as hp
from hamweyl import system as hsys
from hamweyl import testkit as htk
from hamweyl import weyl as hwl
from hamweyl.errors import InputError, KernelConstructionError

from conftest import boundary_family, make_free_jacobi


@pytest.mark.parametrize("z", [complex(0.5, np.inf), complex(np.nan, 1.0)])
def test_kernel_at_non_finite_z_is_an_input_error(z):
    sysj = make_free_jacobi((-10, 10))
    with pytest.raises(InputError, match="finite z"):
        hg.build_whole_kernel(sysj, z, 0, hsys.dirichlet(1), np.array([[1j]]),
                              np.array([[-1j]]), (-5, 5))


@pytest.fixture(scope="module")
def free_kernels():
    """Whole and half kernels of the free chain with oracle half-line data."""
    sysj = make_free_jacobi((-40, 40))
    al = hsys.dirichlet(1)
    z = 1j
    mp = -htk.constant_riccati_fixed_point(sysj, z, +1)
    mm = -htk.constant_riccati_fixed_point(sysj, z, -1)
    # windows sized so float cancellation in the decaying family stays well
    # below the 1e-9 checks (growth ratio ~4.3 per step at z = i)
    whole = hg.build_whole_kernel(sysj, z, 0, al, mp, mm, (-10, 10))
    plus = hg.build_half_kernel_plus(sysj, z, 0, al, mp, (0, 12))
    minus = hg.build_half_kernel_minus(sysj, z, 0, al, mm, (-12, 0))
    return sysj, al, z, mp, mm, whole, plus, minus


def test_coupling_pairing_constancy(free_kernels):
    sysj, al, z, mp, mm, whole, plus, minus = free_kernels
    assert whole.diagnostics["coupling_defect"] < 1e-10
    assert plus.diagnostics["coupling_defect"] < 1e-10
    assert minus.diagnostics["coupling_defect"] < 1e-10
    # the pairing itself equals M_- - M_+ for the whole-line kernel
    fund_z = hp.fundamental(sysj, z, 0, al, (-10, 11))
    fund_zb = hp.fundamental(sysj, np.conj(z), 0, al, (-10, 11))
    for k in (-5, 0, 4):
        up = hp.weyl_solution(fund_z, mp)
        um_b = hp.weyl_solution(fund_zb, mm.conj().T)
        m_u = hp.lagrange_bilinear(sysj, k, um_b.hat(k), up.hat(k))
        assert la.opnorm(m_u - (mm - mp)) < 1e-10


def test_coupling_constancy_100_sites_small_imag():
    # at small Im z the exponential dichotomy is mild enough for the pairing
    # to hold at 1e-10 across 100 sites in doubles
    sysj = make_free_jacobi((-60, 60))
    z = 0.005j
    al = hsys.dirichlet(1)
    mp = -htk.constant_riccati_fixed_point(sysj, z, +1)
    mm = -htk.constant_riccati_fixed_point(sysj, z, -1)
    ker = hg.build_whole_kernel(sysj, z, 0, al, mp, mm, (-50, 50))
    assert ker.diagnostics["coupling_drift"] < 1e-10
    assert ker.diagnostics["coupling_identity_defect"] < 1e-12


def test_delta_residual_all_variants(free_kernels):
    sysj, al, z, mp, mm, whole, plus, minus = free_kernels
    for ker, ells in ((whole, (-6, -1, 2, 7)), (plus, (2, 5, 8)),
                      (minus, (-8, -4, -1))):
        for ell in ells:
            assert hg.delta_residual(ker, ell) < 1e-9


def test_half_plus_phi_pairing_identity(free_kernels):
    sysj, al, z, mp, mm, whole, plus, minus = free_kernels
    fund_z = hp.fundamental(sysj, z, 0, al, (0, 13))
    fund_zb = hp.fundamental(sysj, np.conj(z), 0, al, (0, 13))
    up = hp.weyl_solution(fund_z, mp)
    for k in range(0, 10):
        phi_hat_zb = fund_zb.hat(k)[:, 1:]
        g = phi_hat_zb.conj().T @ sysj.j_rho(k) @ up.hat(k)
        assert la.opnorm(g - np.eye(1)) < 1e-10


def test_alternative_representation(free_kernels):
    sysj, al, z, mp, mm, whole, plus, minus = free_kernels
    for k, ell in ((5, 2), (2, 5), (-3, 4), (0, -6), (8, -8)):
        alt = hg.alternative_representation(whole, k, ell)
        assert la.opnorm(alt - whole.at(k, ell)) < 1e-9


def test_kernel_conjugation_symmetry(free_kernels):
    # kernels at conj z are built at conj z, not mirrored, and still obey
    # K(conj z, k, ell) = K(z, ell, k)*, blockwise and through the solve
    sysj, al, z, mp, mm, whole, plus, minus = free_kernels
    zc, mpc, mmc = np.conj(z), mp.conj().T, mm.conj().T
    kerc = hg.build_whole_kernel(sysj, zc, 0, al, mpc, mmc, (-12, 12))
    for k, ell in ((3, 5), (5, 3), (4, 4), (-2, 6)):
        assert la.opnorm(kerc.at(k, ell) - whole.at(ell, k).conj().T) < 1e-12
    assert hg.delta_residual(kerc, 2) < 1e-9
    plusc = hg.build_half_kernel_plus(sysj, zc, 0, al, mpc, (0, 12))
    minusc = hg.build_half_kernel_minus(sysj, zc, 0, al, mmc, (-12, 0))
    for ker, kerz, pairs in ((plusc, plus, ((2, 7), (7, 2), (5, 5), (0, 9))),
                             (minusc, minus, ((-2, -7), (-7, -2), (-5, -5),
                                              (-9, 0)))):
        for k, ell in pairs:
            assert la.opnorm(ker.at(k, ell) - kerz.at(ell, k).conj().T) < 1e-12
    rng = np.random.default_rng(17)
    for ker, kerz in ((kerc, whole), (plusc, plus), (minusc, minus)):
        src = [k for k in ker.source_sites() if k in kerz.source_sites()]
        fd = {k: rng.normal(size=(2, 1)) + 1j * rng.normal(size=(2, 1))
              for k in src}
        sol = hg.solve_nonhomogeneous(ker, fd)
        lo, hi = kerz.window
        for k in range(lo + 1, hi):
            ref = sum(kerz.at(ell, k).conj().T @ sysj.A(ell) @ v
                      for ell, v in fd.items())
            assert np.max(np.abs(sol.y[k] - ref)) < 1e-12


def test_certificate_failure_raises():
    # const_m2 at 0.5+0.5i with exact M+-: the Theta + Phi M role families
    # cancel so badly at +-80 that the delta defect near k0 is ~7e-2, which
    # the certificate rejects; at +-40 it holds (~4e-9)
    p = np.array([[1.0, 0.25j], [-0.25j, 0.8]])
    q = np.array([[0.3, 0.1], [0.1, -0.2]])
    sys_ = hsys.jacobi_system(lambda k: p, lambda k: q, (-120, 120))
    z, al = 0.5 + 0.5j, hsys.dirichlet(2)
    mp = hwl.limit_m(sys_, z, 0, al, +1).M_pm
    mm = hwl.limit_m(sys_, z, 0, al, -1).M_pm
    with pytest.raises(KernelConstructionError, match="certificate"):
        hg.build_whole_kernel(sys_, z, 0, al, mp, mm, (-80, 80))
    ker = hg.build_whole_kernel(sys_, z, 0, al, mp, mm, (-40, 40))
    assert ker.diagnostics["delta_defect"] < 1e-6


@pytest.mark.parametrize("certify", [True, False])
def test_families_past_the_float_range_are_a_kernel_error(certify):
    # free chain at 0.5+0.5i with exact M+- on +-3000: the role families
    # overflow, and the build must say so before any SVD sees them
    sysj = make_free_jacobi((-40, 40))
    z, al = 0.5 + 0.5j, hsys.dirichlet(1)
    mp = hwl.limit_m(sysj, z, 0, al, +1).M_pm
    mm = hwl.limit_m(sysj, z, 0, al, -1).M_pm
    builds = (
        lambda: hg.build_whole_kernel(sysj, z, 0, al, mp, mm, (-3000, 3000), certify),
        lambda: hg.build_half_kernel_plus(sysj, z, 0, al, mp, (0, 3000), certify),
        lambda: hg.build_half_kernel_minus(sysj, z, 0, al, mm, (-3000, 0), certify),
    )
    for build in builds:
        with np.errstate(all="ignore"), \
                pytest.raises(KernelConstructionError, match="float range"):
            build()


def test_solve_gate_rejects_a_residual_the_kernel_certificate_misses():
    # free chain at 0.5+0.5i with exact M+- and the CLI's seed-0 source: the
    # kernel certifies on +-60 (defect ~9e-8 next to k0), but the solve's
    # relative residual far from k0 is O(1), so the solve raises; on +-40
    # it holds at rounding level
    sysj = make_free_jacobi((-100, 100))
    z, al = 0.5 + 0.5j, hsys.dirichlet(1)
    mp = hwl.limit_m(sysj, z, 0, al, +1).M_pm
    mm = hwl.limit_m(sysj, z, 0, al, -1).M_pm
    for w, ok in ((40, True), (60, False)):
        ker = hg.build_whole_kernel(sysj, z, 0, al, mp, mm, (-w, w))
        assert ker.diagnostics["delta_defect"] < 1e-6
        rng = np.random.default_rng(0)
        f = {k: rng.normal(size=2) + 1j * rng.normal(size=2)
             for k in ker.source_sites()}
        if ok:
            assert hg.solve_nonhomogeneous(ker, f).residual_max < 1e-12
        else:
            with pytest.raises(KernelConstructionError, match="solve certificate"):
                hg.solve_nonhomogeneous(ker, f)


def test_boundary_flux_rejects_sites_outside_the_window(free_kernels):
    # the hat at k reads y at k and k+1, so the flux is defined on lo .. hi
    sysj, al, z, mp, mm, whole, plus, minus = free_kernels
    for ker, side in ((plus, "+"), (minus, "-"), (whole, "+"), (whole, "-")):
        sol = hg.solve_nonhomogeneous(ker, {k: np.ones(2) for k in ker.source_sites()})
        lo, hi = ker.window
        assert la.all_finite(hg.boundary_flux(ker, sol, hi, side))
        for k in (lo - 1, hi + 1):
            with pytest.raises(InputError):
                hg.boundary_flux(ker, sol, k, side)


def test_kernel_rejects_sites_outside_its_window(free_kernels):
    # the role families cover the window and one site above it; beyond that
    # a kernel read raises instead of wrapping around
    sysj, al, z, mp, mm, whole, plus, minus = free_kernels
    kerc = hg.build_whole_kernel(sysj, np.conj(z), 0, al, mp.conj().T,
                                 mm.conj().T, (-10, 10))
    for ker in (whole, plus, minus, kerc):
        lo, hi = ker.window
        assert la.all_finite(ker.at(hi + 1, 0))
        for k in (lo - 1, hi + 2):
            with pytest.raises(InputError):
                ker.at(k, 0)


def test_kernel_sign_checks():
    sysj = make_free_jacobi((-20, 20))
    al = hsys.dirichlet(1)
    z = 1j
    mp = -htk.constant_riccati_fixed_point(sysj, z, +1)
    mm = -htk.constant_riccati_fixed_point(sysj, z, -1)
    with pytest.raises(KernelConstructionError):
        hg.build_whole_kernel(sysj, z, 0, al, mm, mp, (-8, 8))  # swapped signs
    with pytest.raises(KernelConstructionError):
        hg.build_half_kernel_plus(sysj, z, 0, al, mp.conj().T, (0, 8))


def test_solve_zero_source(free_kernels):
    sysj, al, z, mp, mm, whole, plus, minus = free_kernels
    f = {k: np.zeros(2) for k in whole.source_sites()}
    sol = hg.solve_nonhomogeneous(whole, f)
    assert all(np.allclose(v, 0) for v in sol.y.values())
    assert sol.residual_max == 0.0


def test_solve_impulse_residual_and_l2a(free_kernels):
    sysj, al, z, mp, mm, whole, plus, minus = free_kernels
    rng = np.random.default_rng(3)
    f = {k: rng.normal(size=2) + 1j * rng.normal(size=2)
         for k in range(-6, 7)}
    sol = hg.solve_nonhomogeneous(whole, f)
    assert sol.residual_max < 1e-9
    assert sol.l2a_lhs <= sol.l2a_bound + 1e-6 * (1 + sol.l2a_rhs)
    assert sol.l2a_ok
    # impulse case
    sol2 = hg.solve_nonhomogeneous(whole, {2: np.eye(2, dtype=complex)})
    assert sol2.residual_max < 1e-9


def test_solve_half_line_boundary_conditions(free_kernels):
    sysj, al, z, mp, mm, whole, plus, minus = free_kernels
    at = hsys.weighted_boundary(al, sysj, 0)
    rng = np.random.default_rng(4)
    f = {k: rng.normal(size=2) for k in range(1, 12)}
    sol = hg.solve_nonhomogeneous(plus, f)
    assert sol.residual_max < 1e-9
    assert np.linalg.norm(at @ sol.y_hat(0)) < 1e-10
    f2 = {k: rng.normal(size=2) for k in range(-12, 0)}
    sol2 = hg.solve_nonhomogeneous(minus, f2)
    assert sol2.residual_max < 1e-9
    assert np.linalg.norm(at @ sol2.y_hat(0)) < 1e-10


def test_boundary_flux_of_decaying_family_vanishes(free_kernels):
    sysj, al, z, mp, mm, whole, plus, minus = free_kernels
    fund = hp.fundamental(sysj, z, 0, al, (0, 14))
    u = hp.weyl_solution(fund, mp)
    ydict = {k: u.plain(k) for k in range(0, 15)}
    for k in (2, 6, 10):
        assert np.linalg.norm(hg.boundary_flux(plus, ydict, k, "+")) < 1e-10
    # a base-boundary column does not satisfy the far condition
    ydict_theta = {k: fund.plain(k)[:, :1] for k in range(0, 15)}
    vals = [np.linalg.norm(hg.boundary_flux(plus, ydict_theta, k, "+"))
            for k in (2, 6, 10)]
    assert min(vals) > 1e-3


def test_flux_trend_decreases(free_kernels):
    sysj, al, z, mp, mm, whole, plus, minus = free_kernels
    # beyond a compactly supported source the solution is exactly the
    # decaying family and the flux vanishes; sources covering the window
    # leave a nonzero, decaying flux in the outer third
    rng = np.random.default_rng(9)
    f = {k: rng.normal(size=2) for k in plus.source_sites()}
    sol = hg.solve_nonhomogeneous(plus, f)
    trend = hg.flux_trend(plus, sol, "+")
    assert trend["ratio"] < 0.5
    assert trend["monotone_fraction"] >= 0.8
    sol0 = hg.solve_nonhomogeneous(plus, {3: np.eye(2, dtype=complex)})
    for k in (8, 10):
        assert np.linalg.norm(hg.boundary_flux(plus, sol0, k, "+")) < 1e-12


def test_diagonal_riccati_blocks(free_kernels):
    sysj, al, z, mp, mm, whole, plus, minus = free_kernels
    out = hg.diagonal_riccati_blocks(whole, sites=range(-8, 9))
    assert not out["errors"]
    assert max(out["defect"].values()) < 1e-9
    # V_pm solve the one-step recursion
    resp = hwl.riccati_residual(sysj, z, out["V_plus"])
    resm = hwl.riccati_residual(sysj, z, out["V_minus"])
    assert resp.max_norm < 1e-10
    assert resm.max_norm < 1e-10
    # scalar identity at the base site: the (1,1) block is (V_+ - V_-)^{-1}
    vp, vm = out["V_plus"][0], out["V_minus"][0]
    assert la.opnorm(out["blocks"][0][:1, :1] - np.linalg.inv(vp - vm)) < 1e-12
    # on the real axis the two Riccati roots become conjugate, so the
    # diagonal degenerates to 1/(2i Im V_+); verify near the band
    lam = 2.0 + 1e-6j
    vp_r = htk.constant_riccati_fixed_point(sysj, lam, +1)
    vm_r = htk.constant_riccati_fixed_point(sysj, lam, -1)
    assert la.opnorm(vm_r - vp_r.conj().T) < 1e-5
    assert la.opnorm(np.linalg.inv(vp_r - vm_r)
                     - np.linalg.inv(2j * la.imag_part(vp_r))) < 1e-4


def test_diagonal_riccati_blocks_below_the_real_axis(free_kernels):
    # the Riccati diagonal holds at conj z on the kernel built there
    sysj, al, z, mp, mm, whole, plus, minus = free_kernels
    kerc = hg.build_whole_kernel(sysj, np.conj(z), 0, al, mp.conj().T,
                                 mm.conj().T, (-10, 10))
    out = hg.diagonal_riccati_blocks(kerc, sites=range(-8, 9))
    assert not out["errors"]
    assert max(out["defect"].values()) < 1e-9
    for side in ("V_plus", "V_minus"):
        assert hwl.riccati_residual(sysj, np.conj(z), out[side]).max_norm < 1e-10


def test_whole_kernel_matrix_true_limits():
    # m=2 constant coefficients with exact half-line data from the matrix
    # fixed point: the delta identity and coupling pairing hold at 1e-10
    rng = np.random.default_rng(41)
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = g + 3.0 * np.eye(2)
    sysd = hsys.dirac_system(lambda k: b, (-30, 30), m=2)
    al = hsys.dirichlet(2)
    z = 0.5 + 0.9j
    mp = -htk.constant_riccati_fixed_point(sysd, z, +1)
    mm = -htk.constant_riccati_fixed_point(sysd, z, -1)
    ker = hg.build_whole_kernel(sysd, z, 0, al, mp, mm, (-8, 8))
    assert ker.diagnostics["coupling_defect"] < 1e-9
    for ell in (-5, 0, 4):
        assert hg.delta_residual(ker, ell) < 1e-9
    sol = hg.solve_nonhomogeneous(ker, {1: np.eye(4, dtype=complex)})
    assert sol.residual_max < 1e-10
    assert sol.l2a_ok


def test_solve_uniqueness_surrogate():
    # two independent circle-surrogate pairs give the same central solution
    sysj = make_free_jacobi((-60, 60))
    z = 0.4 + 0.6j
    al = hsys.dirichlet(1)
    fam = boundary_family(1, 4)
    sols = []
    for ell_s, bd in ((26, fam[1]), (31, fam[2])):
        mp = hwl.m_regular(sysj, hwl.disk_context(sysj, z, 0, ell_s, al), bd).M
        mm = hwl.m_regular(sysj, hwl.disk_context(sysj, z, 0, -ell_s, al), bd).M
        ker = hg.build_whole_kernel(sysj, z, 0, al, mp, mm, (-15, 15))
        f = {k: np.ones(2) for k in range(-3, 4)}
        sols.append(hg.solve_nonhomogeneous(ker, f))
    for k in range(-5, 6):
        assert np.linalg.norm(sols[0].y[k] - sols[1].y[k]) < 1e-6


def test_half_kernels_match_generic_coupling_formula(free_kernels):
    # the half-line kernels are the generic two-family coupling with the
    # base-boundary column block in the opposite role and coupling +-I
    sysj, al, z, mp, mm, whole, plus, minus = free_kernels
    fund_z = hp.fundamental(sysj, z, 0, al, (0, 13))
    fund_zb = hp.fundamental(sysj, np.conj(z), 0, al, (0, 13))
    up = hp.weyl_solution(fund_z, mp)
    upb = hp.weyl_solution(fund_zb, mp.conj().T)
    for k, ell in ((6, 2), (1, 8)):
        if k > ell:
            direct = up.plain(k) @ fund_zb.plain(ell)[:, 1:].conj().T
        else:
            direct = fund_z.plain(k)[:, 1:] @ upb.plain(ell).conj().T
        assert la.opnorm(direct - plus.at(k, ell)) < 1e-12
    fund_z2 = hp.fundamental(sysj, z, 0, al, (-12, 1))
    fund_zb2 = hp.fundamental(sysj, np.conj(z), 0, al, (-12, 1))
    um = hp.weyl_solution(fund_z2, mm)
    umb = hp.weyl_solution(fund_zb2, mm.conj().T)
    for k, ell in ((-2, -7), (-9, -3)):
        if k > ell:
            direct = -fund_z2.plain(k)[:, 1:] @ umb.plain(ell).conj().T
        else:
            direct = -um.plain(k) @ fund_zb2.plain(ell)[:, 1:].conj().T
        assert la.opnorm(direct - minus.at(k, ell)) < 1e-12


def test_flux_trend_minus_side(free_kernels):
    sysj, al, z, mp, mm, whole, plus, minus = free_kernels
    rng = np.random.default_rng(11)
    f = {k: rng.normal(size=2) for k in minus.source_sites()}
    sol = hg.solve_nonhomogeneous(minus, f)
    trend = hg.flux_trend(minus, sol, "-")
    # random source phases leave the decay only mostly monotone
    assert trend["ratio"] < 0.1
    assert trend["monotone_fraction"] >= 0.6


def _flux_one_matrix_at_a_time(kernel, y, k, side):
    # Uhat_side(conj z, k)* J_rho(k) yhat(k) from 2-D products of one site
    m = kernel.m
    u = (kernel._up if side == "+" else kernel._um)[1, kernel._rows(k, 2)]
    uhat = np.vstack([u[0][:m], u[1][m:]])
    yhat = np.vstack([np.asarray(y[k])[:m].reshape(m, -1),
                      np.asarray(y[k + 1])[m:].reshape(m, -1)])
    return uhat.conj().T @ kernel.sys.j_rho(k) @ yhat


@pytest.fixture(scope="module")
def const_m2_kernels():
    """Whole and half kernels of a constant m = 2 Jacobi chain."""
    p = np.array([[1.0, 0.2 + 0.1j], [0.2 - 0.1j, 1.5]])
    q = np.diag([0.1, -0.3]).astype(complex)
    sysj = hsys.jacobi_system(lambda k: p, lambda k: q, (-40, 40), m=2)
    al, z = hsys.dirichlet(2), 0.7 + 0.8j
    mp = -htk.constant_riccati_fixed_point(sysj, z, +1)
    mm = -htk.constant_riccati_fixed_point(sysj, z, -1)
    return (hg.build_whole_kernel(sysj, z, 0, al, mp, mm, (-9, 9)),
            hg.build_half_kernel_plus(sysj, z, 0, al, mp, (0, 10)),
            hg.build_half_kernel_minus(sysj, z, 0, al, mm, (-10, 0)))


def test_flux_trend_norms_equal_per_site_fluxes_bitwise(free_kernels, const_m2_kernels):
    kernels = list(free_kernels[5:]) + list(const_m2_kernels)
    for i, kernel in enumerate(kernels):
        rng = np.random.default_rng(40 + i)
        n = 2 * kernel.m
        sol = hg.solve_nonhomogeneous(
            kernel, {k: rng.normal(size=n) + 1j * rng.normal(size=n)
                     for k in kernel.source_sites()})
        sides = {"whole": "+-", "half_plus": "+", "half_minus": "-"}[kernel.variant]
        for side in sides:
            trend = hg.flux_trend(kernel, sol, side)
            assert len(trend["sites"]) >= 2
            per_site = [la.opnorm(hg.boundary_flux(kernel, sol, k, side))
                        for k in trend["sites"]]
            by_hand = [la.opnorm(_flux_one_matrix_at_a_time(kernel, sol.y, k, side))
                       for k in trend["sites"]]
            assert all(type(v) is float for v in trend["norms"])
            assert trend["norms"] == per_site == by_hand


@pytest.mark.parametrize("variant,window,sides", [
    ("whole", (0, 1), "+-"), ("whole", (0, 0), "+-"),
    ("half_plus", (0, 1), "+"), ("half_plus", (0, 0), "+"),
    ("half_minus", (-1, 0), "-"), ("half_minus", (0, 0), "-")],
    ids=["whole-one_step", "whole-one_site", "half_plus-one_step",
         "half_plus-one_site", "half_minus-one_step", "half_minus-one_site"])
def test_flux_trend_on_the_shortest_windows_stays_inside_them(variant, window, sides):
    sysj = make_free_jacobi((-10, 10))
    al, z = hsys.dirichlet(1), 1 + 0.5j
    mp = -htk.constant_riccati_fixed_point(sysj, z, +1)
    mm = -htk.constant_riccati_fixed_point(sysj, z, -1)
    kernel = {"whole": lambda: hg.build_whole_kernel(sysj, z, 0, al, mp, mm, window),
              "half_plus": lambda: hg.build_half_kernel_plus(sysj, z, 0, al, mp, window),
              "half_minus": lambda: hg.build_half_kernel_minus(sysj, z, 0, al, mm, window),
              }[variant]()
    rng = np.random.default_rng(3)
    sol = hg.solve_nonhomogeneous(
        kernel, {k: rng.normal(size=2) + 1j * rng.normal(size=2)
                 for k in kernel.source_sites()})
    lo, hi = window
    for side in sides:
        trend = hg.flux_trend(kernel, sol, side)
        assert all(lo <= k <= hi for k in trend["sites"])
        if len(trend["sites"]) == 1:
            # one sampled site reports no trend
            assert trend["ratio"] == (1.0 if trend["norms"][0] > 0 else 0.0)
            assert trend["monotone_fraction"] == 0.0


def test_source_site_validation(free_kernels):
    sysj, al, z, mp, mm, whole, plus, minus = free_kernels
    with pytest.raises(InputError):
        hg.solve_nonhomogeneous(plus, {0: np.ones(2)})  # k0 not admissible
    with pytest.raises(InputError):
        hg.boundary_flux(plus, {}, 1, "-")


def _pair_sum(ker, fd):
    """Direct superposition sum_ell K(k, ell) A(ell) f(ell), one kernel block
    per (site, source) pair: the reference for the prefix-sum solve."""
    lo, hi = ker.window
    return {k: sum(ker.at(k, ell) @ ker.sys.A(ell) @ v for ell, v in fd.items())
            for k in range(lo, hi + 2)}


def _pair_square_trace(ker, k):
    return sum(float(np.real(np.trace(ker.at(k, ell) @ ker.sys.A(ell)
                                      @ ker.at(k, ell).conj().T)))
               for ell in ker.source_sites())


def _kernel_variants(sys_, z, m):
    """Whole and half kernels at z and conj z with the exact half-line data
    of a constant-coefficient system."""
    al = hsys.dirichlet(m)
    mp = -htk.constant_riccati_fixed_point(sys_, z, +1)
    mm = -htk.constant_riccati_fixed_point(sys_, z, -1)
    for zz, a, b in ((z, mp, mm), (np.conj(z), mp.conj().T, mm.conj().T)):
        yield hg.build_whole_kernel(sys_, zz, 0, al, a, b, (-8, 8))
        yield hg.build_half_kernel_plus(sys_, zz, 0, al, a, (0, 9))
        yield hg.build_half_kernel_minus(sys_, zz, 0, al, b, (-9, 0))


@pytest.mark.parametrize("m", [1, 2])
def test_solve_matches_direct_pair_sum(m):
    rng = np.random.default_rng(29)
    if m == 1:
        sys_ = make_free_jacobi((-30, 30))
    else:
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) + 3.0 * np.eye(2)
        sys_ = hsys.dirac_system(lambda k: b, (-30, 30), m=2)
    for ker in _kernel_variants(sys_, 0.5 + 0.9j, m):
        lo, hi = ker.window
        sites = list(ker.source_sites())
        for r in (1, 2 * m):
            arr = (rng.normal(size=(len(sites), 2 * m, r))
                   + 1j * rng.normal(size=(len(sites), 2 * m, r)))
            full = dict(zip(sites, arr))
            sparse = {sites[1]: arr[1], sites[-2]: arr[-2]}
            for f, fd in ((arr[..., 0] if r == 1 else arr, full), (full, full),
                          (sparse, sparse)):
                sol = hg.solve_nonhomogeneous(ker, f)
                ref = _pair_sum(ker, fd)
                scale = max(np.max(np.abs(v)) for v in ref.values())
                assert sorted(sol.y) == sorted(ref)
                for k in ref:
                    assert np.max(np.abs(sol.y[k] - ref[k])) <= 1e-13 * scale
                assert sorted(sol.residual_by_site) == list(range(lo + 1, hi))
                lhs = sum(float(np.real(np.trace(ref[k].conj().T @ sys_.A(k) @ ref[k])))
                          for k in sites)
                assert abs(sol.l2a_lhs - lhs) <= 1e-13 * lhs
                assert sol.l2a_ok
        # the kernel square sums do not depend on the source
        for k, v in sol.kernel_square_trace.items():
            assert abs(v - _pair_square_trace(ker, k)) <= 1e-13 * v
