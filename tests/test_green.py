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
    fund_z = whole._fund_z
    fund_zb = whole._fund_zb
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
    fund_z = plus._fund_z
    fund_zb = plus._fund_zb
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
    fund_z = plus._fund_z
    fund_zb = plus._fund_zb
    up = hp.weyl_solution(fund_z, mp)
    upb = hp.weyl_solution(fund_zb, mp.conj().T)
    for k, ell in ((6, 2), (1, 8)):
        if k > ell:
            direct = up.plain(k) @ fund_zb.plain(ell)[:, 1:].conj().T
        else:
            direct = fund_z.plain(k)[:, 1:] @ upb.plain(ell).conj().T
        assert la.opnorm(direct - plus.at(k, ell)) < 1e-12
    fund_z2 = minus._fund_z
    fund_zb2 = minus._fund_zb
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


@pytest.mark.parametrize("variant", ["half_plus", "half_minus"])
@pytest.mark.parametrize("z", [1j, -1j])
def test_solve_reads_lower_edges_only_where_the_pair_sum_does(variant, z):
    # the lower-edge psi2 of a role family costs a pencil solve that can
    # raise, so the solve reads it only where the direct pair sum reads it:
    # a half_plus solve never reads the Weyl roles (U+) there; a half_minus
    # solve needs its Weyl roles (U-) at the far end of the window
    sysj = make_free_jacobi((-40, 40))
    al = hsys.dirichlet(1)
    mp = -htk.constant_riccati_fixed_point(sysj, 1j, +1)
    mm = -htk.constant_riccati_fixed_point(sysj, 1j, -1)
    if z.imag < 0:
        mp, mm = mp.conj().T, mm.conj().T
    fams = ("_up_z", "_up_zb", "_um_z", "_um_zb")

    def fresh():
        if variant == "half_plus":
            return hg.build_half_kernel_plus(sysj, z, 0, al, mp, (0, 12))
        return hg.build_half_kernel_minus(sysj, z, 0, al, mm, (-12, 0))

    def read(ker):
        return {f for f in fams if "_plain_lo" in vars(getattr(ker, f))}

    ker, ref = fresh(), fresh()
    fd = {k: np.ones(2, dtype=complex) for k in ker.source_sites()}
    assert read(ker) == read(ref)
    hg.solve_nonhomogeneous(ker, fd)
    _pair_sum(ref, {k: v[:, None] for k, v in fd.items()})
    for k in (ref.window[0], sum(ref.window) // 2, ref.window[1]):
        _pair_square_trace(ref, k)
    assert read(ker) == read(ref)
    weyl_roles = {"half_plus": {"_up_z", "_up_zb"},
                  "half_minus": {"_um_z", "_um_zb"}}[variant]
    if variant == "half_plus":
        assert not read(ker) & weyl_roles
    else:
        assert weyl_roles <= read(ker)
