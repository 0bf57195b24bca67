import numpy as np
import pytest

from hamweyl import _linalg as la
from hamweyl import propagate as hp
from hamweyl import system as hsys
from hamweyl import testkit as htk
from hamweyl import weyl as hwl
from hamweyl.errors import EigenvalueHitError, InputError, SteppingError

from conftest import make_free_jacobi


def interior_boundary_family(m, n, sigma, seed=77):
    """Members with sigma * Im(b1 b2*) > 0 strictly (open-disk data)."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        c = complex(rng.normal(), -sigma * rng.uniform(0.3, 1.5))
        h = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        h = 0.25 * (h + h.conj().T) / 2
        raw = np.hstack([np.eye(m), c * np.eye(m) + h])
        out.append(hsys.make_boundary_data(raw))
    return out


def zero_boundary_family(m, n):
    return hwl.boundary_family(m, n)


# ---------------------------------------------------------------------------
# disk functional
# ---------------------------------------------------------------------------

def test_e_functional_vanishes_on_circle():
    sysj = make_free_jacobi((0, 40))
    al = hsys.dirichlet(1)
    ctx = hwl.disk_context(sysj, 1j, 0, 9, al)
    fund = hp.fundamental(sysj, 1j, 0, al, (0, 9))
    for bd in zero_boundary_family(1, 6):
        mf = hwl.m_regular(sysj, ctx, bd, fund=fund)
        e_val = hwl.e_functional(sysj, ctx, mf.M, fund=fund)
        assert la.opnorm(e_val) < 1e-9
        assert hwl.disk_membership(e_val) == "circle"


def test_e_functional_negative_on_interior():
    for seed, m in ((3, 1), (4, 2)):
        sysr = htk.random_system(m, (0, 14), seed=seed, cls="jacobi")
        al = hsys.dirichlet(m)
        z = 0.5 + 0.8j
        ctx = hwl.disk_context(sysr, z, 2, 10, al)
        fund = hp.fundamental(sysr, z, 2, al, (2, 10))
        for bd in interior_boundary_family(m, 4, ctx.sigma):
            mf = hwl.m_regular(sysr, ctx, bd, fund=fund)
            e_val = hwl.e_functional(sysr, ctx, mf.M, fund=fund)
            assert la.max_eig_herm(e_val) < -1e-12
            assert hwl.disk_membership(e_val) == "interior"


def test_energy_identity_both_directions():
    sysj = make_free_jacobi((-40, 40))
    al = hsys.dirichlet(1)
    v_plus = htk.constant_riccati_fixed_point(sysj, 1j, +1)
    # hand-verified value at ell=2, z=i, alpha=beta=Dirichlet
    ctx = hwl.disk_context(sysj, 1j, 0, 2, al)
    e_val = hwl.e_functional(sysj, ctx, -v_plus)
    assert abs(e_val[0, 0].real + 0.03201828861) < 1e-9
    for ell, z in ((6, 1j), (-6, 1j), (7, -0.4 - 0.8j), (-5, 0.3 + 1.2j)):
        ctx = hwl.disk_context(sysj, z, 0, ell, al)
        lo, hi = min(0, ell), max(0, ell)
        fund = hp.fundamental(sysj, z, 0, al, (lo, hi))
        for M in (hwl.m_regular(sysj, ctx, al, fund=fund).M,
                  np.array([[0.1 + 0.4j * ctx.sigma]])):
            e_val = hwl.e_functional(sysj, ctx, M, fund=fund)
            u = hp.weyl_solution(fund, M)
            s = hwl.a_form_sum(sysj, u, hwl.plus_interval(0, ell))
            lhs = 2 * ctx.sigma * la.imag_part(M) + e_val
            rhs = 2 * abs(z.imag) * s
            assert la.opnorm(lhs - rhs) < 1e-10 * (1 + la.opnorm(rhs))


def test_disk_membership_trivial():
    assert hwl.disk_membership(np.zeros((2, 2))) == "circle"
    assert hwl.disk_membership(-np.eye(2)) == "interior"
    assert hwl.disk_membership(np.diag([1.0, -1.0])) == "exterior"
    assert hwl.disk_membership(np.diag([0.0, -5e-10]), tol=1e-9) == "circle"


# ---------------------------------------------------------------------------
# regular M-functions
# ---------------------------------------------------------------------------

def test_m_regular_converges_to_riccati_root():
    sysj = make_free_jacobi((0, 240))
    al = be = hsys.dirichlet(1)
    v = htk.constant_riccati_fixed_point(sysj, 1j, +1)
    ctx30 = hwl.disk_context(sysj, 1j, 0, 30, al)
    m30 = hwl.m_regular(sysj, ctx30, be).M
    assert la.opnorm(m30 + v) < 1e-3
    # geometric improvement with the interval length (before roundoff floor)
    ctx6 = hwl.disk_context(sysj, 1j, 0, 6, al)
    ctx12 = hwl.disk_context(sysj, 1j, 0, 12, al)
    e6 = la.opnorm(hwl.m_regular(sysj, ctx6, be).M + v)
    e12 = la.opnorm(hwl.m_regular(sysj, ctx12, be).M + v)
    assert e12 < e6 / 100


def test_m_regular_conjugation_and_herglotz():
    sysr = htk.random_system(2, (0, 14), seed=15, cls="general_A12zero")
    al = hsys.dirichlet(2)
    for z in (0.5 + 0.75j, -1.2 + 0.4j):
        for bd in zero_boundary_family(2, 4):
            ctx = hwl.disk_context(sysr, z, 1, 11, al)
            m_z = hwl.m_regular(sysr, ctx, bd).M
            m_zb = hwl.m_regular(sysr, ctx.conjugate(), bd).M
            assert la.opnorm(m_zb - m_z.conj().T) < 1e-10 * (1 + la.opnorm(m_z))
            assert la.min_eig_herm(ctx.sigma * la.imag_part(m_z)) > 0


def test_m_regular_eigenvalue_hit():
    sysj = make_free_jacobi((0, 12))
    al = be = hsys.dirichlet(1)
    lam = 2 - 2 * np.cos(np.pi / 11)  # first Dirichlet eigenvalue, ell = 11
    ctx = hwl.disk_context(sysj, complex(lam, 1e-15), 0, 11, al)
    with pytest.raises(EigenvalueHitError):
        hwl.m_regular(sysj, ctx, be)


def test_evaluator_nan_where_m_regular_hits():
    # one singularity rule: at the hit of the test above the batched
    # evaluator returns NaN, and neighbouring z in the batch stay finite
    sysj = make_free_jacobi((0, 12))
    al = be = hsys.dirichlet(1)
    z = complex(2 - 2 * np.cos(np.pi / 11), 1e-15)
    ev = hwl.regular_m_evaluator(sysj, 0, 11, al, be)
    assert np.all(np.isnan(ev(z)))
    both = ev(np.array([z, 0.5 + 0.5j]))
    assert np.all(np.isnan(both[0])) and np.all(np.isfinite(both[1]))


def test_evaluator_pencil_check_matches_m_regular():
    # a singular (2,1) pencil at one site (B21 zeroed where A21 vanishes)
    # raises the same typed error on the batched path as on the scalar one
    sysj = make_free_jacobi((0, 12))
    B = sysj._B.copy()
    B[5, 1, 0] = 0.0
    bad = hsys.HamiltonianSystem(1, sysj.window, sysj._A, B, sysj._rho)
    al = be = hsys.dirichlet(1)
    with pytest.raises(SteppingError):
        hwl.m_regular(bad, hwl.disk_context(bad, 0.5 + 0.5j, 0, 11, al), be)
    ev = hwl.regular_m_evaluator(bad, 0, 11, al, be)
    with pytest.raises(SteppingError):
        ev(np.array([0.5 + 0.5j, 1.0 + 0.2j]))


def test_evaluator_equals_m_regular_bitwise():
    # the system of test_m_regular_conjugation_and_herglotz (non-unit rho):
    # batched and scalar evaluation run the same kernel and extraction
    sysr = htk.random_system(2, (0, 14), seed=15, cls="general_A12zero")
    al = hsys.dirichlet(2)
    zs = np.array([0.5 + 0.75j, -1.2 + 0.4j])
    for bd in zero_boundary_family(2, 4):
        ev = hwl.regular_m_evaluator(sysr, 1, 11, al, bd)
        batch = ev(zs)
        for i, z in enumerate(zs):
            m_z = hwl.m_regular(sysr, hwl.disk_context(sysr, z, 1, 11, al), bd).M
            assert np.array_equal(ev(z), m_z)
            assert np.array_equal(batch[i], m_z)


def test_disk_context_validation():
    sysj = make_free_jacobi((0, 10))
    with pytest.raises(InputError):
        hwl.disk_context(sysj, 1.0 + 0.0j, 0, 5, hsys.dirichlet(1))
    with pytest.raises(InputError):
        hwl.disk_context(sysj, 1j, 3, 3, hsys.dirichlet(1))
    nonzero = hsys.make_boundary_data(np.array([[1.0, 1.0j]]))
    assert nonzero.sign_class != "zero"
    with pytest.raises(InputError):
        hwl.disk_context(sysj, 1j, 0, 5, nonzero)
    with pytest.warns(RuntimeWarning):
        hwl.disk_context(sysj, 1j, 0, 1, hsys.dirichlet(1))


# ---------------------------------------------------------------------------
# linear fractional transformations
# ---------------------------------------------------------------------------

def test_lft_identity_and_inversion():
    m = 2
    rng = np.random.default_rng(8)
    M = rng.normal(size=(m, m)) + 1j * (np.eye(m) + 0.1 * rng.normal(size=(m, m)))
    al = hsys.dirichlet(m)
    assert np.allclose(hwl.lft_alpha_change(M, al, al), M)
    ne = hsys.neumann(m)
    # base change from (0 I) to (I 0) inverts with a sign
    out = hwl.lft_alpha_change(M, al, ne)
    assert np.allclose(out, -np.linalg.inv(M), atol=1e-12)


def test_lft_matches_direct_computation():
    for seed, m in ((51, 1), (52, 2)):
        sysr = htk.random_system(m, (0, 12), seed=seed, cls="jacobi")
        z = 0.8 + 0.9j
        be = zero_boundary_family(m, 5)[3]
        fam = zero_boundary_family(m, 6)
        for i in range(0, 6, 2):
            alpha, gamma = fam[i], fam[i + 1]
            m_gamma = hwl.m_regular(sysr, hwl.disk_context(sysr, z, 0, 9, gamma),
                                    be).M
            m_alpha = hwl.m_regular(sysr, hwl.disk_context(sysr, z, 0, 9, alpha),
                                    be).M
            via_lft = hwl.lft_alpha_change(m_gamma, alpha, gamma)
            assert la.opnorm(via_lft - m_alpha) < 1e-9 * (1 + la.opnorm(m_alpha))


# ---------------------------------------------------------------------------
# half-line limits and disk geometry
# ---------------------------------------------------------------------------

def test_limit_point_free_jacobi_both_directions():
    sysj = make_free_jacobi((-220, 220))
    al = hsys.dirichlet(1)
    lim = hwl.limit_m(sysj, 1j, 0, al, +1)
    v = htk.constant_riccati_fixed_point(sysj, 1j, +1)
    assert lim.classification == "limit_point"
    assert la.opnorm(lim.M_pm + v) < 1e-8
    assert lim.diameter_estimate < 1e-6
    lim_m = hwl.limit_m(sysj, 1j, 0, al, -1)
    v_m = htk.constant_riccati_fixed_point(sysj, 1j, -1)
    assert lim_m.classification == "limit_point"
    assert la.opnorm(lim_m.M_pm + v_m) < 1e-8
    # opposite Herglotz signs
    assert la.imag_part(lim.M_pm)[0, 0].real > 0
    assert la.imag_part(lim_m.M_pm)[0, 0].real < 0


def test_limit_beta_independence_in_limit_point():
    sysj = make_free_jacobi((-10, 220))
    al = hsys.dirichlet(1)
    betas = zero_boundary_family(1, 3)
    vals = []
    for bd in betas:
        opts = hwl.LimitOptions(beta=bd, ell_schedule=[50, 100, 200])
        vals.append(hwl.limit_m(sysj, 1j, 0, al, +1, opts).M_pm)
    for v in vals[1:]:
        assert la.opnorm(v - vals[0]) < 1e-8


def test_limit_imaginary_part_sum_identity():
    # Im M_+ = Im z * sum of u1-energies of the decaying family; the family
    # is evaluated from the stable oracle root (powers of the decaying
    # multiplier), the limit from the far-site chase
    sysj = make_free_jacobi((-10, 220))
    al = hsys.dirichlet(1)
    z = 1j
    lim = hwl.limit_m(sysj, z, 0, al, +1)
    w = 1.0 + htk.constant_riccati_fixed_point(sysj, z, +1)[0, 0] * (-1)
    # V = 1 - w  =>  w = 1 - V;  |w| < 1 is the decaying multiplier
    w = 1.0 - htk.constant_riccati_fixed_point(sysj, z, +1)[0, 0]
    assert abs(w) < 1
    acc = sum(abs(w) ** (2 * k) for k in range(1, 201))
    assert abs(la.imag_part(lim.M_pm)[0, 0].real - z.imag * acc) < 1e-6


def test_limit_agrees_with_matrix_fixed_point():
    # constant-coefficient m=2 system: the half-line limit must land on the
    # matrix Riccati fixed point of the matching branch
    rng = np.random.default_rng(31)
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = g + 3.0 * np.eye(2)
    sysd = hsys.dirac_system(lambda k: b, (-160, 160), m=2)
    al = hsys.dirichlet(2)
    z = 0.5 + 0.9j
    for direction in (+1, -1):
        v = htk.constant_riccati_fixed_point(sysd, z, direction)
        lim = hwl.limit_m(sysd, z, 0, al, direction)
        assert lim.classification == "limit_point"
        assert la.opnorm(lim.M_pm + v) < 1e-8
        assert lim.square_summable_dimension() == 2


def test_limit_circle_classification():
    # zero three-term diagonal with quadratically growing weights: every
    # solution is square-summable, so the limiting disk keeps a positive
    # diameter and the far-boundary dependence persists
    p = lambda k: float((abs(k) + 1) ** 2)
    q = lambda k: -(p(k + 1) + p(k))
    sysg = hsys.jacobi_system(p, q, (0, 420))
    al = hsys.dirichlet(1)
    lim = hwl.limit_m(sysg, 1j, 0, al, +1)
    assert lim.classification == "limit_circle"
    assert lim.square_summable_dimension() == 2
    assert lim.diameter_estimate > 1.0
    assert "far boundary" in lim.note
    # a different far boundary lands on a different limiting value
    other = hwl.limit_m(sysg, 1j, 0, al, +1,
                        hwl.LimitOptions(beta=hwl.boundary_family(1, 4)[2]))
    assert la.opnorm(other.M_pm - lim.M_pm) > 1e-2


def test_limit_agrees_with_fixed_point_dirac():
    sysd = hsys.dirac_system(lambda k: 1.0, (-140, 140))
    al = hsys.dirichlet(1)
    z = 0.3 + 0.8j
    for direction in (+1, -1):
        lim = hwl.limit_m(sysd, z, 0, al, direction)
        v = htk.constant_riccati_fixed_point(sysd, z, direction)
        assert lim.classification == "limit_point"
        assert la.opnorm(lim.M_pm + v) < 1e-8


def test_limit_inconclusive_when_window_short():
    sysj = make_free_jacobi((0, 30))
    al = hsys.dirichlet(1)
    opts = hwl.LimitOptions(tol=1e-30)  # unreachable Cauchy tolerance
    lim = hwl.limit_m(sysj, 1j, 0, al, +1, opts)
    assert lim.classification == "inconclusive"
    assert lim.note


def test_diameter_decreases_and_is_monotone_in_samples():
    sysj = make_free_jacobi((0, 160))
    al = hsys.dirichlet(1)
    d10 = hwl.disk_diameter_estimate(sysj, hwl.disk_context(sysj, 1j, 0, 10, al))
    d100 = hwl.disk_diameter_estimate(sysj, hwl.disk_context(sysj, 1j, 0, 100, al))
    assert d100 < d10 / 10
    ctx = hwl.disk_context(sysj, 1j, 0, 8, al)
    d4 = hwl.disk_diameter_estimate(sysj, ctx, n_samples=4)
    d16 = hwl.disk_diameter_estimate(sysj, ctx, n_samples=16)
    assert d16 >= d4 - 1e-15


def test_diameter_close_to_dense_circle_sampling():
    sysj = make_free_jacobi((0, 40))
    al = hsys.dirichlet(1)
    ctx = hwl.disk_context(sysj, 1j, 0, 6, al)
    fund = hp.fundamental(sysj, 1j, 0, al, (0, 6))
    # brute force: 360 circle points
    pts = []
    for t in np.linspace(0, np.pi, 360, endpoint=False):
        bd = hsys.BoundaryData(np.array([[np.cos(t)]], dtype=complex),
                               np.array([[np.sin(t)]], dtype=complex), "zero")
        M, _, _ = hwl.m_from_hat(sysj, fund.hat(6), 6, bd)
        pts.append(M[0, 0])
    pts = np.array(pts)
    exact = max(abs(pts[i] - pts[j]) for i in range(0, 360, 7)
                for j in range(i + 1, 360, 7))
    est = hwl.disk_diameter_estimate(sysj, ctx, n_samples=8)
    assert est <= exact * (1 + 1e-12)
    assert est >= exact / 2


def test_nesting_monotone_disk_functional():
    sysr = htk.random_system(2, (0, 20), seed=23, cls="jacobi")
    al = hsys.dirichlet(2)
    z = 0.4 + 0.7j
    ctx_far = hwl.disk_context(sysr, z, 0, 14, al)
    fund = hp.fundamental(sysr, z, 0, al, (0, 14))
    for bd in zero_boundary_family(2, 4):
        m_far = hwl.m_regular(sysr, ctx_far, bd, fund=fund).M
        for ell1 in (6, 10):
            ctx1 = hwl.disk_context(sysr, z, 0, ell1, al)
            e1 = hwl.e_functional(sysr, ctx1, m_far, fund=fund)
            assert la.max_eig_herm(e1) <= 1e-9 * (1 + la.opnorm(e1))


# ---------------------------------------------------------------------------
# Herglotz structure
# ---------------------------------------------------------------------------

def test_herglotz_check_regular_and_limit():
    sysj = make_free_jacobi((-10, 120))
    al = hsys.dirichlet(1)
    grid = [0.3 + 0.4j, -0.5 + 1.0j, 2.0 + 0.25j]
    rep = hwl.herglotz_check(sysj, grid, 0, al, ell=9)
    assert rep.passed
    rep2 = hwl.herglotz_check(sysj, [0.5j, 1.0 + 1.0j], 0, al, direction="+",
                              opts=hwl.LimitOptions(ell_schedule=[40, 80, 110]))
    assert rep2.passed
    # the checker's criterion flags a conjugated value
    for row in rep.rows:
        z = row["z"]
        ctx = hwl.disk_context(sysj, z, 0, 9, al)
        m_bad = hwl.m_regular(sysj, ctx, hsys.dirichlet(1)).M.conj().T
        assert la.min_eig_herm(ctx.sigma * la.imag_part(m_bad)) < 0


# ---------------------------------------------------------------------------
# spectral measures and the phase matrix
# ---------------------------------------------------------------------------

def free_half_line_m_plus():
    def ev(zz):
        zz = np.asarray(zz, dtype=complex)
        disc = np.sqrt(zz * zz - 4 * zz)
        r1 = (zz + disc) / 2
        r2 = (zz - disc) / 2
        v = np.where(r1.imag < 0, r1, r2)
        return (-v)[..., None, None]

    return ev


def test_measure_regular_bvp_locates_eigenvalues_small():
    sysj = make_free_jacobi((0, 6))
    al = be = hsys.dirichlet(1)
    oracle = htk.jacobi_bvp_oracle(htk.RegularBVP(sysj, 0, 6, al, be))
    m_eval = hwl.regular_m_evaluator(sysj, 0, 6, al, be)
    with pytest.warns(RuntimeWarning):
        sm = hwl.spectral_measure(m_eval, (-0.5, 4.5), 120, [2e-6, 1e-6])
    positions, masses = hwl.locate_jumps(sm)
    assert len(positions) == len(oracle) == 5
    width = sm.grid[1] - sm.grid[0]
    assert np.max(np.abs(positions - oracle)) < width
    assert abs(np.sum(masses) - 1.0) < 1e-3


def test_measure_half_line_support():
    sm = hwl.spectral_measure(free_half_line_m_plus(), (-1.0, 5.0), 60,
                              [1e-4, 1e-5, 1e-6])
    tr = sm.trace_increments(richardson=True)
    outside = (sm.grid[1:] <= -0.01) | (sm.grid[:-1] >= 4.01)
    assert float(np.sum(np.abs(tr[outside]))) <= 1e-6
    inside = tr[(sm.grid[:-1] >= 0.2) & (sm.grid[1:] <= 3.8)]
    assert np.all(inside > 0)
    assert abs(sm.total(richardson=True)[0, 0].real - 1.0) < 1e-4


def test_measure_empty_interval_below_spectrum():
    sm = hwl.spectral_measure(free_half_line_m_plus(), (-2.0, -0.05), 40,
                              [1e-5, 1e-6])
    assert float(np.sum(sm.trace_increments(richardson=True))) <= 1e-6


def test_measure_increments_psd_and_additive():
    m_eval = free_half_line_m_plus()
    sm1 = hwl.spectral_measure(m_eval, (0.5, 3.5), 30, [1e-5])
    sm2 = hwl.spectral_measure(m_eval, (0.5, 3.5), 60, [1e-5])
    merged = sm2.increments.reshape(30, 2, 1, 1).sum(axis=1)
    assert np.max(np.abs(merged - sm1.increments)) < 1e-6
    for inc in sm1.increments:
        assert la.min_eig_herm(inc) >= -1e-12


def test_fit_herglotz_tail_parts():
    # free half line: no linear term, affine part tends to -1 at infinity
    c1, c2 = hwl.fit_herglotz_parts(free_half_line_m_plus())
    assert la.opnorm(c2) < 1e-6
    assert abs(c1[0, 0].real + 1.0) < 1e-3
    sm = hwl.spectral_measure(free_half_line_m_plus(), (0.5, 1.5), 10, [1e-4],
                              fit_tail_parts=True)
    assert sm.linear_part is not None and la.opnorm(sm.linear_part) < 1e-6
    assert sm.affine_part is not None


def test_half_line_limit_dimension_diagnostic():
    sysj = make_free_jacobi((-10, 220))
    lim = hwl.limit_m(sysj, 1j, 0, hsys.dirichlet(1), +1)
    assert lim.square_summable_dimension() == 1


def test_xi_function_oracle_values():
    ev = free_half_line_m_plus()
    xi = hwl.xi_function(ev, np.array([-1.0, 2.0, 5.0]), 1e-7)
    # with this boundary normalization M_+ is negative real off the band,
    # so the phase saturates at 1 below and above; at the band center
    # M_+(2 + i0) = -1 + i gives phase 3/4 (oracle sign analysis)
    assert abs(xi.xi[0][0, 0].real - 1.0) < 1e-6
    assert abs(xi.xi[1][0, 0].real - 0.75) < 1e-6
    assert abs(xi.xi[2][0, 0].real - 1.0) < 1e-6
    grid = np.linspace(-2.0, 6.0, 41)
    xi2 = hwl.xi_function(ev, grid, 1e-7)
    assert xi2.range_defect <= 1e-8
    assert not xi2.skipped


# ---------------------------------------------------------------------------
# Riccati route
# ---------------------------------------------------------------------------

def test_riccati_from_solution_signs_and_value():
    sysj = make_free_jacobi((-10, 60))
    al = hsys.dirichlet(1)
    z = 1j
    v = htk.constant_riccati_fixed_point(sysj, z, +1)
    # the decaying family loses float accuracy beyond ~20 sites at this z
    # (growth ratio ~4.3 per step); stay within the trustworthy range
    fund = hp.fundamental(sysj, z, 0, al, (0, 18))
    u = hp.weyl_solution(fund, -v)  # M_+ = -V
    rep = hwl.riccati_from_solution(sysj, u)
    assert not rep.errors
    assert rep.all_interior
    assert la.opnorm(rep.V[0] + (-v)) < 1e-12      # V(k0) = -M
    for k in range(0, 11):
        assert la.opnorm(rep.V[k] - v) < 1e-9      # constant along the orbit


def test_riccati_residual_detects_perturbation():
    sysj = make_free_jacobi((-10, 60))
    z = 1j
    v = htk.constant_riccati_fixed_point(sysj, z, +1)
    vals = {k: v.copy() for k in range(0, 12)}
    rep = hwl.riccati_residual(sysj, z, vals)
    assert rep.max_norm < 1e-12
    vals[6] = v + 1e-3
    rep2 = hwl.riccati_residual(sysj, z, vals)
    assert rep2.norms[7] > 1e-4 or rep2.norms[6] > 1e-4


def test_riccati_residual_from_regular_solution():
    sysr = htk.random_system(2, (0, 16), seed=61, cls="jacobi")
    al = hsys.dirichlet(2)
    z = 0.6 + 0.8j
    ctx = hwl.disk_context(sysr, z, 0, 12, al)
    fund = hp.fundamental(sysr, z, 0, al, (0, 12))
    bd = interior_boundary_family(2, 1, ctx.sigma)[0]
    mf = hwl.m_regular(sysr, ctx, bd, fund=fund)
    u = hp.weyl_solution(fund, mf.M)
    rep = hwl.riccati_from_solution(sysr, u)
    assert not rep.errors
    res = hwl.riccati_residual(sysr, z, rep.V)
    assert not res.errors
    assert res.max_norm < 1e-10
