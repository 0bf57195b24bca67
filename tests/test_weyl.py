import numpy as np
import pytest
import scipy.linalg

from hamweyl import _linalg as la
from hamweyl import propagate as hp
from hamweyl import system as hsys
from hamweyl import testkit as htk
from hamweyl import weyl as hwl
from hamweyl.errors import EigenvalueHitError, InputError, SteppingError

from conftest import boundary_family, make_free_jacobi


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


# ---------------------------------------------------------------------------
# disk functional
# ---------------------------------------------------------------------------

def test_e_functional_vanishes_on_circle():
    sysj = make_free_jacobi((0, 40))
    al = hsys.dirichlet(1)
    ctx = hwl.disk_context(sysj, 1j, 0, 9, al)
    fund = hp.fundamental(sysj, 1j, 0, al, (0, 9))
    for bd in boundary_family(1, 6):
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
        for bd in boundary_family(2, 4):
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


def test_exactly_singular_block_is_a_pole_not_an_exception():
    # an exactly singular block makes the stacked solve raise; the pole rule
    # reports a hit there and keeps the rest of the stack
    a = np.stack([np.zeros((2, 2), dtype=complex), np.eye(2, dtype=complex)])
    b = np.stack([np.eye(2, dtype=complex)] * 2)
    M, smin, hit = hwl._pole_rule(a, b)
    assert hit.tolist() == [True, False] and smin[0] == 0.0
    assert np.all(np.isnan(M[0])) and np.array_equal(M[1], np.eye(2))
    # two decoupled free chains on [0, 2] have the eigenvalue 2 exactly: the
    # swept block C is exactly zero there
    sys2 = hsys.jacobi_system(lambda k: np.eye(2), lambda k: np.zeros((2, 2)),
                              (0, 12))
    d2 = hsys.dirichlet(2)
    M, smin, hit = hwl.regular_m_evaluator(sys2, 0, 2, d2, d2).extract(
        np.array([2.0, 2.0 + 0.5j]))
    assert hit.tolist() == [True, False] and smin[0] == 0.0
    assert np.all(np.isnan(M[0])) and np.all(np.isfinite(M[1]))
    with pytest.raises(EigenvalueHitError):
        hwl.m_regular(sys2, hwl.DiskContext(2.0 + 0j, 0, 2, d2), d2)


def test_evaluator_pencil_check_matches_m_regular():
    # a singular off-diagonal pencil at one site (B21 and B12 zeroed where
    # A's off-diagonal blocks vanish) raises the same typed error on the
    # batched path as on the scalar one
    sysj = make_free_jacobi((0, 12))
    B = sysj._B.copy()
    B[5, 1, 0] = B[5, 0, 1] = 0.0
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
    for bd in boundary_family(2, 4):
        ev = hwl.regular_m_evaluator(sysr, 1, 11, al, bd)
        batch = ev(zs)
        for i, z in enumerate(zs):
            m_z = hwl.m_regular(sysr, hwl.disk_context(sysr, z, 1, 11, al), bd).M
            assert np.array_equal(ev(z), m_z)
            assert np.array_equal(batch[i], m_z)


def _dense_jacobi_m(sysr, ell, zs):
    """a(0)* [(H - z)^-1]_11 a(0) + a(0), with H the three-term matrix of a
    Jacobi system on (0, ell): M of the Dirichlet problem on [0, ell]."""
    jc, m = sysr.jacobi, sysr.m
    n = ell - 1
    h = np.zeros((n * m, n * m), dtype=complex)
    for j in range(n):
        h[j * m:(j + 1) * m, j * m:(j + 1) * m] = jc.b(j + 1)
        if j + 1 < n:
            a = jc.a(j + 1)
            h[j * m:(j + 1) * m, (j + 1) * m:(j + 2) * m] = a
            h[(j + 1) * m:(j + 2) * m, j * m:(j + 1) * m] = a.conj().T
    a0 = jc.a(0)
    out = []
    for z in zs:
        r11 = np.linalg.solve(h - z * np.eye(n * m), np.eye(n * m)[:, :m])[:m]
        out.append(a0.conj().T @ r11 @ a0 + a0)
    return out


def test_long_window_m_matches_dense_resolvent():
    # ell = 300 Jacobi windows, where the 2m forward fundamental columns
    # collapse onto the fastest-growing mode: M from the inward sweep
    # matches the dense resolvent, and no numpy exception escapes
    zs = np.array([-0.5 + 0.1j, 0.5 + 0.1j, 1.5 + 0.1j, 0.5 + 0.5j])
    for m in (2, 4):
        sysr = htk.random_system(m, (0, 400), 42, "jacobi")
        d = hsys.dirichlet(m)
        refs = _dense_jacobi_m(sysr, 300, zs)
        batch = hwl.regular_m_evaluator(sysr, 0, 300, d, d)(zs)
        for z, ref, mb in zip(zs, refs, batch):
            ms = hwl.m_regular(sysr, hwl.disk_context(sysr, z, 0, 300, d), d).M
            for M in (ms, mb):
                assert la.opnorm(M - ref) / (1.0 + la.opnorm(ref)) < 1e-9


def test_general_m_matches_extended_precision_transfer_product():
    # a non-Jacobi m = 2 system: M against the same transfers multiplied
    # in 50-digit arithmetic
    mp = pytest.importorskip("mpmath")
    sysr = htk.random_system(2, (0, 21), seed=7, cls="general_A12zero")
    d = hsys.dirichlet(2)
    zs = np.array([-0.5 + 0.1j, 0.5 + 0.1j, 1.5 + 0.1j, 0.5 + 0.5j, 5 + 0.4j])
    bt = mp.matrix(hp._weighted(d, sysr, 20).tolist())
    batch = hwl.regular_m_evaluator(sysr, 0, 20, d, d)(zs)
    with mp.workdps(50):
        for z, mb in zip(zs, batch):
            hat = mp.matrix(hp.initial_hat(sysr, 0, d).tolist())
            for t in hp._transfers(sysr, np.array([z]), 0, 20)[:, 0]:
                hat = mp.matrix(t.tolist()) * hat
            bh = bt * hat
            ref = -(bh[:, 2:4] ** -1) * bh[:, 0:2]
            ref = np.array(ref.tolist(), dtype=complex)
            ms = hwl.m_regular(sysr, hwl.disk_context(sysr, z, 0, 20, d), d).M
            for M in (ms, mb):
                assert la.opnorm(M - ref) / (1.0 + la.opnorm(ref)) < 1e-12


def test_removable_singularity_at_an_eigenvalue_returns_m():
    # bt Phi^ is singular at this eigenvalue (rcond 1.7e-15 at 1e-10
    # away), but M has no pole there (||M|| stays near 1.1-1.2 as z nears it),
    # and the pole rule returns M instead of NaN
    sysr = htk.random_system(2, (-12, 12), seed=58, cls="general_A12zero")
    al, be = hsys.neumann(2), hsys.dirichlet(2)
    (lam,) = hwl.eigenvalues(sysr, 0, 11, al, be, (-5.4, -5.3))
    ev = hwl.regular_m_evaluator(sysr, 0, 11, al, be)
    for M in ev(lam + np.array([1e-10, 1e-6]) + 0j):
        assert np.all(np.isfinite(M)) and 1.0 < la.opnorm(M) < 2.0


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


@pytest.mark.parametrize("z", [complex(np.nan, 1.0), complex(0.5, np.inf),
                               complex(-np.inf, 0.5)])
def test_non_finite_z_is_an_input_error(z):
    sysj = make_free_jacobi((-10, 10))
    al = hsys.dirichlet(1)
    with pytest.raises(InputError, match="finite z"):
        hwl.disk_context(sysj, z, 0, 5, al)
    with pytest.raises(InputError, match="finite z"):
        hwl.limit_m(sysj, z, 0, al, +1)


# ---------------------------------------------------------------------------
# eigenvalues of the regular problem
# ---------------------------------------------------------------------------

def dense_pencil_eigenvalues(sys_, k0, ell):
    """Finite real eigenvalues of the Dirichlet problem on [k0, ell], k0 < ell,
    as the dense generalized eigenproblem H y = lam W y.

    The unknowns are psi1(k) for k0 < k < ell and psi2(k) for k0 < k <= ell,
    and the rows are (S_rho - B - lam A) at the same components, with
    (S_rho y)_1(k) = rho(k) psi2(k+1) and (S_rho y)_2(k) = rho(k-1) psi1(k-1).
    """
    m = sys_.m
    unknowns = [(1, k) for k in range(k0 + 1, ell)] + \
        [(2, k) for k in range(k0 + 1, ell + 1)]
    at = {u: slice(i * m, (i + 1) * m) for i, u in enumerate(unknowns)}
    half = {1: slice(None, m), 2: slice(m, None)}
    H = np.zeros((len(unknowns) * m,) * 2, dtype=complex)
    W = np.zeros_like(H)
    for c, k in unknowns:
        for d in (1, 2):
            if (d, k) in at:
                H[at[c, k], at[d, k]] -= sys_.B(k)[half[c], half[d]]
                W[at[c, k], at[d, k]] += sys_.A(k)[half[c], half[d]]
        if c == 1:
            H[at[1, k], at[2, k + 1]] += sys_.rho(k)
            H[at[2, k + 1], at[1, k]] += sys_.rho(k)
    w = scipy.linalg.eigvals(H, W)
    w = w[np.isfinite(w)]
    assert np.max(np.abs(w.imag), initial=0.0) < 1e-8
    return np.sort(w.real)


@pytest.mark.parametrize("cls", ("jacobi", "dirac", "general_A12zero"))
def test_eigenvalues_match_dense_pencil(cls):
    for m in (1, 2, 3):
        for ell in (1, 2, 3, 9):
            sysr = htk.random_system(m, (0, ell + 1), seed=10 * m + ell, cls=cls)
            d = hsys.dirichlet(m)
            ref = dense_pencil_eigenvalues(sysr, 0, ell)
            interval = (ref[0] - 0.5, ref[-1] + 0.5) if len(ref) else (-5.0, 5.0)
            found = hwl.eigenvalues(sysr, 0, ell, d, d, interval)
            assert len(found) == len(ref)
            assert np.max(np.abs(found - ref), initial=0.0) < 1e-8


def test_eigenvalues_agree_with_oracle():
    for m, seed in ((1, 201), (2, 202)):
        sysr = htk.random_system(m, (0, 11), seed=seed, cls="jacobi")
        al = be = hsys.dirichlet(m)
        oracle = htk.jacobi_bvp_oracle(htk.RegularBVP(sysr, 0, 11, al, be))
        lo, hi = float(oracle[0]) - 0.5, float(oracle[-1]) + 0.5
        found = hwl.eigenvalues(sysr, 0, 11, al, be, (lo, hi))
        # every oracle value has a nearby candidate and vice versa
        for lam in oracle:
            assert np.min(np.abs(found - lam)) < 1e-8
        for f in found:
            assert np.min(np.abs(oracle - f)) < 1e-8


def test_eigenvalues_resolve_clustered_pairs():
    # ten pairs 1e-6 apart, far below any grid a scan could afford
    sysj = hsys.jacobi_system(lambda k: np.eye(2), lambda k: np.diag([0.0, 1e-6]),
                              (0, 11), m=2)
    d = hsys.dirichlet(2)
    oracle = htk.jacobi_bvp_oracle(htk.RegularBVP(sysj, 0, 11, d, d))
    found = hwl.eigenvalues(sysj, 0, 11, d, d, (-0.5, 4.5))
    assert len(found) == len(oracle) == 20
    assert np.max(np.abs(found - oracle)) < 1e-10


def test_eigenvalues_repeat_by_multiplicity():
    eye2 = np.eye(2)
    sysm = hsys.jacobi_system(lambda k: eye2, lambda k: 0 * eye2, (0, 6), m=2)
    d = hsys.dirichlet(2)
    found = hwl.eigenvalues(sysm, 0, 6, d, d, (-0.5, 4.5))
    scalar = 2 - 2 * np.cos(np.arange(1, 6) * np.pi / 6)
    assert np.array_equal(found[::2], found[1::2])
    assert np.max(np.abs(found - np.repeat(scalar, 2))) < 1e-10


def test_eigenvalues_empty_below_spectrum():
    sysj = make_free_jacobi((0, 11))
    found = hwl.eigenvalues(sysj, 0, 11, hsys.dirichlet(1),
                            hsys.dirichlet(1), (-2.0, -0.1))
    assert len(found) == 0
    assert found.dtype == np.float64 and found.shape == (0,)


def test_detected_eigenvalues_are_m_poles():
    sysj = make_free_jacobi((0, 11))
    al = be = hsys.dirichlet(1)
    found = hwl.eigenvalues(sysj, 0, 11, al, be, (-0.5, 4.5))
    assert len(found) == 10
    for lam in found:
        # the norm of M exceeds 1e6 somewhere within 1e-6 of the eigenvalue
        M = hwl.regular_m_evaluator(sysj, 0, 11, al, be)(complex(lam + 1e-8))
        assert np.all(np.isnan(M)) or la.opnorm(M) > 1e6


def test_eigenvalues_are_m_poles_for_any_end_and_data():
    # bt Phi^ is singular at every eigenvalue: its smallest singular value
    # vanishes linearly, so it shrinks tenfold from 1e-9 to 1e-10 away. The
    # pole rule's smin = (1 + ||M||^2)^(-1/2) does the same at every
    # eigenvalue that is a pole of M (||M|| > 10 at 1e-10 away); at most one
    # per case is not (its eigenvector is all but invisible from k0), and
    # there M is finite
    systems = (make_free_jacobi((-12, 12)),
               htk.random_system(2, (-12, 12), seed=55, cls="jacobi"),
               htk.random_system(2, (-12, 12), seed=58, cls="general_A12zero"))
    for sysr in systems:
        m = sysr.m
        fam = boundary_family(m, 4)
        for al, be in ((hsys.neumann(m), hsys.dirichlet(m)), (fam[1], fam[2])):
            for k0, ell in ((0, 11), (11, 0), (5, -6)):
                found = hwl.eigenvalues(sysr, k0, ell, al, be, (-6.0, 8.0))
                assert len(found) >= 10
                bt = hp._weighted(be, sysr, ell)
                init = hp.initial_hat(sysr, k0, al)

                def smin_bphi(z):
                    hats = hp.propagate_hats(sysr, z, k0, init, ell)
                    return np.linalg.svd(bt @ hats[:, :, m:], compute_uv=False)[:, -1]

                near, far = (smin_bphi(found + d + 0j) for d in (1e-10, 1e-9))
                assert np.all((far > 5 * near) & (far < 20 * near))
                extract = hwl.regular_m_evaluator(sysr, k0, ell, al, be).extract
                (m_near, near, _), (_, far, _) = (extract(found + d + 0j)
                                                  for d in (1e-10, 1e-9))
                pole = near < 0.1
                assert np.count_nonzero(~pole) <= 1
                assert np.all((far[pole] > 5 * near[pole]) & (far[pole] < 20 * near[pole]))
                assert np.all(np.isfinite(m_near[~pole]))


def test_eigenvalues_within_a_count_budget(monkeypatch):
    calls = []
    real = hwl._negative_index

    def counting(data, lam):
        calls.append(len(lam))
        return real(data, lam)

    monkeypatch.setattr(hwl, "_negative_index", counting)
    sysj = make_free_jacobi((0, 11))
    d = hsys.dirichlet(1)
    found = hwl.eigenvalues(sysj, 0, 11, d, d, (-0.5, 4.5))
    assert len(found) == 10
    # the counts at a and b, then at most 27 steps, where bisection from
    # width 5 to 5e-12 takes 40; one point per live bracket per count
    assert len(calls) <= 28
    assert calls[0] == 2 and max(calls[1:]) <= 10


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_eigenvalues_count_through_singular_pivots():
    # lam = 2 - 2 cos(pi / 5) to the last bit is an eigenvalue of leading
    # blocks of the free chain, where a shifted pivot is exactly zero (m = 1)
    # or exactly singular (m = 2, two decoupled chains)
    lam = 0.3819660112501047
    for m in (1, 2):
        sysj = hsys.jacobi_system(np.eye(m), np.zeros((m, m)), (-20, 20), m=m)
        d = hsys.dirichlet(m)
        below = hwl.eigenvalues(sysj, 0, 10, d, d, (-0.5, lam))
        above = hwl.eigenvalues(sysj, 0, 10, d, d, (lam, 4.5))
        scalar = 2 - 2 * np.cos(np.arange(1, 10) * np.pi / 10)
        assert (len(below), len(above)) == (2 * m, 7 * m)
        found = np.concatenate([below, above])
        assert np.max(np.abs(found - np.repeat(scalar, m))) < 1e-10
        _, logdet = hwl._negative_index(hwl._pencil_data(sysj, 0, 10, d, d),
                                        np.array([lam]))
        assert np.isfinite(logdet).all()


def test_eigenvalues_count_in_bounded_chunks(monkeypatch):
    # a stack bound below one lam's pencil splits every count into single lam
    sysj = make_free_jacobi((0, 4))
    d = hsys.dirichlet(1)
    whole = hwl.eigenvalues(sysj, 0, 4, d, d, (-0.5, 4.5))
    monkeypatch.setattr(hwl, "_EIG_STACK", 1)
    assert np.array_equal(hwl.eigenvalues(sysj, 0, 4, d, d, (-0.5, 4.5)), whole)
    assert len(whole) == 3


def test_eigenvalues_input_validation():
    sysj = make_free_jacobi((0, 11))
    d = hsys.dirichlet(1)
    for k0, ell, interval in ((3, 3, (0.0, 1.0)), (0, 11, (1.0, 1.0)),
                              (0, 11, (-np.inf, 1.0))):
        with pytest.raises(InputError):
            hwl.eigenvalues(sysj, k0, ell, d, d, interval)
    nonzero = hsys.make_boundary_data(np.array([[1.0, 1.0j]]))
    with pytest.raises(InputError):
        hwl.eigenvalues(sysj, 0, 11, nonzero, d, (0.0, 1.0))


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
        be = boundary_family(m, 5)[3]
        fam = boundary_family(m, 6)
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
    betas = boundary_family(1, 3)
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
    # diameter and the far-boundary dependence persists; under the 'error'
    # extension the window is all there is, so the chase judges it
    p = lambda k: float((abs(k) + 1) ** 2)
    q = lambda k: -(p(k + 1) + p(k))
    sysg = hsys.jacobi_system(p, q, (0, 420), extension="error")
    al = hsys.dirichlet(1)
    lim = hwl.limit_m(sysg, 1j, 0, al, +1)
    assert lim.classification == "limit_circle"
    assert lim.square_summable_dimension() == 2
    assert lim.diameter_estimate > 1.0
    assert "far boundary" in lim.note
    # a different far boundary lands on a different limiting value
    other = hwl.limit_m(sysg, 1j, 0, al, +1,
                        hwl.LimitOptions(beta=boundary_family(1, 4)[2]))
    assert la.opnorm(other.M_pm - lim.M_pm) > 1e-2


@pytest.mark.parametrize("z", [1j, 0.5 + 0.5j, -1 + 0.2j, 0.5 + 0.05j])
def test_square_summable_dimension_between_m_and_2m(z):
    # the limit-circle chain above next to a free chain: 3 of the 4
    # solutions are square-summable, so one disk radius stays positive
    # while the other collapses; the free block is the free chain's M+
    p = lambda k: np.diag([(abs(k) + 1.0) ** 2, 1.0])
    q = lambda k: np.diag([-((abs(k + 1) + 1.0) ** 2 + (abs(k) + 1.0) ** 2), 0.0])
    sysg = hsys.jacobi_system(p, q, (0, 420), extension="error")
    lim = hwl.limit_m(sysg, z, 0, hsys.dirichlet(2), +1)
    assert lim.classification == "intermediate"
    assert lim.circle_rank == 1
    assert lim.square_summable_dimension() == 3
    assert "far boundary" in lim.note
    v = htk.constant_riccati_fixed_point(make_free_jacobi((0, 420)), z, +1)
    assert abs(lim.M_pm[1, 1] + v[0, 0]) < 1e-12


@pytest.mark.parametrize("n,z", [(260, 1 + 0.02j), (520, 0.5 + 0.01j),
                                 (70, 0.5 + 0.01j), (130, 1.9 + 0.01j)])
def test_no_limit_circle_from_a_window_edge_past_a_doubling_site(n, z):
    # the free chain is limit-point, but near the real axis its disk is
    # still shrinking when the window ends; the edge site, a few sites past
    # the last doubling site, shrinks the disk by less than half, which
    # must not read as a stalled (limit-circle) disk
    sysf = hsys.jacobi_system(1.0, 0.0, (0, n), extension="error")
    lim = hwl.limit_m(sysf, z, 0, hsys.dirichlet(1), +1)
    assert lim.ell_sequence[-1] == n
    assert lim.diameters[-1] >= 0.5 * lim.diameters[-2]
    assert lim.classification == "inconclusive"
    assert lim.square_summable_dimension() is None


def test_no_limit_circle_from_collapsed_forward_columns():
    # on these general m=2 systems F22 at the last site loses definiteness to
    # rounding (an unbounded disk after a small one); the disks nest, so the
    # chase keeps the smaller diameter and never reads a limit circle, and
    # its swept M agrees with the exact half-line M of the constant tail
    al = hsys.dirichlet(2)
    z = 1 + 0.2j
    for seed in (5, 13):
        sysr = htk.random_system(2, (0, 100), seed=seed, cls="general_A12zero")
        for direction in (+1, -1):
            exact = hwl.limit_m(sysr, z, 50, al, direction).M_pm
            sched = [50 + direction * e for e in (8, 16, 32, 50)]
            lim = hwl.limit_m(sysr, z, 50, al, direction,
                              hwl.LimitOptions(ell_schedule=sched))
            assert lim.classification != "limit_circle"
            assert np.all(np.diff(lim.diameters) <= 0)
            assert la.opnorm(lim.M_pm - exact) <= 1e-12 * la.opnorm(exact)


@pytest.mark.parametrize("sched", [[-8, -16, -32, -64, -128],
                                   [128, 64, 32, 16, 8],
                                   [8, 8, 16], [0, 8, 16], [8, 32, 16]])
def test_limit_rejects_a_schedule_off_its_side_or_not_outward(sched, monkeypatch):
    # toward +infinity these schedules read limit_point with the wrong M:
    # M- (-0.44277) for the mirrored one, and the regular M at ell = 8 for
    # the reversed one, with a note that its tiny diameter bounds the error
    sysj = make_free_jacobi((-200, 200), extension="error")
    monkeypatch.setattr(hwl, "_steps", None)  # rejected before any step
    with pytest.raises(InputError, match="strictly increasing offsets"):
        hwl.limit_m(sysj, 1 + 0.2j, 0, hsys.dirichlet(1), +1,
                    hwl.LimitOptions(ell_schedule=sched))


def test_limit_rejects_a_schedule_out_of_reach_before_any_step(monkeypatch):
    sysj = make_free_jacobi((-200, 200), extension="error")
    monkeypatch.setattr(hwl, "_steps", None)
    with pytest.raises(InputError, match="leave the window"):
        hwl.limit_m(sysj, 1 + 0.2j, 0, hsys.dirichlet(1), +1,
                    hwl.LimitOptions(ell_schedule=[8, 16, 300]))


def test_limit_from_beyond_a_periodic_window_rejects_its_default_schedule():
    # k0 past the window's right end: the default schedule toward + is the
    # window edge, which lies on the - side (read as M+ before)
    r = htk.random_system(2, (0, 80), 4, "jacobi")
    sysp = hsys.HamiltonianSystem(2, r.window, r._A, r._B, r._rho,
                                  extension="periodic")
    with pytest.raises(InputError, match=r"\+ side of k0=100"):
        hwl.limit_m(sysp, 1 + 0.2j, 100, hsys.dirichlet(2), +1)
    lim = hwl.limit_m(sysp, 1 + 0.2j, 100, hsys.dirichlet(2), -1)
    assert lim.ell_sequence == [92, 84, 68, 36, 0]


def test_chase_steps_through_its_whole_doubling_block():
    # the pencil's (2,1) block vanishes at z at site 50: the chase converges
    # at ell = 32, but the block [32, 64] is walked as one, so the failing
    # pencil between 32 and 64 raises instead of going unseen
    sysj = make_free_jacobi((0, 200), extension="error")
    z = 1 + 1j
    A, B = sysj._A.copy(), sysj._B.copy()
    A[50] = [[1.0, 0.5], [0.5, 1.0]]
    B[50] = [[0.0, -0.5 * z], [-0.5 * np.conj(z), 0.0]]
    sys_ = hsys.HamiltonianSystem(1, (0, 200), A, B, sysj._rho, extension="error")
    opts = hwl.LimitOptions(ell_schedule=[8, 16, 32, 64, 128], tol=1e-6)
    with pytest.raises(SteppingError) as err:
        hwl.limit_m(sys_, z, 0, hsys.dirichlet(1), +1, opts)
    assert err.value.site == 50
    # without the site the chase converges at 32
    lim = hwl.limit_m(sysj, z, 0, hsys.dirichlet(1), +1, opts)
    assert lim.ell_sequence == [8, 16, 32] and lim.cauchy_gap < 1e-6


@pytest.mark.parametrize("cls", ["jacobi", "dirac", "general_A12zero"])
def test_one_sweep_of_many_sites_equals_a_sweep_per_site_bitwise(cls):
    # members join the inward pass at their own sites and keep their own QR
    # cadence, so each M is that of the evaluator at its site, bit for bit
    for m in (1, 2, 3):
        sysr = htk.random_system(m, (-60, 60), seed=17 + m, cls=cls)
        al, be = hsys.dirichlet(m), boundary_family(m, 3)[1]
        k_inv = np.linalg.inv(hp.initial_hat(sysr, 3, al))
        for z, far in ((0.5 + 0.4j, [57, 41, 40, 22, 13, 4]),
                       (0.3 - 0.7j, [-55, -31, -20, -19, -9, 2])):
            y = hwl._ker_basis(hp._weighted(be, sysr, far))
            M, smin, hit = hwl._sweep_m(sysr, k_inv, far, 3, y, np.array([z]))
            for i, ell in enumerate(far):
                one = hwl.regular_m_evaluator(sysr, 3, ell, al, be).extract(np.array([z]))
                assert np.array_equal(M[i], one[0][0])
                assert smin[i] == one[1][0] and hit[i] == one[2][0]


def test_limit_agrees_with_fixed_point_dirac():
    sysd = hsys.dirac_system(lambda k: 1.0, (-140, 140))
    al = hsys.dirichlet(1)
    z = 0.3 + 0.8j
    for direction in (+1, -1):
        lim = hwl.limit_m(sysd, z, 0, al, direction)
        v = htk.constant_riccati_fixed_point(sysd, z, direction)
        assert lim.classification == "limit_point"
        assert la.opnorm(lim.M_pm + v) < 1e-8


def test_limit_point_by_last_disk_when_cauchy_gap_misses_tol():
    # on [-120, 120] at 1+0.2i the last Cauchy gap is ~3.6e-7 > tol, but the
    # last disk (diameter ~4e-12) pins M to far below tol; the 'error'
    # extension has no constant tail, so the chase runs
    sysj = make_free_jacobi((-120, 120), extension="error")
    al = hsys.dirichlet(1)
    expect = {+1: ("-0x1.1d4d5912507a0p-1", "0x1.8c1cae3c6c49cp-1"),
              -1: ("-0x1.c5654ddb5f0bep-2", "-0x1.f28314a2d2b02p-1")}
    # the same M read from forward hats, before the chase swept it inward
    forward = {+1: ("-0x1.1d4d5912507a1p-1", "0x1.8c1cae3c6c49cp-1"),
               -1: ("-0x1.c5654ddb5f0c5p-2", "-0x1.f28314a2d2b00p-1")}
    for direction in (+1, -1):
        lim = hwl.limit_m(sysj, 1 + 0.2j, 0, al, direction)
        assert lim.cauchy_gap > 1e-9
        assert lim.diameter_estimate < 1e-9
        assert lim.classification == "limit_point"
        assert "Cauchy criterion not met" in lim.note
        # the classification does not touch the chase: M keeps its pinned
        # bytes, which are those of the regular M at the last site and of an
        # unreachable-tol run
        M = lim.M_pm[0, 0]
        assert (M.real.hex(), M.imag.hex()) == expect[direction]
        ev = hwl.regular_m_evaluator(sysj, 0, 120 * direction, al,
                                     hsys.dirichlet(1))
        assert np.array_equal(lim.M_pm, ev(1 + 0.2j))
        old = complex(*(float.fromhex(h) for h in forward[direction]))
        assert abs(M - old) <= 1e-15 * (1 + abs(M))
        short = hwl.limit_m(sysj, 1 + 0.2j, 0, al, direction,
                            hwl.LimitOptions(tol=1e-30))
        assert short.classification == "inconclusive"
        assert short.M_pm.tobytes() == lim.M_pm.tobytes()


def test_limit_inconclusive_when_window_short():
    # the 'error' extension has no constant tail, so the chase runs
    sysj = make_free_jacobi((0, 30), extension="error")
    al = hsys.dirichlet(1)
    opts = hwl.LimitOptions(tol=1e-30)  # unreachable Cauchy tolerance
    lim = hwl.limit_m(sysj, 1j, 0, al, +1, opts)
    assert lim.classification == "inconclusive"
    assert lim.note


CONST_M2 = (np.array([[1.0, 0.25j], [-0.25j, 0.8]]),
            np.array([[0.3, 0.1], [0.1, -0.2]]))


@pytest.mark.parametrize("z", [0.3 + 0.05j, 0.3 + 0.01j])
def test_limit_exact_from_constant_tail_near_band(z):
    # near the band the doubling chase on [-120, 120] stops 1e-5 to 1e-1
    # off; the tail's decaying subspace gives M+- to rounding
    p, q = CONST_M2
    for sys_ in (make_free_jacobi((-120, 120)),
                 hsys.jacobi_system(lambda k: p, lambda k: q, (-120, 120))):
        al = hsys.dirichlet(sys_.m)
        for direction in (+1, -1):
            lim = hwl.limit_m(sys_, z, 0, al, direction)
            v = htk.constant_riccati_fixed_point(sys_, z, direction)
            assert lim.classification == "limit_point"
            assert lim.ell_sequence == [120 * direction]
            assert lim.cauchy_gap == lim.diameter_estimate == 0.0
            assert la.opnorm(lim.M_pm + v) < 1e-12


@pytest.mark.parametrize("seed", [5, 13])
def test_limit_exact_matches_padded_sweep(seed):
    # the chase read limit_circle here; the tail splits 2/2, so M+- is a
    # limit point, and the regular M 1500 constant sites past the edge
    # agrees with it
    sysr = htk.random_system(2, (0, 100), seed, "general_A12zero")
    al = hsys.dirichlet(2)
    z = 1 + 0.2j
    for direction, ell in ((+1, 1600), (-1, -1500)):
        lim = hwl.limit_m(sysr, z, 50, al, direction)
        ref = hwl.regular_m_evaluator(sysr, 50, ell, al, al)(z)
        assert lim.classification == "limit_point"
        assert la.opnorm(lim.M_pm - ref) < 1e-12 * (1 + la.opnorm(ref))


def test_limit_exact_at_window_edge():
    # k0 = k_min looking outward has no schedule site, only the tail
    p, q = CONST_M2
    sys_ = hsys.jacobi_system(lambda k: p, lambda k: q, (-120, 120))
    z = 0.3 + 0.05j
    lim = hwl.limit_m(sys_, z, -120, hsys.dirichlet(2), -1)
    assert lim.ell_sequence == [-120]
    assert la.opnorm(lim.M_pm + htk.constant_riccati_fixed_point(sys_, z, -1)) < 1e-12


def test_limit_tail_without_split_raises():
    # A = 0: the transfer does not depend on z, and its multipliers
    # exp(+-i pi/3) lie on the unit circle
    sys_ = hsys.HamiltonianSystem(1, (-30, 30), A=np.zeros((2, 2)),
                                  B=[[1, 1], [1, 1]], rho=1)
    with pytest.raises(InputError, match="m/m split"):
        hwl.limit_m(sys_, 0.5 + 0.5j, 0, hsys.dirichlet(1), +1)


def test_diameter_decreases_along_ell():
    sysj = make_free_jacobi((0, 160))
    al = hsys.dirichlet(1)
    d10 = hwl.disk_diameter_estimate(sysj, hwl.disk_context(sysj, 1j, 0, 10, al))
    d100 = hwl.disk_diameter_estimate(sysj, hwl.disk_context(sysj, 1j, 0, 100, al))
    assert d100 < d10 / 10


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
        pts.append(hwl.m_regular(sysj, ctx, bd).M[0, 0])
    pts = np.array(pts)
    brute = np.max(np.abs(pts[:, None] - pts[None, :]))
    closed = hwl.disk_diameter_estimate(sysj, ctx, fund=fund)
    assert brute <= closed <= brute * (1 + 1e-6)


def _schur_diameter(sys_, z, k0, ell, al):
    """2 ||R_l|| ||R_r|| from one F = sigma herm(-i Psi^* J_rho Psi^) at ell,
    with R_r^2 the Schur complement F12 F22^-1 F21 - F11 (accurate only
    while the disk is not small against the rounding of F)."""
    m = sys_.m
    hat = hp.fundamental(sys_, z, k0, al, (min(k0, ell), max(k0, ell))).hat(ell)
    f = la.herm(-1j * hwl.sigma_of(ell, k0, z)
                * (hat.conj().T @ sys_.j_rho(ell) @ hat))
    f11, f12, f21, f22 = f[:m, :m], f[:m, m:], f[m:, :m], f[m:, m:]
    rr = la.max_eig_herm(f12 @ np.linalg.solve(f22, f21) - f11)
    return 2.0 * np.sqrt(rr / la.min_eig_herm(f22)) if rr > 0 else -1.0


@pytest.mark.parametrize("cls", ["jacobi", "dirac", "general_A12zero"])
def test_diameter_equals_schur_complement_form(cls):
    for m in (1, 2):
        sysr = htk.random_system(m, (-12, 12), seed=41 + m, cls=cls)
        al = hsys.dirichlet(m)
        for z in (0.5 + 0.5j, 0.3 - 0.7j):
            for ell in (3, -4):
                ctx = hwl.disk_context(sysr, z, 0, ell, al)
                closed = hwl.disk_diameter_estimate(sysr, ctx)
                ref = _schur_diameter(sysr, z, 0, ell, al)
                assert abs(closed - ref) <= 1e-8 * ref


def test_diameter_nonincreasing_where_schur_form_breaks_down():
    sysr = htk.random_system(2, (0, 40), seed=1, cls="general_A12zero")
    al = hsys.dirichlet(2)
    z = 0.5 + 0.4j
    ells = range(2, 41, 2)
    closed = np.array([hwl.disk_diameter_estimate(
        sysr, hwl.disk_context(sysr, z, 0, ell, al)) for ell in ells])
    assert np.all(np.isfinite(closed)) and np.all(closed > 0)
    assert np.all(np.diff(closed) <= 0)
    # the cancelling Schur complement has lost every digit by ell = 40
    schur = np.array([_schur_diameter(sysr, z, 0, ell, al) for ell in ells])
    assert np.any(np.abs(schur - closed) > 1e3 * closed)


def test_limit_m_matches_unscaled_chase_bitwise():
    sysr = htk.random_system(2, (-70, 70), seed=5, cls="jacobi")
    al = hsys.dirichlet(2)
    beta = hsys.dirichlet(2)
    for z, direction in ((0.5 + 0.5j, +1), (0.2 - 0.3j, -1)):
        opts = hwl.LimitOptions(ell_schedule=[direction * e
                                              for e in (8, 19, 40, 70)],
                                tol=1e-30)
        lim = hwl.limit_m(sysr, z, 0, al, direction, opts)
        # the chase's M at each site is the regular M evaluator's, bit for bit
        gaps, prev = [], None
        for ell in lim.ell_sequence:
            M = hwl.regular_m_evaluator(sysr, 0, ell, al, beta)(z)
            if prev is not None:
                gaps.append(la.opnorm(M - prev) / (1.0 + la.opnorm(M)))
            prev = M
        assert lim.ell_sequence == opts.ell_schedule
        assert lim.gaps == gaps
        sigma = direction if z.imag > 0 else -direction
        w, v = np.linalg.eigh(sigma * la.imag_part(M))
        proj = la.real_part(M) + 1j * sigma * la.herm(
            (v * np.clip(w, 0.0, None)) @ v.conj().T)
        assert np.array_equal(lim.M_pm, proj)


def test_limit_and_diameter_finite_past_1e300():
    # unscaled fundamental columns pass 1e300 at ell = 441 and overflow
    # after ell = 453 on this chain
    sysj = make_free_jacobi((-10, 500))
    al = hsys.dirichlet(1)
    z = -3.0 + 0.1j
    fund = hp.fundamental(sysj, z, 0, al, (0, 450))
    assert 1e300 < np.max(np.abs(fund.hat(450))) < np.inf
    ctx = hwl.disk_context(sysj, z, 0, 450, al)
    d450 = hwl.disk_diameter_estimate(sysj, ctx, fund=fund)
    d20 = hwl.disk_diameter_estimate(sysj, hwl.disk_context(sysj, z, 0, 20, al))
    assert np.isfinite(d450) and 0.0 <= d450 < d20
    lim = hwl.limit_m(sysj, z, 0, al, +1,
                      hwl.LimitOptions(ell_schedule=[20, 100, 300, 500],
                                       tol=1e-30))
    assert lim.ell_sequence == [20, 100, 300, 500]
    assert la.all_finite(lim.M_pm) and np.all(np.isfinite(lim.diameters))
    v = htk.constant_riccati_fixed_point(sysj, z, +1)
    assert la.opnorm(lim.M_pm + v) < 1e-8


def test_nesting_monotone_disk_functional():
    sysr = htk.random_system(2, (0, 20), seed=23, cls="jacobi")
    al = hsys.dirichlet(2)
    z = 0.4 + 0.7j
    ctx_far = hwl.disk_context(sysr, z, 0, 14, al)
    fund = hp.fundamental(sysr, z, 0, al, (0, 14))
    for bd in boundary_family(2, 4):
        m_far = hwl.m_regular(sysr, ctx_far, bd, fund=fund).M
        for ell1 in (6, 10):
            ctx1 = hwl.disk_context(sysr, z, 0, ell1, al)
            e1 = hwl.e_functional(sysr, ctx1, m_far, fund=fund)
            assert la.max_eig_herm(e1) <= 1e-9 * (1 + la.opnorm(e1))


# ---------------------------------------------------------------------------
# Herglotz structure
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("direction,side", [(+1, 1), ("+", 1), ("plus", 1),
                                            (-1, -1), ("-", -1), ("minus", -1)])
def test_limit_direction_names(direction, side):
    sysj = make_free_jacobi((-40, 40))
    assert hwl.limit_m(sysj, 0.5 + 0.5j, 0, hsys.dirichlet(1), direction).direction == side


@pytest.mark.parametrize("direction", [0, 2, "up", None])
def test_limit_direction_other_values_raise(direction):
    # any of these used to mean the minus half line
    sysj = make_free_jacobi((-40, 40))
    al = hsys.dirichlet(1)
    with pytest.raises(InputError, match="direction"):
        hwl.limit_m(sysj, 0.5 + 0.5j, 0, al, direction)
    if direction is not None:
        with pytest.raises(InputError, match="direction"):
            hwl.herglotz_check(sysj, [0.5 + 0.5j], 0, al, direction=direction)


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


@pytest.mark.parametrize("interval,grid_n", [((0.0, np.inf), 4), ((-np.inf, 1.0), 4),
                                             ((0.0, 1.0), 0), ((0.0, 1.0), -1)])
def test_measure_input_is_checked_before_any_quadrature(interval, grid_n):
    # an infinite interval made every Simpson segment NaN, so none was ever
    # accepted and the open segments doubled each level until memory ran out
    def evaluator(nu):
        raise AssertionError("the quadrature ran")

    with pytest.raises(InputError):
        hwl.spectral_measure(evaluator, interval, grid_n, [1e-5])


def test_measure_increments_psd_and_additive():
    m_eval = free_half_line_m_plus()
    sm1 = hwl.spectral_measure(m_eval, (0.5, 3.5), 30, [1e-5])
    sm2 = hwl.spectral_measure(m_eval, (0.5, 3.5), 60, [1e-5])
    merged = sm2.increments.reshape(30, 2, 1, 1).sum(axis=1)
    assert np.max(np.abs(merged - sm1.increments)) < 1e-6
    for inc in sm1.increments:
        assert la.min_eig_herm(inc) >= -1e-12


def dense_point_masses(sys, k0, ell):
    """Dirichlet eigenvalues lam_j and point masses W_j = a* v_j(1) v_j(1)* a
    (a = a(k0)) of the interior three-term matrix of a Jacobi system."""
    m, jc = sys.m, sys.jacobi
    n = ell - k0 - 1
    h = np.zeros((n * m, n * m), dtype=complex)
    for j, k in enumerate(range(k0 + 1, ell)):
        h[j * m:(j + 1) * m, j * m:(j + 1) * m] = jc.b(k)
        if j + 1 < n:
            h[j * m:(j + 1) * m, (j + 1) * m:(j + 2) * m] = jc.a(k)
            h[(j + 1) * m:(j + 2) * m, j * m:(j + 1) * m] = jc.a(k).conj().T
    lam, vecs = np.linalg.eigh(h)
    top = jc.a(k0).conj().T @ vecs[:m]
    return lam, np.einsum("ij,kj->jik", top, top.conj())


def smoothed_bin_masses(lam, weights, edges, eps):
    """Exact bin integrals of (1/pi) Im sum_j W_j / (lam_j - nu - i eps):
    (1/pi) sum_j W_j [atan((b - lam_j)/eps) - atan((a - lam_j)/eps)]."""
    at = np.arctan((edges[:, None] - lam[None, :]) / eps) / np.pi
    return np.einsum("bj,jik->bik", at[1:] - at[:-1], weights)


@pytest.mark.parametrize("m,ell,interval,grid_n", [(1, 6, (-0.5, 4.5), 7),
                                                  (2, 5, (-0.4, 6.0), 9)])
def test_measure_matches_exact_bin_integrals(m, ell, interval, grid_n):
    sysr = make_free_jacobi((0, 10)) if m == 1 else htk.random_system(
        m, (0, 10), seed=5, cls="jacobi")
    lam, weights = dense_point_masses(sysr, 0, ell)
    D = hsys.dirichlet(sysr.m)
    eps = 1e-4
    sm = hwl.spectral_measure(hwl.regular_m_evaluator(sysr, 0, ell, D, D),
                              interval, grid_n, [eps])
    exact = smoothed_bin_masses(lam, weights, sm.grid + 0.5 * eps, eps)
    assert np.max(np.abs(sm.increments - exact)) < 1e-8


def test_measure_points_for_one_pole():
    lam, w, eps = 0.3141, 0.7, 5e-5
    points = []

    def ev(z):
        points.append(np.size(z))
        return (w / (lam - np.asarray(z, dtype=complex)))[..., None, None]

    sm = hwl.spectral_measure(ev, (0.0, 1.0), 4, [eps])
    assert sum(points) <= 2000
    exact = smoothed_bin_masses(np.array([lam]), np.array([[[w]]]),
                                sm.grid + 0.5 * eps, eps)
    assert np.max(np.abs(sm.increments - exact)) < 1e-8


@pytest.mark.filterwarnings("ignore:spectral measure schedule not converged")
def test_measure_integrates_only_the_last_two_eps():
    sysj = make_free_jacobi((0, 20))
    D = hsys.dirichlet(1)
    ev = hwl.regular_m_evaluator(sysj, 0, 8, D, D)

    def run(schedule):
        points = []

        def counted(z):
            points.append(np.size(z))
            return ev(z)

        return hwl.spectral_measure(counted, (-1.0, 5.0), 40, schedule), sum(points)

    full, n_full = run([1e-4, 1e-5, 1e-6])
    last, n_last = run([1e-5, 1e-6])
    assert n_full == n_last
    assert full.epsilon_schedule == (1e-4, 1e-5, 1e-6)
    for f in ("increments", "increments_richardson"):
        assert np.array_equal(getattr(full, f), getattr(last, f))
    assert full.convergence_gap == last.convergence_gap
    assert full.converged == last.converged
    # the entries that are not integrated are still validated
    for bad in ([1e-6, 1e-5, 1e-6], [-1e-4, 1e-5, 1e-6]):
        with pytest.raises(InputError):
            hwl.spectral_measure(ev, (-1.0, 5.0), 40, bad)


def test_simpson_bins_integrate_a_cubic_in_the_first_level():
    calls = []
    coef = np.array([[1.0, -2.0 + 1j], [-2.0 - 1j, 0.5]])

    def f(nu):
        calls.append(nu.size)
        return (nu ** 3 - 3.0 * nu + 2.0)[:, None, None] * coef

    edges = np.array([-1.0, -0.2, 0.5, 2.0])
    # the floor and depth cap only bound the work of a rule that misses
    out = hwl._adaptive_bin_integrals(f, edges, 1e-14, width_floor=1e-3,
                                      quad_rel=0.0, max_depth=4)
    prim = edges ** 4 / 4.0 - 1.5 * edges ** 2 + 2.0 * edges
    exact = np.diff(prim)[:, None, None] * coef
    assert calls == [2 * 3 + 1, 2 * 3]
    assert np.max(np.abs(out - exact)) <= 1e-14


def test_fit_herglotz_tail_parts():
    # free half line: no linear term, affine part tends to -1 at infinity
    c1, c2 = hwl.fit_herglotz_parts(free_half_line_m_plus())
    assert la.opnorm(c2) < 1e-6
    assert abs(c1[0, 0].real + 1.0) < 1e-3


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


def test_riccati_from_solution_past_the_float_range():
    # the Weyl solution of [0, 600] at this z leaves the float range at
    # site 454; the sites before it keep the V of a trajectory that stops
    # short of it
    sysj = make_free_jacobi((-10, 3000))
    al = hsys.dirichlet(1)
    z = -3.0 + 0.1j
    M = hwl.m_regular(sysj, hwl.disk_context(sysj, z, 0, 600, al), al).M
    with np.errstate(over="ignore", invalid="ignore"):
        u = hp.weyl_solution(hp.fundamental(sysj, z, 0, al, (0, 600)), M)
    rep = hwl.riccati_from_solution(sysj, u)
    short = hwl.riccati_from_solution(
        sysj, hp.weyl_solution(hp.fundamental(sysj, z, 0, al, (0, 440)), M))
    finite = np.isfinite(u.data).all(axis=(1, 2))
    bad = [k for k, f in zip(u.sites, finite) if not f]
    assert bad and set(bad) <= set(rep.errors)
    assert all("not finite" in rep.errors[k] for k in bad)
    assert not set(rep.V) & set(bad)
    for k in short.V:
        assert np.array_equal(rep.V[k], short.V[k])


def test_riccati_from_solution_rejects_a_fundamental_system():
    # a fundamental system has 2m columns, so u1(k) is not square
    sysj = make_free_jacobi((-10, 60))
    fund = hp.fundamental(sysj, 1j, 0, hsys.dirichlet(1), (-5, 9))
    with pytest.raises(InputError, match="m columns"):
        hwl.riccati_from_solution(sysj, fund)


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
