import numpy as np
import pytest

from hamweyl import _linalg as la
from hamweyl import propagate as hp
from hamweyl import system as hsys
from hamweyl import testkit as htk
from hamweyl import weyl as hwl
from hamweyl.errors import InputError, UnsupportedError

from conftest import make_free_jacobi


# ---------------------------------------------------------------------------
# dense oracle
# ---------------------------------------------------------------------------

def test_bvp_oracle_free_chain_closed_form():
    for n in (1, 5, 10):
        sysj = make_free_jacobi((0, n + 1))
        bvp = htk.RegularBVP(sysj, 0, n + 1, hsys.dirichlet(1), hsys.dirichlet(1))
        eigs = htk.jacobi_bvp_oracle(bvp)
        expect = np.sort(2 - 2 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1)))
        assert np.max(np.abs(eigs - expect)) < 1e-12


def test_bvp_oracle_single_interior_site():
    sysj = hsys.jacobi_system(lambda k: 1.0, lambda k: 0.5 if k == 1 else 0.0,
                              (0, 2))
    bvp = htk.RegularBVP(sysj, 0, 2, hsys.dirichlet(1), hsys.dirichlet(1))
    eigs = htk.jacobi_bvp_oracle(bvp)
    assert len(eigs) == 1
    assert abs(eigs[0] - 2.5) < 1e-13  # b(1) = p(2) + p(1) + q(1)


def test_bvp_oracle_block_multiplicity():
    eye2 = np.eye(2)
    sysm = hsys.jacobi_system(lambda k: eye2, lambda k: 0 * eye2, (0, 6), m=2)
    bvp = htk.RegularBVP(sysm, 0, 6, hsys.dirichlet(2), hsys.dirichlet(2))
    eigs = htk.jacobi_bvp_oracle(bvp)
    scalar = np.sort(2 - 2 * np.cos(np.arange(1, 6) * np.pi / 6))
    assert np.max(np.abs(eigs - np.sort(np.repeat(scalar, 2)))) < 1e-12


def test_bvp_oracle_rejects_unsupported():
    sysj = make_free_jacobi((0, 5))
    with pytest.raises(UnsupportedError):
        htk.jacobi_bvp_oracle(htk.RegularBVP(sysj, 0, 5, hsys.neumann(1),
                                             hsys.dirichlet(1)))
    sysd = hsys.dirac_system(lambda k: 1.0, (0, 5))
    with pytest.raises(UnsupportedError):
        htk.jacobi_bvp_oracle(htk.RegularBVP(sysd, 0, 5, hsys.dirichlet(1),
                                             hsys.dirichlet(1)))


# ---------------------------------------------------------------------------
# scan route
# ---------------------------------------------------------------------------

def test_eig_scan_agrees_with_oracle():
    for m, seed in ((1, 201), (2, 202)):
        sysr = htk.random_system(m, (0, 11), seed=seed, cls="jacobi")
        al = be = hsys.dirichlet(m)
        oracle = htk.jacobi_bvp_oracle(htk.RegularBVP(sysr, 0, 11, al, be))
        lo, hi = float(oracle[0]) - 0.5, float(oracle[-1]) + 0.5
        found = htk.eig_via_detPhi(sysr, 0, 11, al, be, (lo, hi), grid_n=1601)
        # every oracle value has a nearby candidate and vice versa
        for lam in oracle:
            assert np.min(np.abs(found - lam)) < 1e-8
        for f in found:
            assert np.min(np.abs(oracle - f)) < 1e-8


def test_eig_scan_empty_below_spectrum():
    sysj = make_free_jacobi((0, 11))
    found = htk.eig_via_detPhi(sysj, 0, 11, hsys.dirichlet(1),
                               hsys.dirichlet(1), (-2.0, -0.1), grid_n=301)
    assert len(found) == 0
    assert found.dtype == np.float64 and found.shape == (0,)


def _scalar_section_roots(sys_, k0, ell, al, be, interval, grid_n,
                          accept_tol=1e-8, drop_tol=1e-5):
    """The scan refined by one scalar golden section per bracket."""
    extract = hwl.regular_m_evaluator(sys_, k0, ell, al, be).extract
    f = lambda x: float(extract([x])[1][0])  # noqa: E731
    grid = np.linspace(interval[0], interval[1], grid_n)
    s = extract(grid)[1]
    scale = max(1.0, float(np.median(s)))
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    roots = []
    for i in range(1, grid_n - 1):
        if not (s[i] < s[i - 1] and s[i] <= s[i + 1]):
            continue
        a, b = grid[i - 1], grid[i + 1]
        c, d = b - invphi * (b - a), a + invphi * (b - a)
        fc, fd = f(c), f(d)
        while (b - a) > 1e-10:
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - invphi * (b - a)
                fc = f(c)
            else:
                a, c, fc = c, d, fd
                d = a + invphi * (b - a)
                fd = f(d)
        z = 0.5 * (a + b)
        if f(z) < max(accept_tol * scale, drop_tol * max(s[i - 1], s[i + 1], 1e-300)):
            roots.append(z)
    out = []
    for r in sorted(roots):
        if not out or abs(r - out[-1]) > 1e-9 * max(1.0, abs(r)):
            out.append(r)
    return np.array(out, dtype=float)


def test_eig_scan_matches_scalar_section_bit_for_bit():
    free = make_free_jacobi((0, 11))
    jac = htk.random_system(2, (0, 11), seed=202, cls="jacobi")
    gen = htk.random_system(2, (0, 9), seed=301, cls="general_A12zero")
    cases = ((free, 11, (-0.5, 4.5), 1201), (jac, 11, (-4.0, 6.0), 801),
             (gen, 9, (-4.0, 6.0), 401),
             # exactly one bracket: the lowest free-chain eigenvalue only
             (free, 11, (0.0, 0.3), 101))
    for sys_, ell, interval, grid_n in cases:
        d = hsys.dirichlet(sys_.m)
        found = htk.eig_via_detPhi(sys_, 0, ell, d, d, interval, grid_n=grid_n)
        ref = _scalar_section_roots(sys_, 0, ell, d, d, interval, grid_n)
        assert len(ref) >= 1
        assert found.dtype == np.float64
        assert np.array_equal(found, ref)
    assert len(found) == 1


def test_eig_refinement_batches_every_bracket(monkeypatch):
    calls = []
    real = hwl.propagate_hats

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(hwl, "propagate_hats", counting)
    sysj = make_free_jacobi((0, 11))
    grid_n, interval = 1201, (-0.5, 4.5)
    found = htk.eig_via_detPhi(sysj, 0, 11, hsys.dirichlet(1),
                               hsys.dirichlet(1), interval, grid_n=grid_n)
    assert len(found) == 10
    h = (interval[1] - interval[0]) / (grid_n - 1)
    iterations = int(np.ceil(np.log(2 * h / 1e-10) / np.log((1 + np.sqrt(5.0)) / 2)))
    # the grid, the first (c, d) pair, one call per iteration, and s_hat
    assert len(calls) <= 1 + 1 + iterations + 1


def test_eig_scan_count_mismatch_warns():
    eye2 = np.eye(2)
    sysm = hsys.jacobi_system(lambda k: eye2, lambda k: 0 * eye2, (0, 6), m=2)
    oracle = htk.jacobi_bvp_oracle(
        htk.RegularBVP(sysm, 0, 6, hsys.dirichlet(2), hsys.dirichlet(2)))
    with pytest.warns(RuntimeWarning, match="coarse"):
        # doubly degenerate eigenvalues collapse to single candidates
        htk.eig_via_detPhi(sysm, 0, 6, hsys.dirichlet(2), hsys.dirichlet(2),
                           (-0.5, 4.5), grid_n=801, expected_count=len(oracle))


def test_detected_eigenvalues_are_m_poles():
    sysj = make_free_jacobi((0, 11))
    al = be = hsys.dirichlet(1)
    found = htk.eig_via_detPhi(sysj, 0, 11, al, be, (-0.5, 4.5), grid_n=1201)
    assert len(found) == 10
    for lam in found:
        # the norm of M exceeds 1e6 somewhere within 1e-6 of the eigenvalue
        fund = hp.fundamental(sysj, complex(lam + 1e-8), 0, al, (0, 11))
        M, smin, _ = hwl.m_from_hat(sysj, fund.hat(11), 11, be)
        assert M is None or la.opnorm(M) > 1e6


# ---------------------------------------------------------------------------
# constant-coefficient fixed point
# ---------------------------------------------------------------------------

def test_fixed_point_free_jacobi_quadratic():
    sysj = make_free_jacobi((0, 10))
    for z in (1j, 0.5 + 0.25j, -1.0 + 2.0j):
        v = htk.constant_riccati_fixed_point(sysj, z, +1)[0, 0]
        assert abs(v * v - z * v + z) < 1e-12
        assert (np.sign(z.imag) * v.imag) < 0
        vm = htk.constant_riccati_fixed_point(sysj, z, -1)[0, 0]
        assert abs(vm * vm - z * vm + z) < 1e-12
        assert (np.sign(z.imag) * vm.imag) > 0


def test_fixed_point_dirac_scalar():
    sysd = hsys.dirac_system(lambda k: 1.0, (0, 10))
    z = 0.3 + 0.8j
    v = htk.constant_riccati_fixed_point(sysd, z, +1)[0, 0]
    # fixed point of V = z + (1/V - z)^{-1}
    assert abs(v - (z + 1.0 / (1.0 / v - z))) < 1e-12


def test_fixed_point_has_zero_riccati_residual():
    sysj = make_free_jacobi((0, 10))
    z = 1j
    v = htk.constant_riccati_fixed_point(sysj, z, +1)
    rep = hwl.riccati_residual(sysj, z, {k: v for k in range(0, 6)})
    assert rep.max_norm < 1e-12


def test_fixed_point_matrix_case_consistency():
    rng = np.random.default_rng(404)
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = g + 3.0 * np.eye(2)  # well-conditioned constant coefficient
    sysd = hsys.dirac_system(lambda k: b, (0, 4), m=2)
    z = 0.4 + 0.9j
    v = htk.constant_riccati_fixed_point(sysd, z, +1)
    rep = hwl.riccati_residual(sysd, z, {0: v, 1: v})
    assert rep.max_norm < 1e-11
    assert la.max_eig_herm(la.imag_part(v)) < 0  # sigma = +1 branch


def test_fixed_point_input_validation():
    sysj = make_free_jacobi((0, 5))
    with pytest.raises(InputError):
        htk.constant_riccati_fixed_point(sysj, 1.5 + 0.0j, +1)
    varying = hsys.jacobi_system(lambda k: 1.0, lambda k: float(k), (0, 5))
    with pytest.raises(InputError):
        htk.constant_riccati_fixed_point(varying, 1j, +1)


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------

def test_random_system_classes_validate():
    for cls in ("jacobi", "dirac", "general_A12zero"):
        sysr = htk.random_system(2, (0, 6), seed=7, cls=cls)
        assert hsys.validate_pointwise(sysr).passed
        for z in hsys.DEFAULT_Z_SAMPLE:
            assert hsys.check_wellposed(sysr, z).passed
            assert hsys.check_definiteness(sysr, z, (0, 2)).definite


def test_random_system_deterministic():
    a = htk.random_system(3, (0, 5), seed=11, cls="general_A12zero")
    b = htk.random_system(3, (0, 5), seed=11, cls="general_A12zero")
    for k in a.sites:
        assert np.array_equal(a.A(k), b.A(k))
        assert np.array_equal(a.B(k), b.B(k))
        assert np.array_equal(a.rho(k), b.rho(k))
    c = htk.random_system(3, (0, 5), seed=12, cls="general_A12zero")
    assert not np.allclose(a.B(0), c.B(0))


def test_random_system_a12_vanishes():
    sysr = htk.random_system(3, (0, 5), seed=13, cls="general_A12zero")
    m = sysr.m
    for k in sysr.sites:
        assert np.allclose(sysr.A(k)[:m, m:], 0)
        assert la.rcond(sysr.B(k)[:m, m:]) > 1e-3
