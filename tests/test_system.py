import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamweyl import _linalg as la
from hamweyl import system as hsys
from hamweyl import testkit as htk
from hamweyl.errors import DomainError, HamweylError, InputError

from conftest import make_free_jacobi


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def test_jacobi_free_case_blocks():
    sys1 = make_free_jacobi((0, 5))
    assert np.allclose(sys1.B(0), np.array([[0.0, 1.0], [1.0, 1.0]]))
    assert np.allclose(sys1.A(0), np.diag([1.0, 0.0]))
    assert np.allclose(sys1.rho(0), np.eye(1))
    assert np.allclose(sys1.jacobi.a(0), [[-1.0]])
    assert np.allclose(sys1.jacobi.b(0), [[2.0]])


def test_jacobi_block_identity_case():
    eye2 = np.eye(2)
    sysm = hsys.jacobi_system(lambda k: eye2, lambda k: 0 * eye2, (0, 4), m=2)
    B = sysm.B(1)
    assert np.allclose(B[:2, :2], 0)
    assert np.allclose(B[:2, 2:], eye2)
    assert np.allclose(B[2:, 2:], eye2)
    assert np.allclose(sysm.jacobi.a(1), -eye2)
    assert np.allclose(sysm.jacobi.b(1), 2 * eye2)


def test_jacobi_site_dependent_potential():
    sys1 = hsys.jacobi_system(lambda k: 1.0, lambda k: 1.0 if k == 0 else 0.0,
                              (-3, 3))
    assert np.allclose(sys1.B(0), np.array([[-1.0, 1.0], [1.0, 1.0]]))
    assert np.allclose(sys1.B(2), np.array([[0.0, 1.0], [1.0, 1.0]]))


def test_jacobi_rejects_singular_p():
    with pytest.raises(InputError):
        hsys.jacobi_system(lambda k: 0.0, lambda k: 0.0, (0, 2))


def test_jacobi_reports_the_first_failing_site():
    # sites are checked in order and, within a site, p Hermitian, then p
    # invertible, then q Hermitian: the first failing site names the error
    eye = np.eye(2, dtype=complex)
    skew = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    p = np.stack([eye] * 6)
    q = np.zeros((6, 2, 2), dtype=complex)
    p[4] = eye + skew
    q[2] = skew
    with pytest.raises(InputError, match="^q at site 12 is not Hermitian$"):
        hsys.jacobi_system(p, q, (10, 15), m=2)
    p[2] = 0.0
    with pytest.raises(InputError, match="^p at site 12 is singular$"):
        hsys.jacobi_system(p, q, (10, 15), m=2)
    p[2] = eye + skew
    with pytest.raises(InputError, match="^p at site 12 is not Hermitian$"):
        hsys.jacobi_system(p, q, (10, 15), m=2)
    q[1] = np.nan
    with pytest.raises(InputError, match="non-finite"):
        hsys.jacobi_system(p, q, (10, 15), m=2)


def test_dirac_reports_the_first_singular_site():
    b = np.stack([np.eye(2, dtype=complex)] * 5)
    b[3] = 0.0
    b[1] = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(InputError, match="^b at site -1 is singular$"):
        hsys.dirac_system(b, (-2, 2), m=2)
    b[4] = np.inf
    with pytest.raises(InputError, match="non-finite"):
        hsys.dirac_system(b, (-2, 2), m=2)


def test_dirac_blocks():
    sysd = hsys.dirac_system(lambda k: 1.0, (0, 3))
    assert np.allclose(sysd.B(0), np.array([[0, 1], [1, 0]]))
    assert np.allclose(sysd.A(0), np.eye(2))
    sysd2 = hsys.dirac_system(lambda k: 2.0, (0, 3))
    assert np.allclose(sysd2.B(1), np.array([[0, 2], [2, 0]]))
    b = np.array([[1.0, 1.0], [0.0, 1.0]])
    sysd3 = hsys.dirac_system(lambda k: b, (0, 3), m=2)
    assert np.allclose(sysd3.B(0)[:2, 2:], b)
    assert np.allclose(sysd3.B(0)[2:, :2], b.conj().T)
    assert hsys.check_wellposed(sysd3, 0.7 + 0.3j).passed


def test_dirac_rejects_singular_b():
    with pytest.raises(InputError):
        hsys.dirac_system(lambda k: np.zeros((2, 2)), (0, 2), m=2)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_validate_pointwise_passes_on_constructors():
    assert hsys.validate_pointwise(make_free_jacobi((0, 10))).passed
    assert hsys.validate_pointwise(hsys.dirac_system(lambda k: 1.0, (0, 10))).passed


def test_validate_flags_nonhermitian_perturbation():
    sys1 = make_free_jacobi((0, 6))
    B = np.array([sys1.B(k) for k in sys1.sites])
    B[3, 0, 0] += 1j  # non-Hermitian bump at site 3
    broken = hsys.HamiltonianSystem(1, (0, 6), np.array([sys1.A(k) for k in sys1.sites]),
                                    B, np.array([sys1.rho(k) for k in sys1.sites]))
    rep = hsys.validate_pointwise(broken)
    assert not rep.passed
    assert any(v.site == 3 and v.kind == "B_not_hermitian" for v in rep.violations)


def test_validate_passes_on_random_generated():
    # generator is constrained to the standing hypotheses; verify directly
    for seed in (1, 2, 3):
        sysr = htk.random_system(2, (0, 8), seed=seed, cls="general_A12zero")
        rep = hsys.validate_pointwise(sysr)
        assert rep.passed
        for k in sysr.sites:
            assert la.min_eig_herm(sysr.A(k)) >= -1e-12
            assert la.min_eig_herm(sysr.rho(k)) > 0


def test_wellposed_trivial_cases():
    sysd = hsys.dirac_system(lambda k: 1.0, (0, 4))
    rep = hsys.check_wellposed(sysd, 2.3 - 0.7j)
    assert rep.passed
    assert np.all(abs(la.rcond(sysd.pencil(2.3 - 0.7j, sysd.sites)[:, :1, 1:]) - 1.0) < 1e-12)
    sysj = make_free_jacobi((0, 4))
    rep2 = hsys.check_wellposed(sysj, 5.0 + 0.0j)
    assert rep2.passed
    assert np.all(abs(la.rcond(sysj.pencil(5.0 + 0.0j, sysj.sites)[:, 1:, :1]) - 1.0) < 1e-12)


def test_wellposed_flags_singular_dirac():
    b = {k: (np.array([[1e-15]]) if k == 2 else np.array([[1.0]]))
         for k in range(0, 5)}
    # bypass the constructor guard to exercise the checker
    sys_bad = hsys.HamiltonianSystem(
        1, (0, 4),
        np.stack([np.eye(2)] * 5),
        np.stack([np.array([[0, complex(b[k][0, 0])], [complex(b[k][0, 0]), 0]])
                  for k in range(5)]),
        np.stack([np.eye(1)] * 5))
    rep = hsys.check_wellposed(sys_bad, 0.0 + 0.0j)
    assert not rep.passed
    assert any(v.site == 2 for v in rep.violations)


def test_definiteness_dirac_single_point():
    sysd = hsys.dirac_system(lambda k: 1.0, (0, 4))
    rep = hsys.check_definiteness(sysd, 1j, (2, 2))
    assert rep.definite
    assert rep.min_eig > 0.1


def test_definiteness_jacobi_interval_and_point():
    sysj = make_free_jacobi((0, 10))
    z = 1j
    rep = hsys.check_definiteness(sysj, z, (0, 2))
    assert rep.definite
    # brute-force oracle: run the scalar recurrences by hand for each basis
    # vector of hat data (psi1(0), psi2(1)) and sum |psi1|^2 over the interval
    for v in (np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 1.0]),
              np.array([1.0, -1.0j])):
        y = {0: v[0]}
        p2 = {1: v[1]}
        for k in range(0, 2):
            y[k + 1] = y[k] - p2[k + 1]          # rho y(k) = y(k+1) + psi2(k+1)
            p2[k + 2] = z * y[k + 1] + p2[k + 1]  # psi2(k+2) = z y(k+1) + psi2(k+1)
        direct = sum(abs(y[k]) ** 2 for k in range(0, 3))
        quad = float(np.real(v.conj() @ rep.gram @ v))
        assert abs(direct - quad) < 1e-12 * (1 + abs(direct))
    single = hsys.check_definiteness(sysj, z, (3, 3))
    assert not single.definite


def test_definiteness_below_the_gram_rounding_is_not_definite():
    # A = diag(e1 e1*, 0) with m = 2: over 3 sites G is a sum of three rank-one
    # terms, so its smallest eigenvalue is exactly 0. B22 = diag(1e4, 2e4)
    # grows the solutions to ||G|| ~ 1e15, and the rounding of lambda_min
    # (up to about 1 here, either sign) must not read as "definite"
    A = np.zeros((4, 4), dtype=complex)
    A[0, 0] = 1.0
    for seed in range(8):
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        B = np.zeros((4, 4), dtype=complex)
        B[:2, 2:], B[2:, :2] = g, g.conj().T
        B[2:, 2:] = np.diag([1e4, 2e4])
        sys_ = hsys.HamiltonianSystem(2, (0, 6), A, B, np.eye(2))
        for z in hsys.DEFAULT_Z_SAMPLE:
            rep = hsys.check_definiteness(sys_, z, (0, 2))
            assert not rep.definite, (seed, z, rep.min_eig)
            assert rep.min_eig == np.linalg.eigvalsh(rep.gram)[0]


def test_definiteness_within_the_gram_rounding_is_unresolved():
    # at z = -2 + 0.5i over 15 sites of the free chain G is definite
    # (lambda_min 1.1) but its rounding floor is about 8.6: neither verdict
    # can be read from it
    sysj = make_free_jacobi((0, 20))
    rep = hsys.check_definiteness(sysj, -2 + 0.5j, (0, 14))
    assert rep.verdict == "unresolved" and not rep.definite
    assert 1.0 < rep.min_eig < 1.2
    # an eigenvalue below -floor stays indefinite
    A = np.zeros((2, 2))
    A[0, 0] = -1.0
    neg = hsys.HamiltonianSystem(1, (0, 4), A, make_free_jacobi((0, 4))._B, 1.0)
    assert hsys.check_definiteness(neg, 1j, (0, 2)).verdict == "indefinite"


def test_definiteness_of_a_gram_past_the_float_range_raises():
    # at z = -2 + 0.5i the free chain's solutions grow by about 2.4 per site,
    # so G leaves the float range after some 270 sites; its min eig read nan
    # and the verdict "indefinite"
    sysj = make_free_jacobi((-120, 120))
    with pytest.raises(HamweylError, match="not finite"):
        hsys.check_definiteness(sysj, -2 + 0.5j, (0, 300))
    assert hsys.check_definiteness(sysj, -2 + 0.5j, (0, 11)).definite


# ---------------------------------------------------------------------------
# boundary data
# ---------------------------------------------------------------------------

def test_make_boundary_data_presets_unchanged():
    for bd_raw, cls in ((np.hstack([np.eye(2), np.zeros((2, 2))]), "zero"),
                        (np.hstack([np.zeros((2, 2)), np.eye(2)]), "zero")):
        bd = hsys.make_boundary_data(bd_raw)
        assert np.allclose(bd.gamma, bd_raw)
        assert bd.sign_class == cls


def test_make_boundary_data_scalar_example():
    bd = hsys.make_boundary_data(np.array([[2.0, 2.0j]]))
    assert np.allclose(bd.gamma, np.array([[2.0, 2.0j]]) / np.sqrt(8.0))
    im = la.imag_part(bd.gamma1 @ bd.gamma2.conj().T)
    assert abs(im[0, 0] + 0.5) < 1e-14
    assert bd.sign_class == "nonpositive"


def test_make_boundary_data_rejects_bad_inputs():
    with pytest.raises(InputError):
        hsys.make_boundary_data(np.zeros((2, 4)))  # rank deficient
    # indefinite Im(g1 g2*): eigenvalues of opposite sign
    g1 = np.eye(2)
    g2 = np.diag([1j, -1j])
    with pytest.raises(InputError):
        hsys.make_boundary_data(np.hstack([g1, g2]))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(0, 10 ** 6), st.integers(1, 3))
def test_make_boundary_data_idempotent(seed, m):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(m, 2 * m)) + 1j * rng.normal(size=(m, 2 * m))
    raw = raw @ np.diag(rng.uniform(0.5, 2.0, 2 * m))
    try:
        bd = hsys.make_boundary_data(raw)
    except InputError:
        return  # indefinite draws are legitimately rejected
    again = hsys.make_boundary_data(bd.gamma)
    assert np.linalg.norm(again.gamma - bd.gamma) < 1e-14
    assert np.allclose(bd.gamma @ bd.gamma.conj().T, np.eye(m), atol=1e-13)
    g1, g2 = bd.gamma1, bd.gamma2
    assert np.allclose(g1 @ g1.conj().T + g2 @ g2.conj().T, np.eye(m), atol=1e-13)
    if bd.sign_class == "zero":
        assert np.linalg.norm(g1 @ g2.conj().T - g2 @ g1.conj().T) < 1e-12


def test_weighted_boundary():
    sysj = make_free_jacobi((0, 4))
    bd = hsys.dirichlet(1)
    assert np.allclose(hsys.weighted_boundary(bd, sysj, 2), bd.gamma)
    sys4 = hsys.HamiltonianSystem(1, (0, 2), np.stack([np.diag([1.0, 0.0])] * 3),
                                  np.stack([np.array([[0, 1], [1, 1]])] * 3),
                                  np.stack([np.array([[4.0]])] * 3))
    assert np.allclose(hsys.weighted_boundary(bd, sys4, 1), [[2.0, 0.0]])
    sysm = hsys.HamiltonianSystem(
        2, (0, 2), np.stack([np.eye(4)] * 3), np.stack([np.eye(4)] * 3),
        np.stack([np.diag([1.0, 4.0])] * 3))
    wt = hsys.weighted_boundary(hsys.dirichlet(2), sysm, 0)
    assert np.allclose(wt, np.hstack([np.diag([1.0, 2.0]), np.zeros((2, 2))]))


# ---------------------------------------------------------------------------
# normal forms
# ---------------------------------------------------------------------------

def test_normal_form_identity_on_diagonal_positive():
    sysm = hsys.HamiltonianSystem(
        2, (0, 3), np.stack([np.eye(4)] * 4),
        np.stack([np.diag([1.0, 2.0, 3.0, 4.0])] * 4),
        np.stack([np.diag([1.0, 4.0])] * 4))
    out, rec = hsys.normal_form(sysm)
    for k in out.sites:
        assert np.allclose(out.rho(k), sysm.rho(k))
        assert np.allclose(out.B(k), sysm.B(k))
        assert np.allclose(rec.Q_at(k), np.eye(2))
        assert np.allclose(rec.eps_at(k), np.eye(2))


def test_normal_form_negative_scalar_weight():
    c = 0.3 + 0.4j
    B = np.array([[0, c], [np.conj(c), 0]])
    sysn = hsys.HamiltonianSystem(1, (0, 5), np.stack([np.eye(2)] * 6),
                                  np.stack([B] * 6),
                                  np.stack([np.array([[-1.0]])] * 6))
    out, rec = hsys.normal_form(sysn)
    signs = [float(rec.eps_at(k)[0, 0].real) for k in range(0, 7)]
    # greedy fix alternates so the transformed weight is +1 everywhere
    assert signs[0] == 1.0
    assert all(a * b == -1.0 for a, b in zip(signs, signs[1:]))
    for k in out.sites:
        assert np.allclose(out.rho(k), np.eye(1))
    # scalar case: both blocks of the sign factor carry the same +-1, so the
    # conjugated coupling is unchanged; verify the unitary equivalence by
    # checking the transformed operator action directly instead
    rng = np.random.default_rng(0)
    for _ in range(5):
        vals = {k: rng.normal(size=2) + 1j * rng.normal(size=2)
                for k in range(0, 7)}
        k = 3
        m = 1
        top = sysn.rho(k) @ vals[k + 1][m:] - (sysn.B(k) @ vals[k])[:m]
        bot = sysn.rho(k - 1) @ vals[k - 1][:m] - (sysn.B(k) @ vals[k])[m:]
        orig = np.concatenate([top, bot])
        tvals = {q: rec.transform_state(q, vals[q]) for q in vals}
        top2 = out.rho(k) @ tvals[k + 1][m:] - (out.B(k) @ tvals[k])[:m]
        bot2 = out.rho(k - 1) @ tvals[k - 1][:m] - (out.B(k) @ tvals[k])[m:]
        trans = np.concatenate([top2, bot2])
        expect = rec.transform_state(k, orig)
        assert np.linalg.norm(trans - expect) < 1e-12 * (1 + np.linalg.norm(expect))


def test_normal_form_preserves_operator_action():
    rng = np.random.default_rng(5)
    rho_fixed = la.herm(np.array([[2.0, 0.7 + 0.2j], [0.7 - 0.2j, 1.0]]))
    sysr = htk.random_system(2, (0, 6), seed=9, cls="general_A12zero")
    sysm = hsys.HamiltonianSystem(
        2, (0, 6),
        np.stack([sysr.A(k) for k in sysr.sites]),
        np.stack([sysr.B(k) for k in sysr.sites]),
        np.stack([rho_fixed] * 7))
    out, rec = hsys.normal_form(sysm)
    # d(k) should be the descending eigenvalues of rho
    w = np.sort(np.linalg.eigvalsh(rho_fixed))[::-1]
    assert np.allclose(np.diagonal(out.rho(3)), w)

    def s_minus_b(s, psi, k):
        # (S_rho - B) acting on a plain-valued map psi: k -> 2m vector
        m = s.m
        top = s.rho(k) @ psi(k + 1)[m:] - (s.B(k) @ psi(k))[:m]
        bot = s.rho(k - 1) @ psi(k - 1)[:m] - (s.B(k) @ psi(k))[m:]
        return np.concatenate([top, bot])

    for _ in range(10):
        vals = {k: rng.normal(size=4) + 1j * rng.normal(size=4)
                for k in range(0, 7)}
        k = 3
        orig = s_minus_b(sysm, lambda q: vals[q], k)
        tvals = {q: rec.transform_state(q, vals[q]) for q in vals}
        trans = s_minus_b(out, lambda q: tvals[q], k)
        # transformed action of the transformed data equals transformed output
        expect = rec.transform_state(k, orig)
        assert np.linalg.norm(trans - expect) <= 1e-12 * (1 + np.linalg.norm(expect))


def test_normal_form_rejects_singular_rho():
    sysn = hsys.HamiltonianSystem(1, (0, 2), np.stack([np.eye(2)] * 3),
                                  np.stack([np.eye(2)] * 3),
                                  np.stack([np.array([[1.0]])] * 3))
    bad = hsys.HamiltonianSystem(1, (0, 2), sysn._A.copy(), sysn._B.copy(),
                                 np.stack([np.array([[0.0]])] * 3))
    with pytest.raises(InputError):
        hsys.normal_form(bad)


def test_to_unit_rho_identity_cases():
    sysj = make_free_jacobi((0, 5))
    out, (a, b) = hsys.to_unit_rho(sysj, hsys.dirichlet(1), hsys.neumann(1))
    for k in out.sites:
        assert np.allclose(out.A(k), sysj.A(k))
        assert np.allclose(out.B(k), sysj.B(k))
    sysd = hsys.dirac_system(lambda k: 1.0, (0, 5))
    out2, _ = hsys.to_unit_rho(sysd, hsys.dirichlet(1), hsys.dirichlet(1))
    for k in out2.sites:
        assert np.allclose(out2.B(k), sysd.B(k))


def test_to_unit_rho_preserves_m_function_scalar():
    from hamweyl import weyl as hwl
    sys4 = hsys.HamiltonianSystem(
        1, (0, 12), np.stack([np.diag([1.0, 0.0])] * 13),
        np.stack([np.array([[0.0, 1.0], [1.0, 1.0]])] * 13),
        np.stack([np.array([[4.0]])] * 13))
    al, be = hsys.dirichlet(1), hsys.dirichlet(1)
    ctx = hwl.disk_context(sys4, 1j, 0, 8, al)
    m_orig = hwl.m_regular(sys4, ctx, be).M
    out, (a2, b2) = hsys.to_unit_rho(sys4, al, be)
    ctx2 = hwl.disk_context(out, 1j, 0, 8, a2)
    m_new = hwl.m_regular(out, ctx2, b2).M
    assert np.linalg.norm(m_orig - m_new) < 1e-12


# ---------------------------------------------------------------------------
# extension policies and files
# ---------------------------------------------------------------------------

def test_extension_policies():
    vals = {0: 1.0, 1: 2.0, 2: 3.0}
    ce = hsys.jacobi_system(lambda k: vals.get(min(max(k, 0), 2), 1.0),
                            lambda k: 0.0, (0, 2), extension="constant-edge")
    assert np.allclose(ce.B(5), ce.B(2))
    assert np.allclose(ce.B(-3), ce.B(0))
    pe = hsys.jacobi_system(lambda k: vals[k], lambda k: 0.0, (0, 2),
                            extension="periodic")
    assert np.allclose(pe.B(3), pe.B(0))
    assert np.allclose(pe.B(-1), pe.B(2))
    ee = hsys.jacobi_system(lambda k: vals[k], lambda k: 0.0, (0, 2),
                            extension="error")
    with pytest.raises(DomainError):
        ee.B(3)
    # plain values at the lower window edge need no site below the window
    assert hsys.check_definiteness(ee, 1j, (0, 2)).definite


def test_vectorized_site_index_matches_the_scalar_one():
    runs = (range(-4, 9), range(8, -5, -1), range(2, 5), range(6, 2, -1),
            range(11, 14), range(0, 0))
    policy = {"constant-edge": lambda k: min(max(k, 0), 6),
              "periodic": lambda k: k % 7, "error": lambda k: k}
    for extension in hsys.EXTENSIONS:
        sysj = hsys.jacobi_system(lambda k: 1.0, lambda k: 0.0, (0, 6),
                                  extension=extension)
        for sites in runs:
            if all(sysj.in_reach(k) for k in sites):
                scalar = [sysj._indices(k) for k in sites]
                assert scalar == [policy[extension](k) for k in sites]
                assert all(type(i) is int for i in scalar)
                assert sysj._indices(sites).tolist() == scalar
                assert sysj._indices(list(sites)[::-1]).tolist() == scalar[::-1]
                continue
            # the first unreachable site in the given order raises, with
            # the scalar index's message
            first = next(k for k in sites if not sysj.in_reach(k))
            with pytest.raises(DomainError) as want:
                sysj._indices(first)
            for seq in (sites, list(sites)):
                with pytest.raises(DomainError) as got:
                    sysj._indices(seq)
                assert str(got.value) == str(want.value)


def test_accessors_take_a_site_or_a_run():
    sysj = hsys.jacobi_system(lambda k: 1.0 + 0.1 * k, lambda k: 0.1 * k, (0, 6),
                              extension="periodic")
    run = range(-3, 10)
    for name in ("A", "B", "rho", "j_rho", "i_rho"):
        get = getattr(sysj, name)
        assert np.array_equal(get(run), np.stack([get(k) for k in run])), name
    assert np.array_equal(sysj.pencil(0.5j, run),
                          np.stack([sysj.pencil(0.5j, k) for k in run]))
    jc = sysj.jacobi
    assert np.array_equal(jc.p_at(run), np.stack([jc.p_at(k) for k in run]))
    assert np.array_equal(jc.p_at(9), jc.p_at(2)) and np.array_equal(jc.q_at(-1), jc.q_at(6))


def test_coefficient_file_roundtrip(tmp_path):
    sysr = htk.random_system(2, (0, 5), seed=3, cls="general_A12zero")
    path = tmp_path / "sys.json"
    hsys.save_coefficients(sysr, path)
    back = hsys.load_coefficients(path)
    for k in sysr.sites:
        assert np.allclose(back.A(k), sysr.A(k), atol=0)
        assert np.allclose(back.B(k), sysr.B(k), atol=0)
        assert np.allclose(back.rho(k), sysr.rho(k), atol=0)
    assert back.extension == sysr.extension


def test_coefficient_file_shorthands(tmp_path):
    doc = {"m": 1, "k_min": 0, "extension": "constant-edge",
           "jacobi": {"p": [[[1.0, 0.0]]] * 4, "q": [[[0.0, 0.0]]] * 4}}
    path = tmp_path / "short.json"
    path.write_text(json.dumps(doc))
    sysj = hsys.load_coefficients(path)
    assert sysj.jacobi is not None
    assert np.allclose(sysj.B(0), np.array([[0.0, 1.0], [1.0, 1.0]]))
    doc2 = {"m": 1, "k_min": -1, "extension": "constant-edge",
            "dirac": {"b": [[[2.0, 0.0]]] * 3}}
    path2 = tmp_path / "short2.json"
    path2.write_text(json.dumps(doc2))
    sysd = hsys.load_coefficients(path2)
    assert sysd.k_min == -1
    assert np.allclose(sysd.B(0), np.array([[0, 2], [2, 0]]))


def test_coefficient_file_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    with pytest.raises(InputError):
        hsys.load_coefficients(path)
    path2 = tmp_path / "incomplete.json"
    path2.write_text(json.dumps({"m": 1, "k_min": 0}))
    with pytest.raises(InputError):
        hsys.load_coefficients(path2)


def test_nonpositive_rho_is_an_input_error():
    sysj = hsys.jacobi_system(1.0, 0.0, (0, 5))
    bad = hsys.HamiltonianSystem(1, sysj.window, sysj._A, sysj._B, -1.0)
    with pytest.raises(InputError, match="rho at site 0 is not positive definite"):
        hsys.system_from_dict(hsys.system_to_dict(bad))
    with pytest.raises(InputError, match="not positive definite"):
        hsys.to_unit_rho(bad, hsys.dirichlet(1), hsys.dirichlet(1))
    rho = np.ones((6, 1, 1))
    rho[4] = 0.0
    doc = hsys.system_to_dict(hsys.HamiltonianSystem(1, (0, 5), sysj._A, sysj._B, rho))
    with pytest.raises(InputError, match="rho at site 4 "):
        hsys.system_from_dict(doc)


def test_coefficient_blocks_parse_like_per_entry_complex():
    rng = np.random.default_rng(8)
    vals = rng.normal(size=(5, 4, 2))
    vals[0, 0, 1] = -0.0
    pairs = vals.tolist()
    pairs[1][2] = [3, -2]                      # integer pairs
    ref = np.array([[complex(re, im) for re, im in site] for site in pairs])
    doc = {"m": 2, "k_min": 0, "dirac": {"b": pairs}}
    sysd = hsys.system_from_dict(doc)
    expect = hsys.dirac_system(ref.reshape(5, 2, 2), (0, 4), m=2)
    for k in sysd.sites:
        assert sysd.B(k).tobytes() == expect.B(k).tobytes()


@pytest.mark.parametrize("field, value", [
    ("m", 1.7), ("m", "1"), ("m", True), ("m", 1.0), ("k_min", 2.5),
    ("k_min", False), ("k_min", None)])
def test_coefficient_document_heads_must_be_json_integers(field, value):
    doc = {"m": 1, "k_min": 0, "jacobi": {"p": [[[1.0, 0.0]]] * 2, "q": [[[0.0, 0.0]]] * 2}}
    hsys.system_from_dict(doc)
    with pytest.raises(InputError, match="m and k_min must be integers"):
        hsys.system_from_dict(dict(doc, **{field: value}))


@pytest.mark.parametrize("entries", [
    [[[True, 0.0]], [[1.0, 0.0]]],         # a bool among float pairs
    [[[1, 0]], [[1, False]]],              # a bool among integer pairs
    [[[True, False]], [[True, False]]],    # a block of bools only
    [[True], [1.0]],                       # a bool as a plain-number entry
])
def test_coefficient_entries_reject_true_and_false(tmp_path, entries):
    doc = {"m": 1, "k_min": 0, "jacobi": {"p": entries, "q": [[[0.0, 0.0]]] * 2}}
    with pytest.raises(InputError, match=r"^p: entries must be \[re, im\] pairs$"):
        hsys.system_from_dict(doc)
    path = tmp_path / "bools.json"
    path.write_text(json.dumps(dict(doc, jacobi={"p": [[[1.0, 0.0]]] * 2, "q": entries})))
    with pytest.raises(InputError, match=r"^q: entries must be \[re, im\] pairs$"):
        hsys.load_coefficients(path)


def test_coefficient_blocks_accept_plain_numbers_and_word_errors():
    plain = {"m": 1, "k_min": 0, "jacobi": {"p": [[1.5], [2]], "q": [[0], [-0.5]]}}
    pairs = {"m": 1, "k_min": 0,
             "jacobi": {"p": [[[1.5, 0]], [[2, 0]]], "q": [[[0, 0]], [[-0.5, 0]]]}}
    a, b = hsys.system_from_dict(plain), hsys.system_from_dict(pairs)
    for k in a.sites:
        assert np.array_equal(a.B(k), b.B(k)) and np.array_equal(a.A(k), b.A(k))
    full = {"m": 1, "k_min": 0, "A": [[1, 0, 0, 0]], "B": [[0, 1, 1, 1]],
            "rho": [[1]]}
    assert np.array_equal(hsys.system_from_dict(full).B(0), [[0, 1], [1, 1]])
    bad_pair = {"m": 1, "k_min": 0,
                "jacobi": {"p": [[[1, 0]], [[2, 0, 1]]], "q": [[[0, 0]]] * 2}}
    with pytest.raises(InputError, match=r"^p: entries must be \[re, im\] pairs$"):
        hsys.system_from_dict(bad_pair)
    bad_count = dict(full, A=[[[1, 0], [0, 0], [0, 0]]])
    with pytest.raises(InputError, match="^A: expected 4 entries, got 3$"):
        hsys.system_from_dict(bad_count)
