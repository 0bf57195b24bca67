import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamweyl import _linalg as la
from hamweyl.system import RCOND_MIN, TOL_SYM

# ---------------------------------------------------------------------------
# fails_check: bound-first verdicts equal the plain SVD rules
# ---------------------------------------------------------------------------

KINDS = ("hermitian", "near_tol", "rank_deficient", "singular", "rcond_edge",
         "general")


def _ginibre(rng, m):
    return rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))


def _site(rng, m, kind):
    """One m x m matrix of the given kind, at a random scale from 1 to
    1e+-150 and past it, where Frobenius norms overflow or underflow."""
    scale = rng.choice([1.0, 1e3, 1e150, 1e-150, 1e155, 1e-160])
    if kind == "hermitian":                       # exactly Hermitian
        g = _ginibre(rng, m)
        a = g + la.adjoint(g)
    elif kind == "near_tol":                      # 0.5x, 1x, 2x the tolerance
        g = _ginibre(rng, m)
        h = (g + la.adjoint(g)) * scale
        e = _ginibre(rng, m)
        e_dev = la.opnorm(e - la.adjoint(e))
        f = rng.choice([0.5, 1.0, 2.0]) * TOL_SYM * max(1.0, la.opnorm(h))
        return h + (f / e_dev) * e
    elif kind == "rank_deficient":                # a zero singular value
        u, v = la.haar_unitary(m, rng), la.haar_unitary(m, rng)
        s = rng.uniform(0.5, 2.0, m)
        s[rng.integers(m)] = 0.0
        a = (u * s) @ v
    elif kind == "singular":                      # repeated row or zero matrix
        a = _ginibre(rng, m)
        if m == 1 or rng.integers(2):
            a[-1] = 0.0
        else:
            a[-1] = a[0]
    elif kind == "rcond_edge":                    # rcond near RCOND_MIN
        u, v = la.haar_unitary(m, rng), la.haar_unitary(m, rng)
        s = np.geomspace(1.0, 1e-6, m) if m > 1 else np.ones(1)
        s[-1] = RCOND_MIN * rng.choice([0.25, 0.5, 0.99, 1.0, 1.01, 2.0, 4.0, 8.0])
        a = (u * s) @ v
    else:
        a = _ginibre(rng, m)
    return a * scale


def _stack(seed, m, n):
    rng = np.random.default_rng(seed)
    kinds = rng.choice(KINDS, size=n)
    return np.stack([_site(rng, m, k) for k in kinds])


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.integers(0, 10 ** 6), st.integers(1, 5), st.integers(1, 8))
def test_hermitian_verdict_equals_the_svd_rule(seed, m, n):
    a = _stack(seed, m, n)
    expect = ~la.is_hermitian(a, TOL_SYM)
    assert np.array_equal(la.fails_check(a, "hermitian", TOL_SYM), expect)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.integers(0, 10 ** 6), st.integers(1, 5), st.integers(1, 8))
def test_rcond_verdict_equals_the_svd_rule(seed, m, n):
    a = _stack(seed, m, n)
    expect = la.rcond(a) < RCOND_MIN
    assert np.array_equal(la.fails_check(a, "rcond", RCOND_MIN), expect)
    # the same verdicts from a caller's inverse (all NaN for a singular stack)
    got = la.fails_check(a, "rcond", RCOND_MIN, inv=la.inverse(a))
    assert np.array_equal(got, expect)


def _pencils(seed, a):
    """(n, 2m, 2m) pencils with ``a`` as their (1,2) block; every other one
    is zero elsewhere, so its norm is the block's and the smin rule sits at
    the rcond rule's threshold."""
    n, m = a.shape[0], a.shape[-1]
    p = _stack(seed + 1, 2 * m, n)
    p[::2] = 0.0
    p[:, :m, m:] = a
    return p


def _smin_rule(a, p):
    return (np.linalg.svd(a, compute_uv=False)[..., -1]
            < RCOND_MIN * np.maximum(1.0, la.opnorm(p)))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.integers(0, 10 ** 6), st.integers(1, 4), st.integers(1, 8))
def test_smin_verdict_equals_the_svd_rule(seed, m, n):
    a = _stack(seed, m, n)
    p = _pencils(seed, a)
    expect = _smin_rule(a, p)
    assert np.array_equal(la.fails_check(a, "smin", RCOND_MIN, scale=p), expect)
    got = la.fails_check(a, "smin", RCOND_MIN, inv=la.inverse(a), scale=p)
    assert np.array_equal(got, expect)


def test_rcond_verdict_on_a_z_batch_of_sites():
    # (n, N, m, m) stacks, as the pencil check passes them
    rng = np.random.default_rng(4)
    a = np.stack([_stack(s, 2, 5) for s in rng.integers(0, 10 ** 6, 3)], axis=1)
    assert a.shape == (5, 3, 2, 2)
    expect = la.rcond(a) < RCOND_MIN
    assert np.array_equal(la.fails_check(a, "rcond", RCOND_MIN), expect)
    assert la.fails_check(a[:, :0], "rcond", RCOND_MIN).shape == (5, 0)
    p = np.stack([_pencils(s, a[:, j]) for j, s in enumerate((5, 6, 7))], axis=1)
    assert np.array_equal(la.fails_check(a, "smin", RCOND_MIN, scale=p), _smin_rule(a, p))


def test_clear_sites_are_decided_without_an_svd(monkeypatch):
    rng = np.random.default_rng(11)
    g = rng.normal(size=(50, 3, 3)) + 1j * rng.normal(size=(50, 3, 3))
    h = g + la.adjoint(g) + 20 * np.eye(3)

    def no_svd(*args, **kwargs):
        raise AssertionError("SVD called on a stack the bounds decide")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    monkeypatch.setattr(np.linalg, "norm", no_svd)
    assert not la.fails_check(h, "hermitian", TOL_SYM).any()
    assert not la.fails_check(h, "rcond", RCOND_MIN).any()
    assert la.fails_check(g, "hermitian", TOL_SYM).all()
    p = np.zeros((50, 6, 6), dtype=complex)
    p[:, :3, 3:] = h
    assert not la.fails_check(h, "smin", RCOND_MIN, scale=p).any()
    assert la.fails_check(1e-20 * h, "smin", RCOND_MIN, scale=p).all()


def test_fails_check_rejects_an_unknown_rule():
    with pytest.raises(ValueError, match="unknown check rule"):
        la.fails_check(np.eye(2)[None], "unitary", 1e-12)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_spd_roots_of_a_stack_equal_each_matrix_bitwise(m):
    rng = np.random.default_rng(70 + m)
    g = rng.normal(size=(5, m, m)) + 1j * rng.normal(size=(5, m, m))
    a = g @ la.adjoint(g) + 0.1 * np.eye(m)
    for f in (la.sqrtm_spd, la.invsqrtm_spd):
        stacked = f(a)
        assert stacked.shape == a.shape
        for one, ai in zip(stacked, a):
            assert np.array_equal(one, f(ai))


# ---------------------------------------------------------------------------
# Haar unitaries: one matrix is the one-member case of a stack
# ---------------------------------------------------------------------------

def _haar_one_at_a_time(rng, m):
    # QR of one Ginibre matrix with the phases of diag R divided out
    q, r = np.linalg.qr(_ginibre(rng, m))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_haar_unitary_is_bitwise_the_one_member_case_of_the_stack(m):
    n = 40
    ref_rng, one_rng, stack_rng = (np.random.default_rng(23) for _ in range(3))
    ref = np.stack([_haar_one_at_a_time(ref_rng, m) for _ in range(n)])
    one = np.stack([la.haar_unitary(m, one_rng) for _ in range(n)])
    stack = la.haar_from_ginibre(la.ginibre(stack_rng.normal(size=(n, 2, m, m))))
    assert one.tobytes() == ref.tobytes()
    assert stack.tobytes() == ref.tobytes()
    assert ref_rng.random() == one_rng.random() == stack_rng.random()
    assert np.max(np.abs(la.adjoint(stack) @ stack - np.eye(m))) < 1e-14
