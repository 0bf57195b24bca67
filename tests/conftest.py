import numpy as np
import pytest

from hamweyl import _linalg as la
from hamweyl import system as hsys
from hamweyl import testkit as htk


@pytest.fixture
def free_jacobi():
    """Scalar p=1, q=0 system on a window comfortably larger than any test."""
    return hsys.jacobi_system(lambda k: 1.0, lambda k: 0.0, (-60, 260))


@pytest.fixture
def dirichlet1():
    return hsys.dirichlet(1)


def make_free_jacobi(window, extension="constant-edge"):
    return hsys.jacobi_system(lambda k: 1.0, lambda k: 0.0, window, extension=extension)


def boundary_family(m, n):
    """Fixed quasi-uniform family of self-adjoint boundary data.

    For m = 1 these are (cos t, sin t) with t = j pi / n. For m > 1 each
    member is (cos(D) W*, sin(D) W*) with W Haar unitary and D diagonal,
    drawn from a per-index seed so that families nest: the first n' members
    of family(n) coincide with family(n') for n' <= n.
    """
    out = []
    for j in range(n):
        if m == 1:
            t = np.pi * j / n
            g1 = np.array([[np.cos(t)]], dtype=complex)
            g2 = np.array([[np.sin(t)]], dtype=complex)
        else:
            rng = np.random.default_rng(0xB0D + j)
            w = la.haar_unitary(m, rng)
            d = rng.uniform(0.0, np.pi, size=m)
            g1 = np.diag(np.cos(d)).astype(complex) @ w.conj().T
            g2 = np.diag(np.sin(d)).astype(complex) @ w.conj().T
        out.append(hsys.BoundaryData(g1, g2, "zero"))
    return out


def random_battery(n, window, classes=("jacobi", "dirac", "general_A12zero"),
                   ms=(1, 2, 3), seed0=100):
    """Deterministic list of (sys, m, class) tuples for batteries."""
    out = []
    for i in range(n):
        m = ms[i % len(ms)]
        cls = classes[i % len(classes)]
        out.append(htk.random_system(m, window, seed=seed0 + i, cls=cls))
    return out


def rel_err(a, b):
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    denom = 1.0 + max(np.linalg.norm(a), np.linalg.norm(b))
    return np.linalg.norm(a - b) / denom
