import ast
import hashlib
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from hamweyl import _linalg as la
from hamweyl import system as hsys
from hamweyl import testkit as htk
from hamweyl import weyl as hwl
from hamweyl.errors import ConvergenceError, InputError, UnsupportedError

from conftest import make_free_jacobi


# ---------------------------------------------------------------------------
# the oracle stays out of the product path
# ---------------------------------------------------------------------------

def _imports_testkit(source: str) -> bool:
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [a.name for a in node.names]
        else:
            continue
        if any("testkit" in name.split(".") for name in names):
            return True
    return False


def test_no_product_module_imports_testkit():
    assert all(map(_imports_testkit, [
        "from . import testkit as htk", "from .testkit import random_system",
        "import hamweyl.testkit", "from hamweyl import green, testkit"]))
    assert not _imports_testkit("from . import weyl  # testkit")
    package = Path(htk.__file__).parent
    offenders = [path.name for path in sorted(package.glob("*.py"))
                 if path.name not in ("testkit.py", "__init__.py")
                 and _imports_testkit(path.read_text())]
    assert offenders == []


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


def _p22_zero(b12):
    """A = diag(1, 0): P22 vanishes, so the m = 1 root is linear."""
    return hsys.HamiltonianSystem(1, (0, 10), np.diag([1.0, 0.0]),
                                  [[0.0, b12], [b12, 0.0]], 1.0)


def test_fixed_point_linear_root():
    # (V - z)(1 - 0 V) = 4 V, so V = -z/3, which the damped iteration also
    # reaches (it contracts by 1/4)
    sysl, z = _p22_zero(2.0), 0.3 + 0.7j
    assert hsys.validate_pointwise(sysl).passed and hsys.check_wellposed(sysl, z).passed
    v = htk.constant_riccati_fixed_point(sysl, z, +1)[0, 0]
    assert abs(v + z / 3) < 1e-15


def test_fixed_point_with_no_root_of_its_branch():
    # B12 = 1: the linear coefficient 1 - P12 P21 vanishes as well
    with pytest.raises(ConvergenceError, match="no quadratic root"):
        htk.constant_riccati_fixed_point(_p22_zero(1.0), 0.3 + 0.7j, +1)


def test_fixed_point_stalled_iteration(monkeypatch):
    # just above the band the iteration contracts too slowly to converge:
    # m = 1 falls back to the closed root, m = 2 has none and raises
    z = 0.01 + 1e-13j
    calls = []
    step = htk._riccati_map_back
    monkeypatch.setattr(htk, "_riccati_map_back",
                        lambda *a: calls.append(1) or step(*a))
    v = htk.constant_riccati_fixed_point(make_free_jacobi((0, 10)), z, +1)[0, 0]
    assert len(calls) == 3 * htk._FIXED_POINT_ITER  # every damping stalled
    assert abs(v * v - z * v + z) < 1e-12 and v.imag < 0
    free2 = hsys.jacobi_system(np.eye(2), np.zeros((2, 2)), (0, 10))
    with pytest.raises(ConvergenceError, match="did not converge"):
        htk.constant_riccati_fixed_point(free2, z, +1)


def test_fixed_point_rejects_a_wrong_iterate(monkeypatch):
    # a step map with a wrong fixed point: for m = 1 it disagrees with the
    # closed root, for m = 2 it lies on the other branch
    monkeypatch.setattr(htk, "_riccati_map_back",
                        lambda sys, z, v: 1j * np.eye(sys.m, dtype=complex))
    with pytest.raises(ConvergenceError, match="disagrees with the closed quadratic root"):
        htk.constant_riccati_fixed_point(make_free_jacobi((0, 10)), 1j, +1)
    free2 = hsys.jacobi_system(np.eye(2), np.zeros((2, 2)), (0, 10))
    with pytest.raises(ConvergenceError, match="wrong branch"):
        htk.constant_riccati_fixed_point(free2, 1j, +1)


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


# ---------------------------------------------------------------------------
# generator: golden bytes
# ---------------------------------------------------------------------------
# tests/data/random_systems.json holds, per draw, the SHA-256 of the bytes of
# the coefficient stacks _A, _B and _rho as the per-site generator drew and
# factored them one matrix at a time. Every seeded system the suite and the
# self-check battery use depends on those bytes. Running this module as a
# script prints the current values in the golden file's format.

GOLDEN = Path(__file__).parent / "data" / "random_systems.json"
CLASSES = ("jacobi", "dirac", "general_A12zero")


def random_system_cases():
    """(case id, m, window, seed, class) of every golden draw."""
    out = [(f"grid/{cls}_m{m}/seed{s}/0,201", m, (0, 201), s, cls)
           for cls in CLASSES for m in (1, 2, 3) for s in (1, 2, 3)]
    # the self-check battery of perfbench/workloads.py at seeds 1-3
    for seed in (1, 2, 3):
        for i in range(6):
            m, s, cls = 1 + (i + i // 3) % 3, (seed * 7919 + i) % 2**31, CLASSES[i % 3]
            out.append((f"battery/{seed}/{cls}_m{m}/0,201", m, (0, 201), s, cls))
    out += [(f"short/{cls}_m{m}/seed5/{lo},{hi}", m, (lo, hi), 5, cls)
            for cls in CLASSES for m in (1, 2, 3)
            for lo, hi in ((0, 0), (-2, 1), (3, 8))]
    return out


def coefficient_digests(sys_):
    return {name: hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()
            for name, arr in (("A", sys_._A), ("B", sys_._B), ("rho", sys_._rho))}


def _retried_draw(m, window, seed, cls):
    """The draw that follows one rejected attempt from the same generator."""
    orig, calls = htk.validate_pointwise, []

    def reject_first(sys_):
        calls.append(1)
        return orig(sys_) if len(calls) > 1 else SimpleNamespace(passed=False)

    htk.validate_pointwise = reject_first
    try:
        return htk.random_system(m, window, seed, cls)
    finally:
        htk.validate_pointwise = orig


RETRY_CASES = [(f"retry/{cls}_m2/seed7/0,6", 2, (0, 6), 7, cls) for cls in CLASSES]


@pytest.fixture(scope="module")
def random_golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", random_system_cases(), ids=lambda c: c[0])
def test_random_system_matches_golden_bytes(case, random_golden):
    key, m, window, seed, cls = case
    assert coefficient_digests(htk.random_system(m, window, seed, cls)) == random_golden[key]


@pytest.mark.parametrize("case", RETRY_CASES, ids=lambda c: c[0])
def test_random_system_retry_keeps_drawing_from_the_same_generator(case, random_golden):
    key, m, window, seed, cls = case
    assert coefficient_digests(_retried_draw(m, window, seed, cls)) == random_golden[key]


if __name__ == "__main__":
    golden = {key: coefficient_digests(htk.random_system(m, w, s, c))
              for key, m, w, s, c in random_system_cases()}
    golden.update({key: coefficient_digests(_retried_draw(m, w, s, c))
                   for key, m, w, s, c in RETRY_CASES})
    json.dump(golden, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
