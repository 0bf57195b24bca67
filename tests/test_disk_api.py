"""The single-site disk functions read the far-site walk.

``tests/data/disk_api.json`` holds, per system, the SHA-256 digest (see
:func:`test_families_golden.digest`) of ``disk_diameter_estimate`` and
``e_functional`` over a battery of far sites and z, as the functions gave
them when they stepped unscaled hats:

- ``dirichlet``: the free chain and 45 ``random_system`` draws (m = 1-3, all
  three classes, seeds 1-5) on [-130, 130] with k0 = 0 and Dirichlet data,
  at far sites up to 120 on both sides, with E at the Dirichlet M (on the
  circle);
- ``general``: 36 draws (seeds 6-9) with k0 = 5, self-adjoint base data
  (I H) for a seeded Hermitian H, far sites below and above k0, and E at a
  seeded M off the circle.

Every digest must match bit for bit. Running this module as a script
writes the current digests to the golden file.

The other tests pin what a walk gives past the float range of unscaled
hats, and that nothing in ``weyl`` but the walk steps hats forward.
"""

import ast
import json
from pathlib import Path

import numpy as np
import pytest

from hamweyl import system as hsys
from hamweyl import testkit as htk
from hamweyl import weyl as hwl
from hamweyl.errors import HamweylError
from test_families_golden import digest

GOLDEN = Path(__file__).parent / "data" / "disk_api.json"

CLASSES = ("jacobi", "dirac", "general_A12zero")
WINDOW = (-130, 130)
Z = (0.5 + 0.5j, -0.3 - 0.8j, 1.2 + 0.05j, 2.5 + 1.5j, -1.0 - 0.2j)
DIRICHLET_SITES = (2, 3, 15, 16, 17, 33, 64, 120, -2, -16, -17, -120)
GENERAL_SITES = (-120, -40, 3, 7, 21, 22, 100)


def _free():
    return hsys.jacobi_system(1.0, 0.0, WINDOW)


def cases():
    """(case id, system builder, battery) of every golden case."""
    out = [("dirichlet/free", _free, "dirichlet")]
    out += [(f"{battery}/{cls}/m{m}/s{seed}",
             lambda m=m, seed=seed, cls=cls: htk.random_system(m, WINDOW, seed, cls),
             battery)
            for battery, seeds in (("dirichlet", range(1, 6)), ("general", range(6, 10)))
            for cls in CLASSES for m in (1, 2, 3) for seed in seeds]
    return out


def _self_adjoint(m, rng):
    g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    h = (g + g.conj().T) / 2
    return hsys.make_boundary_data(np.hstack([np.eye(m), h]))


def _attempt(fn):
    try:
        return fn()
    except HamweylError as err:
        return f"{type(err).__name__}: {err}"


def battery(sys_, which):
    """[(diameter, E)] of every z and far site of the battery."""
    m = sys_.m
    if which == "dirichlet":
        k0, sites, alpha = 0, DIRICHLET_SITES, hsys.dirichlet(m)
    else:
        rng = np.random.default_rng(1000 * m + sys_.window[0])
        k0, sites, alpha = 5, GENERAL_SITES, _self_adjoint(m, rng)
    out = []
    for z in Z:
        for ell in sites:
            ctx = hwl.disk_context(sys_, z, k0, ell, alpha)
            if which == "dirichlet":
                M = _attempt(lambda: hwl.m_regular(sys_, ctx, alpha).M)
            else:
                M = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            out.append((_attempt(lambda: hwl.disk_diameter_estimate(sys_, ctx)),
                        M if isinstance(M, str) else
                        _attempt(lambda: hwl.e_functional(sys_, ctx, M))))
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", cases(), ids=lambda c: c[0])
def test_disk_api_matches_golden(case, golden):
    key, build, which = case
    assert digest(battery(build(), which)) == golden[key]


def _long_free():
    # unscaled hats at z = -3 + 0.1i leave the float range near ell = 454
    return hsys.jacobi_system(1.0, 0.0, (-10, 3000))


@pytest.mark.parametrize("ell", [460, 1500, 2900])
def test_diameter_past_overflow_is_the_walks(ell):
    sys_, z, al = _long_free(), -3.0 + 0.1j, hsys.dirichlet(1)
    (row,) = hwl._far_walk(sys_, z, 0, al, al, [[ell]])
    d = hwl.disk_diameter_estimate(sys_, hwl.disk_context(sys_, z, 0, ell, al))
    assert np.isfinite(d) and d == row[4][0]


@pytest.mark.parametrize("ell", [300, 460, 2900])
def test_e_past_the_float_range_raises(ell):
    sys_, z, al = _long_free(), -3.0 + 0.1j, hsys.dirichlet(1)
    ctx = hwl.disk_context(sys_, z, 0, ell, al)
    M = hwl.m_regular(sys_, ctx, al).M
    with pytest.raises(HamweylError, match="float range"):
        hwl.e_functional(sys_, ctx, M)


def test_e_below_the_float_range_is_finite():
    sys_, z, al = _long_free(), -3.0 + 0.1j, hsys.dirichlet(1)
    ctx = hwl.disk_context(sys_, z, 0, 200, al)
    assert np.isfinite(hwl.e_functional(sys_, ctx, np.array([[1j]]))).all()


def test_only_the_walk_steps_hats_forward():
    tree = ast.parse(Path(hwl.__file__).read_text())
    callers = {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn) if isinstance(node, ast.Call)
               and getattr(node.func, "id", getattr(node.func, "attr", None)) == "propagate_hats"}
    assert callers == {"_outward"}


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({key: digest(battery(build(), which))
                                  for key, build, which in cases()}, indent=1) + "\n")
