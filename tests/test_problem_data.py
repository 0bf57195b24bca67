"""One owner for each rule on the problem data, and its typed error at every
entry point.

The rules: z is finite with Im z != 0 (``weyl._admissible_z``), the base
data alpha is self-adjoint (``system._self_adjoint``, checked where the
base hat is formed; ``weyl._base_hat`` forms its inverse), M at a batch of z
or EigenvalueHitError at the first pole (``weyl._m_at``), the doubling
far-site schedule (``weyl._default_schedule``), the sides of a Green's
kernel (``green._SIDES``), the Herglotz margin (``weyl._herglotz_margin``,
with sigma from ``weyl.sigma_of``), the singular bar
(``_linalg._SINGULAR_RCOND``), a positive weight rho
(``system._check_rho``, wherever a root of rho is taken) and the rank of
boundary data (``make_boundary_data``, on the eigenvalues it divides by).
The guards below read the source; the other tests call each public entry
point with data that breaks a rule.
"""

import ast
import json
from pathlib import Path

import numpy as np
import pytest

from hamweyl import _linalg as la
from hamweyl import cli
from hamweyl import green as hg
from hamweyl import propagate as hp
from hamweyl import system as hsys
from hamweyl import weyl as hwl
from hamweyl.errors import InputError

SRC = Path(hwl.__file__).parent


def _functions(path):
    return [fn for fn in ast.walk(ast.parse(path.read_text()))
            if isinstance(fn, ast.FunctionDef)]


def _called(fn) -> set:
    return {getattr(node.func, "id", getattr(node.func, "attr", None))
            for node in ast.walk(fn) if isinstance(node, ast.Call)}


def test_the_z_rule_is_stated_once():
    owners = {fn.name for path in SRC.glob("*.py") for fn in _functions(path)
              if any(isinstance(node, ast.Constant) and "finite z" in str(node.value)
                     for node in ast.walk(fn))}
    assert owners == {"_admissible_z"}


def test_the_self_adjoint_rule_is_stated_once():
    owners = {fn.name for path in SRC.glob("*.py") for fn in _functions(path)
              if any(isinstance(node, ast.Compare) and isinstance(node.left, ast.Attribute)
                     and node.left.attr == "sign_class" for node in ast.walk(fn))}
    assert owners == {"_self_adjoint"}


def test_the_initial_hat_is_inverted_once():
    assert {fn.name for fn in _functions(SRC / "weyl.py")
            if {"initial_hat", "inv"} <= _called(fn)} == {"_base_hat"}
    assert not [path for path in SRC.glob("*.py") if "inv(initial_hat(" in path.read_text()]


def test_the_cli_restates_no_rule():
    tree = ast.parse(Path(cli.__file__).read_text())
    calls = {node.func.attr for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)}
    assert "extract" not in calls
    tested = [node for cmp in ast.walk(tree) if isinstance(cmp, ast.Compare)
              for node in ast.walk(cmp) if isinstance(node, ast.Attribute)]
    assert not [node for node in tested if node.attr == "imag"]


def test_the_cli_forms_no_herglotz_margin_sigma_or_trace():
    tree = ast.parse(Path(cli.__file__).read_text())
    assert not _called(tree) & {"imag_part", "min_eig_herm", "max_eig_herm", "trace"}
    signs = [node for node in ast.walk(tree) if isinstance(node, ast.IfExp)
             and {ast.unparse(node.body), ast.unparse(node.orelse)} == {"1", "-1"}]
    assert not signs


def test_the_singular_bar_is_stated_once():
    literal = []
    for path in SRC.glob("*.py"):
        for cmp in ast.walk(ast.parse(path.read_text())):
            if isinstance(cmp, ast.Compare) and isinstance(cmp.left, ast.Call) \
                    and "rcond" in _called(cmp.left) \
                    and any(isinstance(c, ast.Constant) for c in cmp.comparators):
                literal.append(f"{path.name}:{cmp.lineno}")
    assert not literal


def test_the_root_helpers_do_not_judge_definiteness():
    roots = [fn for fn in _functions(SRC / "_linalg.py")
             if fn.name in ("sqrtm_spd", "invsqrtm_spd")]
    assert len(roots) == 2
    assert not [node for fn in roots for node in ast.walk(fn)
                if isinstance(node, (ast.Compare, ast.Raise, ast.If))]


def test_trajectories_cache_no_plain_values():
    tree = ast.parse((SRC / "propagate.py").read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert "cached_property" not in imported


# ---------------------------------------------------------------------------
# base data that is not self-adjoint
# ---------------------------------------------------------------------------

def _free():
    return hsys.jacobi_system(1.0, 0.0, (-40, 40))


_Z = 0.5 + 0.5j
_D = hsys.dirichlet(1)


def _whole_kernel(sys_, alpha):
    mp, mm = (hwl.limit_m(sys_, _Z, 0, _D, d).M_pm for d in (+1, -1))
    return hg.build_whole_kernel(sys_, _Z, 0, alpha, mp, mm, (-10, 10))


_ENTRY_POINTS = {
    "limit_m-exact": lambda s, al: hwl.limit_m(s, _Z, 0, al, +1),
    "limit_m-chase": lambda s, al: hwl.limit_m(
        s, _Z, 0, al, +1, hwl.LimitOptions(ell_schedule=[8, 16])),
    "regular_m_evaluator": lambda s, al: hwl.regular_m_evaluator(s, 0, 10, al, _D),
    "herglotz_check-direction": lambda s, al: hwl.herglotz_check(
        s, [_Z], 0, al, direction=1),
    "far_walk": lambda s, al: list(hwl._far_walk(s, _Z, 0, al, _D, [[8, 16]])),
    "build_whole_kernel": _whole_kernel,
}


@pytest.mark.parametrize("entry", _ENTRY_POINTS)
def test_base_data_of_nonzero_sign_class_is_an_input_error(entry):
    alpha = hsys.make_boundary_data([[1, 1j]])
    assert alpha.sign_class == "nonpositive"
    with pytest.raises(InputError, match="self-adjoint"):
        _ENTRY_POINTS[entry](_free(), alpha)


@pytest.mark.parametrize("direction", [+1, -1])
def test_weighted_base_data_with_a_singular_hat_is_an_input_error(direction):
    with pytest.raises(InputError, match="singular"):
        hwl.limit_m(_free(), _Z, 0, np.array([[1, 1j]]), direction)


# ---------------------------------------------------------------------------
# a weight that is not positive definite, and boundary data of deficient rank
# ---------------------------------------------------------------------------

_WEIGHT_ENTRY_POINTS = {
    "initial_hat": lambda s: hp.initial_hat(s, 0, _D),
    "fundamental": lambda s: hp.fundamental(s, _Z, 0, _D, (0, 10)),
    "limit_m": lambda s: hwl.limit_m(s, _Z, 0, _D, +1),
}


@pytest.mark.parametrize("entry", _WEIGHT_ENTRY_POINTS)
def test_a_weight_that_is_not_positive_definite_is_an_input_error(entry):
    # built directly, so no loader has judged rho
    free = hsys.jacobi_system(1.0, 0.0, (0, 20))
    negative = hsys.HamiltonianSystem(1, free.window, free._A, free._B, -1.0)
    with pytest.raises(InputError, match="rho at site 0 is not positive definite"):
        _WEIGHT_ENTRY_POINTS[entry](negative)


def _nearly_rank_one(n):
    """n draws of m = 2 boundary data whose singular values are 1 and 3e-10."""
    rng = np.random.default_rng(31)
    return [la.haar_unitary(2, rng) @ np.diag([1.0, 3e-10]) @ la.haar_unitary(4, rng)[:2]
            for _ in range(n)]


def test_boundary_data_of_unresolvable_rank_is_an_input_error():
    # gamma gamma* has eigenvalues 1 and 9e-20, below the rounding of the
    # one that the normalization divides by
    for raw in _nearly_rank_one(200):
        with pytest.raises(InputError, match="rank deficient"):
            hsys.make_boundary_data(raw)


def test_limit_with_alpha_of_unresolvable_rank_exits_2(tmp_path, capsys):
    path = tmp_path / "free.json"
    hsys.save_coefficients(hsys.jacobi_system(np.eye(2), np.zeros((2, 2)), (-20, 20)), path)
    alpha = json.dumps([[[v.real, v.imag] for v in row] for row in _nearly_rank_one(1)[0]])
    assert cli.main(["limit", "--input", str(path), "--alpha", alpha]) == 2
    assert capsys.readouterr().err.startswith("input error: boundary data is rank deficient")
