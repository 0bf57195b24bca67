"""One owner for each rule on the problem data, and its typed error at every
entry point.

The rules: z is finite with Im z != 0 (``weyl._admissible_z``), the base
data alpha is self-adjoint (``system._self_adjoint``, checked where the
base hat is formed; ``weyl._base_hat`` forms its inverse), M at a batch of z
or EigenvalueHitError at the first pole (``weyl._m_at``), the doubling
far-site schedule (``weyl._default_schedule``) and the sides of a Green's
kernel (``green._SIDES``). The guards below read the source; the other
tests call each public entry point with data that breaks a rule.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from hamweyl import cli
from hamweyl import green as hg
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
