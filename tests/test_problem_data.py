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
(``system._check_rho``, wherever a root of rho is taken), the rank of
boundary data (``make_boundary_data``, on the eigenvalues it divides by),
its block size (``system._boundary_of_size``), an m x m M
(``_linalg.as_complex_matrix``), a finite z where Im z may be 0
(``system._finite_z``), a positive and finite epsilon or tolerance
(``weyl._positive``), a finite real interval with b > a
(``weyl._real_interval``) and the extreme eigenvalues of a Hermitian part
(``_linalg.min_eig_herm``, ``_linalg.max_eig_herm``). The guards below
read the source; the other tests call each public entry point with data
that breaks a rule.
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


def _raising(rule: str) -> set:
    """The functions of the package that raise a message containing ``rule``."""
    return {fn.name for path in SRC.glob("*.py") for fn in _functions(path)
            if any(isinstance(node, ast.Constant) and rule in str(node.value)
                   for r in ast.walk(fn) if isinstance(r, ast.Raise)
                   for node in ast.walk(r))}


@pytest.mark.parametrize("rule, owner", [
    ("interval must be finite", "_real_interval"),
    ("must be positive and finite", "_positive"),
    ("block size", "_boundary_of_size"),
    ("spectral parameter must be finite", "_finite_z"),
])
def test_each_input_rule_is_stated_once(rule, owner):
    assert _raising(rule) == {owner}


def test_extreme_eigenvalues_of_a_hermitian_part_come_from_linalg():
    restated = [f"{path.name}:{node.lineno}" for path in SRC.glob("*.py")
                if path.name != "_linalg.py"
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Call)
                and getattr(node.value.func, "attr", None) == "eigvalsh"]
    assert not restated


def test_convergence_error_carries_no_state():
    tree = ast.parse((SRC / "errors.py").read_text())
    cls = next(node for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef) and node.name == "ConvergenceError")
    assert not [node for node in cls.body if isinstance(node, ast.FunctionDef)]


def test_only_the_inward_sweep_takes_qr_or_walks_the_steps():
    # one inward sweep, so every M takes its QR on one cadence
    def sweeps(fn):
        return "qr" in _called(fn) or any(
            isinstance(node, (ast.For, ast.comprehension)) and "_steps" in _called(node.iter)
            for node in ast.walk(fn))

    assert {fn.name for name in ("weyl.py", "green.py")
            for fn in _functions(SRC / name) if sweeps(fn)} == {"_sweep_m"}


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


# ---------------------------------------------------------------------------
# boundary data of another block size, an M of another shape
# ---------------------------------------------------------------------------

_D2 = hsys.dirichlet(2)
# block size 1 in both input forms, on an m = 2 system
_ONE_ROW = {"BoundaryData": hsys.dirichlet(1), "weighted": np.array([[1.0, 0.0]])}
_SIZE_RULE = r"block size m = 2 needs 2 rows|must have shape \(2, 4\)"


def _free2():
    return hsys.jacobi_system(np.eye(2), np.zeros((2, 2)), (-40, 40))


def _half_line_ms(sys_):
    return [hwl.limit_m(sys_, _Z, 0, _D2, d).M_pm for d in (+1, -1)]


def _kernel(variant):
    def build(s, al):
        mp, mm = _half_line_ms(s)
        if variant == "whole":
            return hg.build_whole_kernel(s, _Z, 0, al, mp, mm, (-10, 10))
        if variant == "plus":
            return hg.build_half_kernel_plus(s, _Z, 0, al, mp, (0, 10))
        return hg.build_half_kernel_minus(s, _Z, 0, al, mm, (-10, 0))
    return build


_ALPHA_ENTRY_POINTS = {
    "initial_hat": lambda s, al: hp.initial_hat(s, 0, al),
    "fundamental": lambda s, al: hp.fundamental(s, _Z, 0, al, (0, 10)),
    "disk_context": lambda s, al: hwl.disk_context(s, _Z, 0, 10, al),
    "m_regular": lambda s, al: hwl.m_regular(s, hwl.DiskContext(_Z, 0, 10, al), _D2),
    "regular_m_evaluator": lambda s, al: hwl.regular_m_evaluator(s, 0, 10, al, _D2),
    "limit_m-exact": lambda s, al: hwl.limit_m(s, _Z, 0, al, +1),
    "limit_m-chase": lambda s, al: hwl.limit_m(
        s, _Z, 0, al, +1, hwl.LimitOptions(ell_schedule=[8, 16])),
    "eigenvalues": lambda s, al: hwl.eigenvalues(s, 0, 10, al, _D2, (-1.0, 5.0)),
    "far_walk": lambda s, al: list(hwl._far_walk(s, _Z, 0, al, _D2, [[8, 16]])),
    "build_whole_kernel": _kernel("whole"),
    "build_half_kernel_plus": _kernel("plus"),
    "build_half_kernel_minus": _kernel("minus"),
}


@pytest.mark.parametrize("form", _ONE_ROW)
@pytest.mark.parametrize("entry", _ALPHA_ENTRY_POINTS)
def test_base_data_of_another_block_size_is_an_input_error(entry, form):
    with pytest.raises(InputError, match=_SIZE_RULE):
        _ALPHA_ENTRY_POINTS[entry](_free2(), _ONE_ROW[form])


_BETA_ENTRY_POINTS = {
    "m_regular": lambda s, b: hwl.m_regular(s, hwl.disk_context(s, _Z, 0, 10, _D2), b),
    "regular_m_evaluator": lambda s, b: hwl.regular_m_evaluator(s, 0, 10, _D2, b),
    "limit_m-exact": lambda s, b: hwl.limit_m(s, _Z, 0, _D2, +1, hwl.LimitOptions(beta=b)),
    "limit_m-chase": lambda s, b: hwl.limit_m(
        s, _Z, 0, _D2, +1, hwl.LimitOptions(ell_schedule=[8, 16], beta=b)),
    "eigenvalues": lambda s, b: hwl.eigenvalues(s, 0, 10, _D2, b, (-1.0, 5.0)),
    "far_walk": lambda s, b: list(hwl._far_walk(s, _Z, 0, _D2, b, [[8, 16]])),
    "herglotz_check": lambda s, b: hwl.herglotz_check(s, [_Z], 0, _D2, ell=10, beta=b),
}


@pytest.mark.parametrize("form", _ONE_ROW)
@pytest.mark.parametrize("entry", _BETA_ENTRY_POINTS)
def test_far_data_of_another_block_size_is_an_input_error(entry, form):
    with pytest.raises(InputError, match=_SIZE_RULE):
        _BETA_ENTRY_POINTS[entry](_free2(), _ONE_ROW[form])


def test_a_base_change_between_block_sizes_is_an_input_error():
    with pytest.raises(InputError, match="block size m = 2 needs 2 rows, not 1"):
        hwl.lft_alpha_change(1j * np.eye(2), hsys.dirichlet(1), hsys.neumann(2))


@pytest.mark.parametrize("shape", [(3, 3), (2, 1), (1, 1)])
def test_an_m_of_another_shape_is_an_input_error(shape):
    s = _free2()
    mp, mm = _half_line_ms(s)
    wrong = 1j * np.eye(*shape)
    with pytest.raises(InputError, match=r"M_gamma must have shape \(2, 2\)"):
        hwl.lft_alpha_change(wrong, _D2, hsys.neumann(2))
    for label, build in (
            ("M_plus", lambda: hg.build_whole_kernel(s, _Z, 0, _D2, wrong, mm, (-10, 10))),
            ("M_minus", lambda: hg.build_whole_kernel(s, _Z, 0, _D2, mp, -wrong, (-10, 10))),
            ("M_plus", lambda: hg.build_half_kernel_plus(s, _Z, 0, _D2, wrong, (0, 10))),
            ("M_minus", lambda: hg.build_half_kernel_minus(s, _Z, 0, _D2, -wrong, (-10, 0)))):
        with pytest.raises(InputError, match=rf"{label} must have shape \(2, 2\)"):
            build()


# ---------------------------------------------------------------------------
# a z that is not finite, an epsilon or a tolerance that is not positive
# and finite, an interval that is not finite with b > a
# ---------------------------------------------------------------------------

_FINITE_Z_ENTRY_POINTS = {
    "check_wellposed": lambda s, z: hsys.check_wellposed(s, z),
    "check_definiteness": lambda s, z: hsys.check_definiteness(s, z, (0, 10)),
    "lagrange_telescoping_check-z1":
        lambda s, z: hp.lagrange_telescoping_check(s, z, 1j, 0, 10),
    "lagrange_telescoping_check-z2":
        lambda s, z: hp.lagrange_telescoping_check(s, 1j, z, 0, 10),
}


@pytest.mark.parametrize("z", [complex(np.nan, 1.0), complex(1.0, np.inf), np.nan])
@pytest.mark.parametrize("entry", _FINITE_Z_ENTRY_POINTS)
def test_a_z_that_is_not_finite_is_an_input_error(entry, z):
    with pytest.raises(InputError, match="spectral parameter must be finite"):
        _FINITE_Z_ENTRY_POINTS[entry](_free(), z)


@pytest.mark.parametrize("entry", _FINITE_Z_ENTRY_POINTS)
def test_a_real_z_is_admitted_where_im_z_may_be_0(entry):
    _FINITE_Z_ENTRY_POINTS[entry](_free(), 0.5)


def _evaluator():
    return hwl.regular_m_evaluator(_free(), 0, 10, _D, _D)


_POSITIVE_ENTRY_POINTS = {
    "xi_function-eps": lambda x: hwl.xi_function(_evaluator(), [0.5], x),
    "disk_membership-tol": lambda x: hwl.disk_membership(np.zeros((1, 1)), tol=x),
    "limit_m-tol": lambda x: hwl.limit_m(
        _free(), _Z, 0, _D, +1, hwl.LimitOptions(ell_schedule=[8, 16, 32], tol=x)),
    "herglotz_check-tol": lambda x: hwl.herglotz_check(_free(), [_Z], 0, _D, ell=10, tol=x),
}


@pytest.mark.parametrize("x", [np.nan, 0.0, -1.0, np.inf])
@pytest.mark.parametrize("entry", _POSITIVE_ENTRY_POINTS)
def test_an_eps_or_tol_that_is_not_positive_and_finite_is_an_input_error(entry, x):
    with pytest.raises(InputError, match=r"(eps|tol) must be positive and finite"):
        _POSITIVE_ENTRY_POINTS[entry](x)


_INTERVAL_ENTRY_POINTS = {
    "eigenvalues": lambda iv: hwl.eigenvalues(_free(), 0, 10, _D, _D, iv),
    "spectral_measure": lambda iv: hwl.spectral_measure(_evaluator(), iv, 4, [1e-3]),
}


@pytest.mark.parametrize("interval", [(5.0, -1.0), (1.0, 1.0), (np.nan, 1.0), (0.0, np.inf)])
@pytest.mark.parametrize("entry", _INTERVAL_ENTRY_POINTS)
def test_an_interval_that_is_not_finite_with_b_above_a_is_an_input_error(entry, interval):
    with pytest.raises(InputError, match="interval must be finite with b > a"):
        _INTERVAL_ENTRY_POINTS[entry](interval)
