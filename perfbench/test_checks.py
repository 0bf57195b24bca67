"""Self-tests of the benchmark's correctness checks.

    python3 perfbench/test_checks.py        (or: python3 -m pytest perfbench)

Each check must accept the right answer and reject a planted wrong one: a
shifted eigenvalue, a perturbed M, a perturbed kernel column, and
self-checks that report a zero defect without checking anything.
"""

import json
import os
import sys
import types
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks as ck  # noqa: E402
import gen_inputs as gi  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SEED = 3


def _ctx(tmp, stems):
    import hamweyl
    import hamweyl.cli

    inputs = gi.write_inputs(SEED, tmp, stems)
    systems = {s: hamweyl.load_coefficients(os.path.join(tmp, s + ".json")) for s in stems}
    return wl.Ctx(hamweyl, hamweyl.cli, inputs, tmp, systems, tracing.Tracer(False), SEED)


def _tmp():
    path = os.path.join(HERE, ".work", "selftest")
    os.makedirs(path, exist_ok=True)
    return path


def test_shifted_eigenvalue():
    lam = ck.free_chain_eigenvalues(16)
    assert ck.check_eigs(lam, lam) is None
    shifted = lam.copy()
    shifted[5] += 1e-6
    assert ck.check_eigs(shifted, lam) is not None
    assert ck.check_eigs(lam[1:], lam) is not None


def test_eig_command_against_closed_form():
    ctx = _ctx(_tmp(), ["free_m1"])
    op = wl.op_eig(ctx, "free_m1", 10, (-0.5, 4.5), 201, ck.free_chain_eigenvalues(10))
    assert op.check(op.run()) is None
    wrong = wl.op_eig(ctx, "free_m1", 10, (-0.5, 4.5), 201,
                      ck.free_chain_eigenvalues(10) + 1e-7)
    assert wrong.check(wrong.run()) is not None


def test_perturbed_m():
    c = gi.make_inputs(SEED, ["mg_jacobi_m2"])["mg_jacobi_m2"]
    dense = ck.DenseRegular(c, 0, 20)
    z = 0.3 + 0.4j
    M = dense.m_of(z)
    assert ck.check_m(M, dense.m_of(z)) is None
    assert ck.check_herglotz(M, +1) is None
    assert ck.check_m(M + 1e-7, dense.m_of(z)) is not None
    assert ck.check_herglotz(M.conj().T, +1) is not None


def test_mfun_command_rejects_perturbed_output():
    ctx = _ctx(_tmp(), ["mg_jacobi_m2"])
    op = wl.op_mfun(ctx, "mg_jacobi_m2", 16, "-1:3:3,0.4:1:2")
    rc, text = op.run()
    assert op.check((rc, text)) is None
    key = '"M_01_re": '
    i = text.index(key) + len(key)
    j = text.index(",", i)
    bent = text[:i] + repr(float(text[i:j]) + 1e-6) + text[j:]
    assert op.check((rc, bent)) is not None


def test_perturbed_kernel_column():
    ctx = _ctx(_tmp(), ["free_m1"])
    z = 0.5 + 0.5j
    rc, text = ctx.cli_call(["green", "--input", ctx.path("free_m1"),
                             "--z=0.5,0.5", "--window=-10,10"])
    op = wl.op_green(ctx, "free_m1", z, 10)
    assert op.check((rc, text)) is None
    doc = json.loads(text)
    doc["rows"][7]["K_10_re"] += 1e-6
    assert op.check((rc, json.dumps(doc))) is not None
    c = ctx.inputs["free_m1"]
    col = {r["k"]: wl._mat(r, "K", 2) for r in json.loads(text)["rows"]}
    assert ck.check_kernel(c, z, col, 0) is None
    col[3] = col[3] * (1 + 1e-6)
    assert ck.check_kernel(c, z, col, 0) is not None


def test_lazy_checkers_are_rejected():
    ctx = _ctx(_tmp(), ["free_m1"])
    hw = ctx.hw
    systems = [("jacobi_m2", hw.testkit.random_system(2, (0, 301), 5, "jacobi"))]
    real = wl.ops_identities(ctx, systems)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert all(op.check(op.run()) is None for op in real)

    zero = lambda *a, **k: 0.0  # noqa: E731
    lazy_propagate = types.SimpleNamespace(**{**vars(hw.propagate),
                                              "lagrange_telescoping_check": zero,
                                              "fundamental_pair_defect": zero})
    lazy_weyl = types.SimpleNamespace(**{
        **vars(hw.weyl),
        "herglotz_check": lambda *a, **k: hw.weyl.HerglotzReport(rows=[], violations=[]),
        "riccati_residual": lambda sys_, z, V, **k: hw.weyl.RiccatiResidualReport(
            norms={k: 0.0 for k in V}, errors={}),
    })
    lazy_hw = types.SimpleNamespace(**{**vars(hw), "propagate": lazy_propagate,
                                       "weyl": lazy_weyl})
    lazy_ctx = wl.Ctx(lazy_hw, ctx.cli, ctx.inputs, ctx.input_dir, ctx.systems,
                      ctx.tr, SEED)
    lazy = wl.ops_identities(lazy_ctx, systems)
    assert [op.family for op in lazy] == [op.family for op in real]
    for op in lazy:
        assert op.check(op.run()) is not None, op.name


def test_solve_rejects_wrong_source():
    ctx = _ctx(_tmp(), ["free_m1"])
    z = 0.5 + 0.5j
    op = wl.op_solve(ctx, "free_m1", z, 10, 3)
    result = op.run()
    assert op.check(result) is None
    other = wl.op_solve(ctx, "free_m1", z, 10, 4)
    assert other.check(result) is not None


def main() -> int:
    failed = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except AssertionError as e:
                failed += 1
                print(f"FAIL {name}: {e}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
