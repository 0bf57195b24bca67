import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from hamweyl import cli
from hamweyl import system as hsys
from hamweyl.cli import _json_default, _json_text, main

from conftest import make_free_jacobi


@pytest.fixture
def free_fixture(tmp_path):
    path = tmp_path / "free.json"
    hsys.save_coefficients(make_free_jacobi((-30, 30)), path)
    return str(path)


@pytest.fixture
def broken_fixture(tmp_path):
    sysj = make_free_jacobi((0, 11))
    full = hsys.HamiltonianSystem(
        1, sysj.window, sysj._A.copy(), sysj._B.copy(), sysj._rho.copy())
    doc = hsys.system_to_dict(full)
    doc["B"][2][1] = [doc["B"][2][1][0], 0.7]  # non-Hermitian bump
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_validate_ok_and_broken(free_fixture, broken_fixture, tmp_path):
    out = tmp_path / "v.json"
    rc = main(["validate", "--input", free_fixture, "--format", "json",
               "--output", str(out), "--no-timestamp"])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["meta"]["passed"] is True
    rc2 = main(["validate", "--input", broken_fixture, "--output", "-",
                "--no-timestamp"])
    assert rc2 == 2


@pytest.mark.parametrize("argv", [["mfun", "--ell", "4", "--z", "0.5,0.5"],
                                  ["eig", "--ell", "4"]])
def test_nonpositive_rho_exits_2(tmp_path, capsys, argv):
    sysj = make_free_jacobi((0, 5))
    doc = hsys.system_to_dict(hsys.HamiltonianSystem(
        1, sysj.window, sysj._A, sysj._B, -1.0))
    path = tmp_path / "rho.json"
    path.write_text(json.dumps(doc))
    assert main(argv[:1] + ["--input", str(path), "--output", "-"] + argv[1:]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: rho at site 0") and "Traceback" not in err


def test_validate_malformed_input(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["validate", "--input", str(bad), "--output", "-"]) == 2


def test_usage_errors(free_fixture):
    assert main([]) == 1
    assert main(["mfun", "--input", free_fixture]) == 1      # missing z
    assert main(["eig", "--input", free_fixture]) == 1       # missing ell
    assert main(["nonsense"]) == 1
    assert main(["eig"]) == 1                                # missing input


@pytest.mark.parametrize("argv", [
    ["disk", "--ell-schedule", "4,x"],
    ["mfun", "--ell", "5", "--z-grid", "0:1:0,0.1:1:2"],
    ["mfun", "--ell", "5", "--z-grid", "0:inf:3,0.1:1:2"],
    ["solve", "--z", "0.5,0.5", "--window=-5,5", "--seed", "-1"],
    ["disk", "--z", "nan,1", "--ell-schedule", "4,8"],
    ["limit", "--z", "inf,1"],
    ["green", "--z", "0.5,inf", "--window=-5,5"],
    ["limit", "--z", "0.5+0.4x"],
    # a list option with no entries
    ["disk", "--z", "0.5,0.5", "--ell-schedule", ","],
    ["green", "--z", "0.5,0.5", "--window=-5,5", "--pairs", ";"],
    ["measure", "--ell", "5", "--eps-schedule", ","],
])
def test_bad_option_values_are_usage_errors(free_fixture, capsys, argv):
    assert main(argv[:1] + ["--input", free_fixture] + argv[1:]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "Traceback" not in err


@pytest.mark.parametrize("grid_n", ["0", "-1"])
def test_measure_empty_grid_is_an_input_error(free_fixture, grid_n):
    assert main(["measure", "--input", free_fixture, "--ell", "5",
                 "--grid-n", grid_n]) == 2


def test_validate_gram_overflow_exits_3(free_fixture, capsys):
    rc = main(["validate", "--input", free_fixture, "--interval", "0,300",
               "--z=-2,0.5"])
    assert rc == 3
    assert "not finite" in capsys.readouterr().err


def test_validate_unresolved_definiteness_exits_3(tmp_path, capsys):
    # the benchmark's constant m = 2 Jacobi input: at z = -2 + 0.5i on the
    # default interval (-120, -109) lambda_min is 0.6, inside its rounding
    # floor of 3.4, so its verdict is unresolved, not a failure
    p = np.array([[1.0, 0.25j], [-0.25j, 0.8]])
    q = np.array([[0.3, 0.1], [0.1, -0.2]])
    path = tmp_path / "const_m2.json"
    hsys.save_coefficients(hsys.jacobi_system(p, q, (-120, 120)), path)
    out = tmp_path / "v.json"
    rc = main(["validate", "--input", str(path), "--format", "json",
               "--output", str(out), "--no-timestamp"])
    assert rc == 3
    assert "validate: unresolved (3 records)" in capsys.readouterr().err
    doc = json.loads(out.read_text())
    assert [r["kind"] for r in doc["rows"]] == ["definite", "definite", "unresolved"]
    assert doc["meta"]["passed"] is False


def test_main_never_rebuilds_the_parser(free_fixture, monkeypatch):
    def rebuild():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli, "build_parser", rebuild)
    assert main(["limit", "--input", free_fixture, "--z", "0.5,0.5"]) == 0


def _free_dirichlet(ell, j0, j1):
    """Dirichlet eigenvalues 2 - 2 cos(j pi / ell), j = j0..j1, of the free
    chain on [0, ell]."""
    return 2 - 2 * np.cos(np.arange(j0, j1 + 1) * np.pi / ell)


def _json_eigenvalues(argv, out):
    assert main(argv + ["--format", "json", "--output", str(out),
                        "--no-timestamp"]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert all(list(r) == ["index", "eigenvalue"] for r in rows)
    return np.array([r["eigenvalue"] for r in rows])


def test_eig_matches_dirichlet_spectrum(free_fixture, tmp_path):
    out = tmp_path / "e.csv"
    rc = main(["eig", "--input", free_fixture, "--k0", "0", "--ell", "11",
               "--interval=-0.5,4.5", "--grid-n", "1501",
               "--output", str(out), "--no-timestamp"])
    assert rc == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    rows = lines[1:]
    assert len(rows) == 10
    eigs = np.array([float(r.split(",")[1]) for r in rows])
    expect = 2 - 2 * np.cos(np.arange(1, 11) * np.pi / 11)
    assert np.max(np.abs(np.sort(eigs) - np.sort(expect))) < 1e-8
    assert lines[0] == "index,eigenvalue"


def test_eig_inside_the_interval(free_fixture, tmp_path):
    # (0.5, 4.5] excludes the two lowest eigenvalues 0.081 and 0.317
    eigs = _json_eigenvalues(["eig", "--input", free_fixture, "--ell", "11",
                              "--interval=0.5,4.5"], tmp_path / "e.json")
    assert len(eigs) == 8
    assert np.max(np.abs(eigs - _free_dirichlet(11, 3, 10))) < 1e-8


def test_eig_interval_end_within_rounding_of_an_eigenvalue(free_fixture, tmp_path):
    # the interval starts within rounding below the eigenvalue
    # (3 - sqrt 5)/2 = 2 - 2 cos(pi/5) of the ell=10 problem, which the
    # count leaves outside (a, b]
    eigs = _json_eigenvalues(["eig", "--input", free_fixture, "--ell", "10",
                              "--interval=0.3819660112501047,4.5"],
                             tmp_path / "e.json")
    assert len(eigs) == 7 and eigs[0] > 0.8
    assert np.max(np.abs(eigs - _free_dirichlet(10, 3, 9))) < 1e-8


def test_eig_on_a_long_chain_runs_in_bounded_memory(tmp_path):
    # 3001 sites: the count needs about 0.1 GB, a dense (n m)^2 matrix
    # about 0.5 GB. wait4 reads this child's own peak RSS, which other
    # tests' children cannot raise.
    path = tmp_path / "long.json"
    hsys.save_coefficients(hsys.jacobi_system(lambda k: 1.0, lambda k: 0.0,
                                              (0, 3000)), path)
    out = tmp_path / "e.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(cli.__file__).parents[1]),
                      os.environ.get("PYTHONPATH")])))
    pid = os.posix_spawn(sys.executable, [
        sys.executable, "-c", "import sys; from hamweyl.cli import main; "
        "sys.exit(main(sys.argv[1:]))", "eig", "--input", str(path),
        "--ell", "3000", "--interval=0,0.01", "--format", "json",
        "--output", str(out), "--no-timestamp"], env)
    _, status, usage = os.wait4(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    rows = json.loads(out.read_text())["rows"]
    assert len(rows) == 95 and all(list(r) == ["index", "eigenvalue"] for r in rows)
    eigs = np.array([r["eigenvalue"] for r in rows])
    assert np.max(np.abs(eigs - _free_dirichlet(3000, 1, 95))) < 1e-10
    peak_mb = usage.ru_maxrss / 1024  # kB on Linux
    assert peak_mb < 250


def test_mfun_grid_herglotz_column(free_fixture, tmp_path):
    out = tmp_path / "m.csv"
    rc = main(["mfun", "--input", free_fixture, "--ell", "11",
               "--z-grid=-1:5:10,0.1:1:10", "--output", str(out),
               "--no-timestamp"])
    assert rc == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    rows = lines[1:]
    assert len(rows) == 100
    ok_col = header.index("herglotz_ok")
    assert all(r.split(",")[ok_col] == "True" for r in rows)


def test_numerical_failures_exit_3(free_fixture, tmp_path):
    # below the spectrum of the ell=1000 chain the eigenvalue count has
    # nothing to overflow: no rows, exit 0
    path = tmp_path / "long.json"
    hsys.save_coefficients(make_free_jacobi((0, 1000)), path)
    out = tmp_path / "e.json"
    rc = main(["eig", "--input", str(path), "--ell", "1000",
               "--interval=-3,-1", "--format", "json",
               "--output", str(out), "--no-timestamp"])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["rows"] == [] and doc["meta"]["count"] == 0
    # a grid point on a Dirichlet eigenvalue of [0, 11] is an M hit
    lam = float(2 - 2 * np.cos(np.pi / 11))
    rc2 = main(["mfun", "--input", free_fixture, "--ell", "11",
                f"--z={lam!r},1e-15", "--output", str(tmp_path / "m.csv"),
                "--no-timestamp"])
    assert rc2 == 3


def test_non_finite_boundary_data_is_an_input_error(free_fixture, tmp_path):
    rc = main(["mfun", "--input", free_fixture, "--ell", "11", "--z", "0.5,1",
               "--alpha", "[[NaN, 0]]", "--output", str(tmp_path / "m.csv"),
               "--no-timestamp"])
    assert rc == 2


def test_workers_flag_is_ignored(free_fixture, tmp_path):
    outs = [tmp_path / "w1.csv", tmp_path / "w4.csv"]
    for out, workers in zip(outs, ("1", "4")):
        rc = main(["mfun", "--input", free_fixture, "--ell", "11",
                   "--z-grid=-1:5:4,0.1:1:3", "--workers", workers,
                   "--output", str(out), "--no-timestamp"])
        assert rc == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_outputs_are_deterministic(free_fixture, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        rc = main(["disk", "--input", free_fixture, "--z", "0,1",
                   "--ell-max", "16", "--output", str(out), "--no-timestamp"])
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()


def test_timestamp_header_toggle(free_fixture, tmp_path):
    out1, out2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    main(["limit", "--input", free_fixture, "--z", "0,1",
          "--output", str(out1)])
    main(["limit", "--input", free_fixture, "--z", "0,1",
          "--output", str(out2), "--no-timestamp"])
    assert any(l.startswith("# generated") for l in out1.read_text().splitlines())
    assert not any(l.startswith("# generated")
                   for l in out2.read_text().splitlines())


def test_green_and_solve_commands(free_fixture, tmp_path):
    gout = tmp_path / "g.csv"
    rc = main(["green", "--input", free_fixture, "--z", "0,1",
               "--variant", "whole", "--window=-8,8",
               "--pairs", "0,3;3,3;5,2", "--output", str(gout),
               "--no-timestamp"])
    assert rc == 0
    lines = [l for l in gout.read_text().splitlines()]
    assert any(l.startswith("# delta_defect") for l in lines)
    sout = tmp_path / "s.json"
    rc2 = main(["solve", "--input", free_fixture, "--z", "0,1",
                "--variant", "half-plus", "--window=0,10",
                "--impulse-site", "4", "--format", "json",
                "--output", str(sout), "--no-timestamp"])
    assert rc2 == 0
    meta = json.loads(sout.read_text())["meta"]
    assert float(meta["residual_max"]) < 1e-9
    assert meta["l2a_ok"] is True
    # the left half line with Neumann data at k0: its window is cut at k0,
    # and only the minus side has a flux
    mout = tmp_path / "m.json"
    rc3 = main(["solve", "--input", free_fixture, "--z", "0,1",
                "--variant", "half-minus", "--alpha", "neumann", "--window=-10,10",
                "--impulse-site", "-4", "--format", "json",
                "--output", str(mout), "--no-timestamp"])
    assert rc3 == 0
    doc = json.loads(mout.read_text())
    assert [r["k"] for r in doc["rows"]] == list(range(-10, 1))
    assert doc["meta"]["variant"] == "half_minus" and doc["meta"]["l2a_ok"] is True
    assert float(doc["meta"]["residual_max"]) < 1e-9
    assert "flux_ratio_minus" in doc["meta"] and "flux_ratio_plus" not in doc["meta"]


@pytest.mark.parametrize("argv", [
    ["mfun", "--ell", "11", "--z", "1,0"],
    ["mfun", "--ell", "11", "--z-grid=-1:5:3,0:1:2"],
    ["disk", "--z", "1,0", "--ell-max", "16"],
    ["disk", "--z", "1,0", "--ell-schedule", ","],
    ["limit", "--z", "1,0"],
    ["green", "--z", "1,0", "--window=-5,5"],
    ["solve", "--z", "1,0", "--window=-5,5"],
])
def test_a_real_z_is_an_input_error(free_fixture, capsys, argv):
    # a z that parses but is real breaks the hypothesis Im z != 0 of every
    # command that takes one, before any row is written
    assert main(argv[:1] + ["--input", free_fixture, "--output", "-"] + argv[1:]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("input error: ") and "Im z != 0" in err


@pytest.mark.parametrize("argv", [["limit"], ["green", "--window=-5,5"],
                                  ["solve", "--window=-5,5"]])
def test_base_data_that_is_not_self_adjoint_is_an_input_error(free_fixture, capsys, argv):
    # [[1, i]] has sign class nonpositive, and its initial hat is singular
    assert main(argv[:1] + ["--input", free_fixture, "--output", "-", "--z", "0.5,0.5",
                            "--alpha", "[[[1,0],[0,1]]]"] + argv[1:]) == 2
    assert "self-adjoint" in capsys.readouterr().err


def test_disk_ell_max_below_k0_doubles_toward_it(free_fixture, capsys):
    # the same doubling schedule as above k0, mirrored
    for ell_max, ells in ((-16, [-4, -8, -16]), (-18, [-4, -8, -16, -18]),
                          (16, [4, 8, 16]), (-3, [-3])):
        assert main(["disk", "--input", free_fixture, "--z", "0.5,0.4",
                     "--ell-max", str(ell_max), "--format", "json",
                     "--no-timestamp"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [r["ell"] for r in rows] == ells
    assert main(["disk", "--input", free_fixture, "--ell-max", "0"]) == 2


@pytest.mark.parametrize("window", [["--window=0,1"],
                                    ["--variant", "half-plus", "--window=-1,1"]])
def test_solve_on_a_one_step_window(free_fixture, tmp_path, window):
    # the kernel and the solve certify on one step; the flux sample must
    # stay inside the window instead of failing the command
    out = tmp_path / "s.json"
    rc = main(["solve", "--input", free_fixture, "--z=1,0.5", *window,
               "--format", "json", "--output", str(out), "--no-timestamp"])
    assert rc == 0
    meta = json.loads(out.read_text())["meta"]
    assert meta["flux_ratio_plus"] == 1.0   # one sampled site: no trend
    assert float(meta["residual_max"]) < 1e-9


def test_general_system_through_cli(tmp_path):
    from hamweyl import testkit as htk

    sysr = htk.random_system(2, (-12, 12), seed=55, cls="general_A12zero")
    path = tmp_path / "general.json"
    hsys.save_coefficients(sysr, path)
    assert main(["validate", "--input", str(path), "--no-timestamp",
                 "--output", str(tmp_path / "v.csv")]) == 0
    rc = main(["mfun", "--input", str(path), "--k0", "0", "--ell", "8",
               "--z-grid=-1:1:3,0.4:1:2", "--format", "json",
               "--output", str(tmp_path / "m.json"), "--no-timestamp"])
    assert rc == 0
    doc = json.loads((tmp_path / "m.json").read_text())
    assert len(doc["rows"]) == 6
    assert all(r["herglotz_ok"] for r in doc["rows"])
    rc2 = main(["green", "--input", str(path), "--z", "0.3,0.8",
                "--variant", "whole", "--window=-6,6",
                "--pairs", "0,2;2,2", "--format", "json",
                "--output", str(tmp_path / "g.json"), "--no-timestamp"])
    assert rc2 == 0
    meta = json.loads((tmp_path / "g.json").read_text())["meta"]
    assert float(meta["delta_defect"]) < 1e-8


def test_measure_command(free_fixture, tmp_path):
    out = tmp_path / "me.csv"
    with pytest.warns(RuntimeWarning, match="schedule"):
        # the window contains a point mass, so the raw-increment schedule
        # flag fires; the command surfaces it as a diagnostic and proceeds
        rc = main(["measure", "--input", free_fixture, "--ell", "6",
                   "--interval=0.5,1.5", "--grid-n", "40",
                   "--eps-schedule", "2e-6,1e-6", "--output", str(out),
                   "--no-timestamp"])
    assert rc == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert len(lines) == 41  # header + 40 bins
    tr = [float(r.split(",")[-1]) for r in lines[1:]]
    assert all(t > -1e-12 for t in tr)
    # one eigenvalue of the ell=6 problem lies in this window
    assert sum(t for t in tr) > 0.05


@pytest.mark.parametrize("eps", ["inf", "nan", "1e-4,nan", "inf,1e-5"])
def test_measure_with_a_non_finite_eps_is_an_input_error(free_fixture, capsys, eps):
    # before the schedule check these ran the quadrature until memory ran out
    assert main(["measure", "--input", free_fixture, "--ell", "6",
                 "--eps-schedule", eps]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("input error: eps schedule must be positive and finite")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_disk_on_a_long_window(tmp_path):
    # the fundamental hats pass the float range near ell = 450; the disk
    # walk keeps them rescaled, so every row stays finite and on the circle
    from hamweyl import testkit as htk

    sysj = make_free_jacobi((0, 1000))
    path, out = tmp_path / "long.json", tmp_path / "d.json"
    hsys.save_coefficients(sysj, path)
    z = -3 + 0.1j
    rc = main(["disk", "--input", str(path), "--z=-3,0.1",
               "--ell-schedule", "20,100,200,300,450,600", "--format", "json",
               "--output", str(out), "--no-timestamp"])
    assert rc == 0
    rows = json.loads(out.read_text())["rows"]
    assert [r["ell"] for r in rows] == [20, 100, 200, 300, 450, 600]
    assert all(r["membership"] == "circle" for r in rows)
    assert not any(isinstance(v, float) and np.isnan(v)
                   for r in rows for v in r.values())
    diam = np.array([r["diameter"] for r in rows])
    assert np.all(np.isfinite(diam)) and np.all(diam >= 0)
    assert np.all(np.diff(diam) <= 0)
    v = htk.constant_riccati_fixed_point(sysj, z, +1)[0, 0]
    for r in rows:
        assert abs(complex(r["M_00_re"], r["M_00_im"]) + v) <= 1e-12 * (1 + abs(v))


def test_failed_kernel_certificate_exits_3(tmp_path):
    # const_m2 at 0.5+0.5i: on +-80 the kernel's delta defect near k0 is
    # ~7e-2, so green and solve refuse it; on +-40 it certifies, but the
    # solve's relative residual (~1e-2) fails its own gate; on +-20 the
    # solve holds (~3e-10)
    p = np.array([[1.0, 0.25j], [-0.25j, 0.8]])
    q = np.array([[0.3, 0.1], [0.1, -0.2]])
    path = tmp_path / "const_m2.json"
    hsys.save_coefficients(
        hsys.jacobi_system(lambda k: p, lambda k: q, (-120, 120)), path)
    for command, cases in (("green", ((80, 3), (40, 0))),
                           ("solve", ((80, 3), (40, 3), (20, 0)))):
        for w, rc in cases:
            assert main([command, "--input", str(path), "--z", "0.5,0.5",
                         f"--window=-{w},{w}", "--no-timestamp",
                         "--output", str(tmp_path / "k.csv")]) == rc


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_disk_walk_survives_a_chunk_that_overflows(tmp_path):
    # p = 1e-20: each step grows the hats by about 1e20, past the float
    # range inside one 16-site chunk; the walk redoes such a chunk site by
    # site, so every row stays on the circle with the regular M
    from hamweyl import weyl as hwl

    sys_ = hsys.jacobi_system(1e-20, 0.0, (0, 100), extension="error")
    path, out = tmp_path / "tiny.json", tmp_path / "d.json"
    hsys.save_coefficients(sys_, path)
    sched = [8, 16, 32, 64, 100]
    rc = main(["disk", "--input", str(path), "--z", "0.5,0.5",
               "--ell-schedule", ",".join(map(str, sched)), "--format", "json",
               "--output", str(out), "--no-timestamp"])
    assert rc == 0
    rows = json.loads(out.read_text())["rows"]
    assert [r["ell"] for r in rows] == sched
    assert all(r["membership"] == "circle" for r in rows)
    # the diameter (2e-40)**ell underflows to 0 rather than overflowing
    assert all(0.0 <= r["diameter"] < 1e-300 for r in rows)
    for r in rows:
        ev = hwl.regular_m_evaluator(sys_, 0, r["ell"], hsys.dirichlet(1),
                                     hsys.dirichlet(1))
        assert complex(r["M_00_re"], r["M_00_im"]) == ev(0.5 + 0.5j)[0, 0]


VALID_JACOBI = {"p": [[[1.0, 0.0]]], "q": [[[0.0, 0.0]]]}


@pytest.mark.parametrize("doc", [
    [1, 2],                                                   # top-level list
    {"m": 1, "k_min": 0, "jacobi": [1, 2]},                   # block not an object
    {"m": 1, "k_min": 0, "jacobi": {"p": [[[1.0, 0.0]]]}},    # jacobi without q
    {"m": 1, "k_min": 0, "dirac": {}},                        # dirac without b
    {"m": "two", "k_min": 0, "jacobi": VALID_JACOBI},         # m not an integer
    {"m": 0, "k_min": 0, "A": [], "B": [], "rho": []},        # m = 0
    {"m": 1, "k_min": 0, "jacobi": {"p": [], "q": []}},       # no sites
    {"m": 1, "k_min": 0, "jacobi": {"p": [[["a", "b"]]],      # string entries
                                    "q": [[[0.0, 0.0]]]}},
    {"m": 1, "k_min": 0, "jacobi": {"p": [[[10 ** 400, 0]]],  # beyond floats
                                    "q": [[[0.0, 0.0]]]}},
], ids=["list", "jacobi-list", "no-q", "no-b", "m-word", "m-zero", "empty-pq",
        "string-pair", "huge-int"])
def test_malformed_coefficient_documents_exit_2(tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", "--input", str(path), "--output", "-"]) == 2


# ---------------------------------------------------------------------------
# JSON output: the per-dict C encoding is byte for byte json.dumps(indent=1)
# ---------------------------------------------------------------------------

def _reference_json(meta, rows):
    return json.dumps({"meta": meta, "rows": rows}, indent=1,
                      default=_json_default) + "\n"


@pytest.mark.parametrize("meta, rows", [
    ({"x": float("nan"), "inf": float("inf"), "ninf": -float("inf")},
     [{"a": float("nan"), "b": -float("inf"), "c": -0.0, "d": 1e-310}]),
    ({"f": np.float64(0.1), "i": np.int64(-3), "b": np.bool_(True),
      "f32": np.float32(0.1)},
     [{"i": np.int64(7), "b": np.bool_(False), "t": True, "n": 12}]),
    ({"none": None}, [{"delta_defect": None, "v": 2.5}, {"w": None}]),
    ({"s": 'say "hi"\\ back\\slash\nnew line\ttab'},
     [{"name": "Weyl–Titchmarsh ∞ é 中 \U0001f600", "k\"ey": "\x00\x1f"}]),
    ({}, []),
    ({"command": "green"}, []),
    ({}, [{}, {"a": 1}, {}]),
    ({"c": 1 + 2j}, [{"z": 0.5 - 1j, "path": Path("in.json")}]),
], ids=["nonfinite", "numpy-scalars", "none", "strings", "empty", "empty-rows",
        "empty-row", "default-str"])
def test_json_writer_is_byte_identical_to_json_dumps(meta, rows):
    assert _json_text(meta, rows) == _reference_json(meta, rows)


def test_green_json_stdout_is_the_reference_encoding(free_fixture, capsys):
    rc = main(["green", "--input", free_fixture, "--z", "0.5,0.5",
               "--window=-10,10", "--format", "json", "--no-timestamp"])
    assert rc == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert len(doc["rows"]) == 21
    assert out == _reference_json(doc["meta"], doc["rows"])


def test_validate_on_a_pencil_that_is_not_well_posed_exits_2(tmp_path, capsys):
    # z A12 + B12 = -1 + 1 = 0 at every site: well-posedness fails, and the
    # definiteness check cannot step, so its row is unresolved, not a crash
    path = tmp_path / "singular.json"
    hsys.save_coefficients(hsys.HamiltonianSystem(
        1, (0, 6), [[1, 1], [1, 1]], [[0, 1], [1, 0]], 1.0), path)
    assert main(["validate", "--input", str(path), "--z=-1,0", "--format", "json",
                 "--no-timestamp"]) == 2
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert {r["kind"] for r in rows[:-1]} == {"pencil_12_singular", "pencil_21_singular"}
    assert len(rows) == 15 and rows[-1]["check"] == "definiteness z=(-1+0j)"
    assert rows[-1]["kind"] == "unresolved" and "pencil at site 1" in rows[-1]["message"]


def test_limit_row_is_inconclusive_when_a_default_schedule_is_off_its_side(tmp_path, capsys):
    # k0 past the right end of a periodic window: the + side's default
    # schedule is the window edge, on the - side, which fails that row alone
    from hamweyl import testkit as htk

    r = htk.random_system(2, (0, 80), 4, "jacobi")
    path = tmp_path / "periodic.json"
    hsys.save_coefficients(hsys.HamiltonianSystem(2, r.window, r._A, r._B, r._rho,
                                                  extension="periodic"), path)
    assert main(["limit", "--input", str(path), "--k0", "100", "--format", "json",
                 "--no-timestamp"]) == 0
    plus, minus = json.loads(capsys.readouterr().out)["rows"]
    assert plus["classification"] == "inconclusive" and plus["ells"] == ""
    assert "far sites [92, 84, 80]" in plus["note"] and "M_00_re" not in plus
    assert minus["classification"] == "limit_point"


def test_z_in_the_complex_literal_form(free_fixture, capsys):
    outs = []
    for z in ("0.5,0.4", "0.5+0.4j"):
        assert main(["limit", "--input", free_fixture, "--z", z, "--no-timestamp"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("m,window,seed,k0", [(1, (0, 20), 3, 10), (2, (0, 30), 4, 15)])
@pytest.mark.parametrize("z", ["1,0.2", "0.5,0.02"])
def test_green_and_solve_refuse_an_inconclusive_half_line_m(tmp_path, capsys, m, window,
                                                            seed, k0, z):
    # a periodic system has no constant tail, and the chase stops at the
    # window edge before its M converges; the kernel's delta certificate
    # holds for any admissible pair, so it cannot see that M is wrong
    from hamweyl import testkit as htk

    r = htk.random_system(m, window, seed, "jacobi")
    path = tmp_path / "periodic.json"
    hsys.save_coefficients(hsys.HamiltonianSystem(m, r.window, r._A, r._B, r._rho,
                                                  extension="periodic"), path)
    common = ["--input", str(path), "--k0", str(k0), "--z", z, "--format", "json",
              "--no-timestamp"]
    assert main(["limit"] + common) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [row["classification"] for row in rows] == ["inconclusive", "inconclusive"]
    for command, variant, side in (("green", "whole", "+"), ("solve", "whole", "+"),
                                   ("green", "half-minus", "-"), ("solve", "half-plus", "+")):
        assert main([command, "--variant", variant] + common) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(
            f"numerical failure: the {side} half-line M at z=") and "inconclusive" in err
        assert rows["+-".index(side)]["note"] in err


def test_the_command_is_named_by_position_only(free_fixture, capsys):
    assert main(["--command", "eig", "--input", free_fixture, "--ell", "11"]) == 1
    assert "unrecognized arguments: --command" in capsys.readouterr().err


_ONE_ROW = "[[1,0]]"  # boundary data of block size 1
_SIZED = {
    "limit": ["limit"],
    "mfun": ["mfun", "--ell", "4", "--z", "0.5,0.5"],
    "eig": ["eig", "--ell", "6"],
    "disk": ["disk", "--ell-schedule", "4,8", "--z", "0.5,0.5"],
    "measure": ["measure", "--ell", "6", "--grid-n", "4"],
    "green": ["green", "--window=-5,5", "--z", "0.5,0.5"],
    "solve": ["solve", "--window=-5,5", "--z", "0.5,0.5"],
}
_INPUT_RULE_CASES = (
    [("m2", _SIZED[c] + ["--alpha", _ONE_ROW]) for c in _SIZED]
    + [("m2", _SIZED[c] + ["--beta", _ONE_ROW]) for c in ("mfun", "eig", "disk", "measure")]
    + [("m1", _SIZED["disk"] + ["--tol", tol]) for tol in ("nan", "-1", "0", "inf")])


@pytest.mark.parametrize("m, argv", _INPUT_RULE_CASES,
                         ids=[" ".join(argv) for _, argv in _INPUT_RULE_CASES])
def test_input_that_breaks_a_rule_exits_2(tmp_path, capsys, m, argv):
    # boundary data of another block size, and a --tol that is not positive
    # and finite, fail the command before any row is written
    path = tmp_path / "free.json"
    p = np.eye(2) if m == "m2" else 1.0
    hsys.save_coefficients(hsys.jacobi_system(p, 0 * p, (-20, 20)), path)
    assert main(argv[:1] + ["--input", str(path), "--output", "-"] + argv[1:]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("input error: ") and "Traceback" not in err
