import json
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


def test_command_flag_alias(free_fixture, tmp_path):
    out = tmp_path / "e.csv"
    rc = main(["--command", "eig", "--input", free_fixture, "--ell", "11",
               "--interval=-0.5,4.5", "--grid-n", "801",
               "--output", str(out), "--no-timestamp"])
    assert rc == 0
    rc2 = main(["eig", "--command", "mfun", "--input", free_fixture])
    assert rc2 == 1  # disagreement


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
    devs = [float(r.split(",")[3]) for r in rows]
    assert max(devs) < 1e-8  # oracle comparison column


def test_eig_pairs_oracle_inside_the_interval(free_fixture, tmp_path):
    # (0.5, 4.5] excludes the two lowest eigenvalues 0.081 and 0.317; every
    # row pairs with the oracle eigenvalue of its own rank inside it
    out = tmp_path / "e.json"
    rc = main(["eig", "--input", free_fixture, "--ell", "11",
               "--interval=0.5,4.5", "--format", "json",
               "--output", str(out), "--no-timestamp"])
    assert rc == 0
    rows = json.loads(out.read_text())["rows"]
    assert len(rows) == 8
    assert max(r["deviation"] for r in rows) < 1e-8


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
