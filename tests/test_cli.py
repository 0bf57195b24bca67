import json

import numpy as np
import pytest

from hamweyl import system as hsys
from hamweyl.cli import main

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
    # ~7e-2, so green and solve refuse it; on +-40 it certifies
    p = np.array([[1.0, 0.25j], [-0.25j, 0.8]])
    q = np.array([[0.3, 0.1], [0.1, -0.2]])
    path = tmp_path / "const_m2.json"
    hsys.save_coefficients(
        hsys.jacobi_system(lambda k: p, lambda k: q, (-120, 120)), path)
    for command in ("green", "solve"):
        for w, rc in ((80, 3), (40, 0)):
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
