"""Golden outputs of the far-site walk: ``hamweyl disk`` rows and the
``limit_m`` chase.

``tests/data/disk_rows.json`` and ``tests/data/chase_limits.json`` hold the
output of the walk that swept every far site back to k0 on its own and
restarted the forward hats at every site nearer k0 than the one before it.
The one-pass walk must reproduce them bit for bit. Running this module as a
script prints the current values in the golden files' format.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from hamweyl import system as hsys
from hamweyl import testkit as htk
from hamweyl import weyl as hwl
from hamweyl.cli import main

DATA = Path(__file__).parent / "data"

DISK_SYSTEMS = {
    "jacobi_m1": lambda: htk.random_system(1, (-40, 40), 3, "jacobi"),
    "jacobi_m2": lambda: htk.random_system(2, (-40, 40), 4, "jacobi"),
    "dirac_m2": lambda: htk.random_system(2, (-40, 40), 5, "dirac"),
    "general_m2": lambda: htk.random_system(2, (-40, 40), 6, "general_A12zero"),
}
DISK_SCHEDULES = {
    "monotone": [4, 8, 16, 32],
    "reversed": [32, 16, 8, 4],
    "two_sided": [6, -12, 24, -36],
    "non_monotone": [16, 4, 32, 8],
    "duplicate": [8, 16, 8, 32, 16],
}
DISK_Z = ("0.5,0.4", "1.5,-0.3", "-0.2,0.05")


def _overflow_system():
    # each step grows the hats by about 1e20, past the float range inside
    # one 16-site chunk
    return hsys.jacobi_system(1e-20, 0.0, (0, 100), extension="error")


def disk_cases():
    """(case id, system builder, z argument, schedule) of every disk case."""
    out = [(f"{name}/{sched}/{z}", build, z, DISK_SCHEDULES[sched])
           for name, build in DISK_SYSTEMS.items()
           for sched in DISK_SCHEDULES for z in DISK_Z]
    out += [(f"overflow/{tag}/0.5,0.5", _overflow_system, "0.5,0.5", sched)
            for tag, sched in (("monotone", [8, 16, 32, 64, 100]),
                               ("reversed", [100, 64, 32, 16, 8]))]
    return out


def _disk_rows(build, z, schedule, tmp):
    path, out = tmp / "sys.json", tmp / "disk.json"
    hsys.save_coefficients(build(), path)
    rc = main(["disk", "--input", str(path), f"--z={z}", "--ell-schedule",
               ",".join(map(str, schedule)), "--format", "json",
               "--output", str(out), "--no-timestamp"])
    assert rc == 0
    return [list(r.values()) for r in json.loads(out.read_text())["rows"]]


def _rewrap(sys_, extension):
    return hsys.HamiltonianSystem(sys_.m, sys_.window, sys_._A, sys_._B,
                                  sys_._rho, extension=extension)


def _pole_chase():
    # z is 1e-16 above 2 - 2 cos(pi / 16), an eigenvalue of the regular
    # problem on [0, 16] but not on [0, 8]: M has a pole at the second site
    # of the first doubling block
    sys_ = hsys.jacobi_system(1.0, 0.0, (0, 100), extension="error")
    z = complex(2.0 - 2.0 * np.cos(np.pi / 16), 1e-16)
    return sys_, z, 0, [+1], hwl.LimitOptions(ell_schedule=[8, 16, 32, 64])


def chase_cases():
    """(case id, builder of (system, z, k0, directions, options))."""
    free_error = lambda: hsys.jacobi_system(1.0, 0.0, (-200, 200), extension="error")  # noqa: E731
    periodic = lambda: _rewrap(htk.random_system(2, (0, 80), 4, "jacobi"), "periodic")  # noqa: E731
    return [
        ("error_free/default/1+0.2i", lambda: (free_error(), 1 + 0.2j, 0, [+1, -1], None)),
        ("error_jacobi_m2/default/0.5+0.5i",
         lambda: (_rewrap(htk.random_system(2, (0, 100), 3, "jacobi"), "error"),
                  0.5 + 0.5j, 50, [+1, -1], None)),
        ("periodic_m2/default/1+0.2i", lambda: (periodic(), 1 + 0.2j, 40, [+1, -1], None)),
        ("periodic_m2/default/0.5+0.02i", lambda: (periodic(), 0.5 + 0.02j, 40, [+1, -1], None)),
        ("free/early/1+0.5i",
         lambda: (hsys.jacobi_system(1.0, 0.0, (-300, 300)), 1 + 0.5j, 0, [+1],
                  hwl.LimitOptions(ell_schedule=[8, 16, 32, 64, 128, 256]))),
        ("free_error/pole_in_block", _pole_chase),
    ]


def _hex(x):
    return float(x).hex()


def limit_fields(lim):
    """Every field of a HalfLineLimit, floats as hex strings."""
    return {
        "M_pm": None if lim.M_pm is None else
        [[_hex(v.real), _hex(v.imag)] for v in lim.M_pm.ravel()],
        "direction": lim.direction,
        "ell_sequence": [int(e) for e in lim.ell_sequence],
        "cauchy_gap": _hex(lim.cauchy_gap),
        "diameter_estimate": _hex(lim.diameter_estimate),
        "classification": lim.classification,
        "beta": [[_hex(v.real), _hex(v.imag)] for v in lim.beta.gamma.ravel()],
        "gaps": [_hex(g) for g in lim.gaps],
        "diameters": [_hex(d) for d in lim.diameters],
        "note": lim.note,
        "circle_rank": lim.circle_rank,
    }


def _chase(build):
    sys_, z, k0, directions, opts = build()
    return [limit_fields(hwl.limit_m(sys_, z, k0, hsys.dirichlet(sys_.m), d, opts))
            for d in directions]


def _golden(name):
    return json.loads((DATA / name).read_text())


@pytest.fixture(scope="module")
def disk_golden():
    return _golden("disk_rows.json")


@pytest.fixture(scope="module")
def chase_golden():
    return _golden("chase_limits.json")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", disk_cases(), ids=lambda c: c[0])
def test_disk_rows_match_golden_bytes(case, disk_golden, tmp_path):
    key, build, z, schedule = case
    rows = _disk_rows(build, z, schedule, tmp_path)
    assert json.dumps(rows) == json.dumps(disk_golden[key])


@pytest.mark.parametrize("case", chase_cases(), ids=lambda c: c[0])
def test_chase_matches_golden(case, chase_golden):
    key, build = case
    assert _chase(build) == chase_golden[key]


def test_a_pole_inside_a_block_keeps_its_site():
    # the pole sits at the second site of the doubling block [8, 16]: the
    # chase keeps the site before it and names the pole's site
    (lim,) = _chase(_pole_chase)
    assert lim["ell_sequence"] == [8]
    assert lim["note"].endswith("at ell=16")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        disk = {key: _disk_rows(build, z, sched, Path(tmp))
                for key, build, z, sched in disk_cases()}
    chase = {key: _chase(build) for key, build in chase_cases()}
    json.dump({"disk_rows.json": disk, "chase_limits.json": chase}, sys.stdout)
