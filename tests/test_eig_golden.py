"""Golden eigenvalues of the regular problem.

``tests/data/eig_values.json`` holds the eigenvalues that ``weyl.eigenvalues``
found by bisecting every bracket in lockstep to width
``_EIG_WIDTH * max(1, |a| + |b|)``:

- ``random``: seeded ``random_system`` draws (m = 1, 2, 3, three classes,
  two seeds), each on three site pairs (k0, ell), with Dirichlet data for
  the first seed and a self-adjoint pair from ``boundary_family`` for the
  second, on the interval (-6, 9);
- ``bench``: the benchmark's ``eig`` inputs (``perfbench/gen_inputs.py``,
  seeds 1-3, stored as coefficient documents) with Dirichlet data on the
  benchmark's intervals.

Any eigenvalue search must find the same number of eigenvalues, and each
within one bracket width of the stored value: both are midpoints of
count-certified brackets no wider than that. A value may differ by more
only where the count N(lam) is not monotone between the two, so that the
brackets certify less than their width there; the test checks that. Running
this module as a script prints the current values in the golden file's
format (it needs the benchmark's generator, ``perfbench``, next to
``tests``).
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from hamweyl import system as hsys
from hamweyl import testkit as htk
from hamweyl import weyl as hwl

from conftest import boundary_family

GOLDEN = Path(__file__).parent / "data" / "eig_values.json"

INTERVAL = (-6.0, 9.0)
ENDS = ((0, 7), (3, 12), (10, 2))
DRAWS = [(m, cls, seed) for m in (1, 2, 3)
         for cls in ("jacobi", "dirac", "general_A12zero") for seed in (1, 2)]
# benchmark eig problems: stem -> (ell, seeds); the seed-independent ones
# keep their fixed interval
BENCH = {"sp_jacobi_m1": (12, (1, 2, 3)), "sp_jacobi_m2": (8, (1, 2, 3)),
         "free_m1": (10, (1,)), "free_long": (1000, (1,))}
FIXED_INTERVAL = {"free_m1": (-0.5, 4.5), "free_long": (-3.0, -1.0)}


def random_cases():
    """(key, system, k0, ell, alpha, beta) of every random case."""
    out = []
    for m, cls, seed in DRAWS:
        sys_ = htk.random_system(m, (0, 12), seed, cls)
        if seed == 1:
            al = be = hsys.dirichlet(m)
        else:
            al, be = boundary_family(m, 3)[1:]
        out += [(f"m{m}/{cls}/{seed}/{k0}-{ell}", sys_, k0, ell, al, be)
                for k0, ell in ENDS]
    return out


def _values(sys_, k0, ell, al, be, interval):
    return [float(v) for v in hwl.eigenvalues(sys_, k0, ell, al, be, interval)]


def _bench_documents():
    """The benchmark's eig problems as {key: {doc, ell, interval}}."""
    sys.path.insert(0, str(Path(__file__).parents[1] / "perfbench"))
    import checks as ck
    import gen_inputs as gi

    out = {}
    for stem, (ell, seeds) in BENCH.items():
        for seed in seeds:
            c = gi.make_inputs(seed, [stem])[stem]
            if stem in FIXED_INTERVAL:
                interval = FIXED_INTERVAL[stem]
            else:
                lam = ck.DenseRegular(c, 0, ell).eigenvalues
                interval = (float(lam[0]) - 0.25, float(lam[-1]) + 0.25)
            out[f"{stem}/{seed}"] = {"doc": gi.to_document(c), "ell": ell,
                                     "interval": list(interval)}
    return out


def _assert_close(sys_, k0, ell, al, be, interval, want, key):
    found = _values(sys_, k0, ell, al, be, interval)
    assert len(found) == len(want), key
    width = hwl._EIG_WIDTH * max(1.0, abs(interval[0]) + abs(interval[1]))
    data = hwl._pencil_data(sys_, k0, ell, al, be)
    for v, w in zip(found, want):
        if abs(v - w) > width:
            # only where the count itself is not monotone between the two
            # values does a bracket certify less than its width
            n, _ = hwl._negative_index(data, np.linspace(min(v, w) - width,
                                                         max(v, w) + width, 33))
            assert np.any(np.diff(n) < 0), (key, v, w)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_random_eigenvalues_match_golden(golden):
    cases = random_cases()
    assert sorted(golden["random"]) == sorted(c[0] for c in cases)
    for key, sys_, k0, ell, al, be in cases:
        _assert_close(sys_, k0, ell, al, be, INTERVAL, golden["random"][key], key)


def test_benchmark_eigenvalues_match_golden(golden):
    for key, case in golden["bench"].items():
        sys_ = hsys.system_from_dict(case["doc"])
        d = hsys.dirichlet(sys_.m)
        _assert_close(sys_, 0, case["ell"], d, d, case["interval"], case["values"], key)


if __name__ == "__main__":
    bench = _bench_documents()
    for case in bench.values():
        sys_ = hsys.system_from_dict(case["doc"])
        d = hsys.dirichlet(sys_.m)
        case["values"] = _values(sys_, 0, case["ell"], d, d, case["interval"])
    json.dump({"random": {key: _values(s, k0, ell, al, be, INTERVAL)
                          for key, s, k0, ell, al, be in random_cases()},
               "bench": bench}, sys.stdout, separators=(",", ":"))
    sys.stdout.write("\n")
