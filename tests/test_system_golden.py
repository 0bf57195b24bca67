"""Golden outputs of the standing-hypothesis checks and the transforms of
``hamweyl.system``.

``tests/data/system_checks.json`` holds, for a battery of seeded
``random_system`` draws and copies of them perturbed next to every check
threshold, the violation lists of ``validate_pointwise`` and of
``check_wellposed`` at four z (site, kind, magnitude, message), and
SHA-256 digests of ``normal_form``, ``to_unit_rho`` and ``system_to_dict``
outputs. They were written by the per-site checks and transforms that the
stacked ones replace, which must reproduce them exactly. The array digests
are taken with signed zeros made positive, so a match is ``array_equal``.
Running this module as a script prints the current values in the golden
file's format.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from hamweyl import _linalg as la
from hamweyl import system as hsys
from hamweyl import testkit as htk
from hamweyl.errors import HamweylError

GOLDEN = Path(__file__).parent / "data" / "system_checks.json"

WINDOW = (-3, 12)
CHECK_Z = (1j, 1 + 1j, -2 + 0.5j, 0.3 - 0.7j)
DRAWS = [(m, cls, seed) for m in (1, 2, 3)
         for cls in ("jacobi", "dirac", "general_A12zero") for seed in (1, 2, 3, 4)]
KINDS = ("A_herm", "B_herm", "rho_herm", "A_psd", "rho_pd", "pencil_both",
         "pencil_21", "huge", "tiny")
FACTORS = (0.5, 0.999, 1.001, 2.0)
N_PERTURBED = 100


def _draw(m, cls, seed):
    return htk.random_system(m, WINDOW, seed, cls)


def _skew_step(rng, x, dev):
    """x plus a skew-Hermitian term whose Hermiticity defect is ``dev``."""
    e = rng.normal(size=x.shape) + 1j * rng.normal(size=x.shape)
    k = e - la.adjoint(e)
    return x + (dev / la.opnorm(k)) * k / 2


def _perturbed(base, rng):
    """A copy of ``base`` with one site moved next to one check threshold."""
    A, B, rho = (np.array(x) for x in (base._A, base._B, base._rho))
    m, i = base.m, int(rng.integers(base.n_sites))
    kind, f = KINDS[rng.integers(len(KINDS))], float(rng.choice(FACTORS))
    eye = np.eye(m)
    if kind.endswith("_herm"):
        x = {"A": A, "B": B, "rho": rho}[kind[:-5]]
        x[i] = _skew_step(rng, x[i], f * hsys.TOL_SYM * max(1.0, la.opnorm(x[i])))
    elif kind == "A_psd":
        A[i] -= (la.min_eig_herm(A[i]) + f * hsys.TOL_PSD) * np.eye(2 * m)
    elif kind == "rho_pd":
        rho[i] -= (la.min_eig_herm(rho[i]) + (f - 1.0) * 1e-14) * eye
    elif kind.startswith("pencil"):
        scale = max(1.0, la.opnorm(1j * A[i] + B[i]))
        u, v = la.haar_unitary(m, rng), la.haar_unitary(m, rng)
        s = rng.uniform(0.5, 2.0, m)
        s[-1] = f * hsys.RCOND_MIN * scale
        blk = (u * s) @ la.adjoint(v)
        B[i, m:, :m] = blk
        if kind == "pencil_both":
            B[i, :m, m:] = la.adjoint(blk)
    else:
        c = 1e155 if kind == "huge" else 1e-160
        A[i] *= c
        B[i] *= c
        rho[i] *= c
    return (f"{kind}@{base.k_min + i}x{f}",
            hsys.HamiltonianSystem(m, base.window, A, B, rho, base.extension))


def check_battery():
    """(name, system) of the draws and their perturbed copies."""
    draws = [(f"{cls}/m{m}/s{seed}", _draw(m, cls, seed)) for m, cls, seed in DRAWS]
    rng = np.random.default_rng(2311)
    out = list(draws)
    for j in range(N_PERTURBED):
        name, base = draws[j % len(draws)]
        tag, sys_ = _perturbed(base, rng)
        out.append((f"{name}/{tag}", sys_))
    return out


def _rows(report):
    return [[v.site, v.kind, v.magnitude, v.message] for v in report.violations]


def check_rows(sys_):
    return {"pointwise": _rows(hsys.validate_pointwise(sys_)),
            **{f"wellposed {z}": _rows(hsys.check_wellposed(sys_, z)) for z in CHECK_Z}}


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        h.update(str(a.shape).encode())
        # + 0.0 makes signed zeros positive: equal digests mean array_equal
        h.update(np.ascontiguousarray(a.astype(complex)).view(float).__add__(0.0).tobytes())
    return h.hexdigest()


def _indefinite_rho(base, rng):
    """``base`` with each weight replaced by a Hermitian one of the same
    eigenvectors and randomly flipped eigenvalue signs."""
    w, v = np.linalg.eigh(la.herm(base._rho))
    w = w * rng.choice([-1.0, 1.0], size=w.shape)
    rho = (v * w[:, None, :]) @ la.adjoint(v)
    return hsys.HamiltonianSystem(base.m, base.window, base._A, base._B, rho,
                                  base.extension)


def _odd_rho(base, i, kind, f):
    """``base`` with the weight at stored site i not Hermitian, singular, or
    diagonal but for an off-diagonal term ``f`` times the pass-through bound."""
    rho = np.array(base._rho)
    m = base.m
    if kind == "nonherm":
        rho[i, 0, -1] += 1e-6
    elif kind == "singular":
        rho[i] = np.diag(np.arange(m, dtype=float))
    else:
        rho[i] = np.diag(np.linspace(2.0, 1.0, m))
        rho[i, 0, -1] = rho[i, -1, 0] = f * 1e-13 * 2.0 / 2 ** 0.5
    return hsys.HamiltonianSystem(m, base.window, base._A, base._B, rho,
                                  base.extension)


def transform_battery():
    """(name, system) of the draws, of copies with indefinite weights and of
    copies with one odd weight."""
    rng = np.random.default_rng(2312)
    draws = [(f"{cls}/m{m}/s{seed}", _draw(m, cls, seed)) for m, cls, seed in DRAWS]
    out = draws + [(f"{name}/indefinite", _indefinite_rho(s, rng)) for name, s in draws]
    for (name, s), i in zip(draws[12:24], range(0, 24, 2)):
        for kind, f in (("nonherm", 1.0), ("singular", 1.0), ("near_diag", 0.99),
                        ("near_diag", 1.01)):
            out.append((f"{name}/{kind}x{f}@{i}/indefinite", _odd_rho(s, i % s.n_sites, kind, f)))
    return out


def transform_digests(name, sys_):
    out = {}
    try:
        nf, rec = hsys.normal_form(sys_)
        out["normal_form"] = _digest(nf._A, nf._B, nf._rho, rec.Q, rec.eps_tilde)
    except HamweylError as e:
        out["normal_form"] = f"{type(e).__name__}: {e}"
    if not name.endswith("/indefinite"):
        alpha = hsys.dirichlet(sys_.m)
        ur, _ = hsys.to_unit_rho(sys_, alpha, alpha)
        out["to_unit_rho"] = _digest(ur._A, ur._B, ur._rho)
        out["to_unit_rho_jacobi"] = ur.jacobi is not None
    out["system_to_dict"] = hashlib.sha256(
        json.dumps(hsys.system_to_dict(sys_)).encode()).hexdigest()
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_check_violations_match_golden(golden):
    battery = check_battery()
    assert sorted(golden["checks"]) == sorted(name for name, _ in battery)
    for name, sys_ in battery:
        assert check_rows(sys_) == golden["checks"][name], name


def test_transforms_match_golden(golden):
    battery = transform_battery()
    assert sorted(golden["transforms"]) == sorted(name for name, _ in battery)
    for name, sys_ in battery:
        assert transform_digests(name, sys_) == golden["transforms"][name], name


if __name__ == "__main__":
    json.dump({"checks": {name: check_rows(s) for name, s in check_battery()},
               "transforms": {name: transform_digests(name, s)
                              for name, s in transform_battery()}},
              sys.stdout, indent=1)
    sys.stdout.write("\n")
