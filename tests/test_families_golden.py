"""Golden digests of the role families, the kernels built from them and the
Riccati variable.

``tests/data/families.json`` holds SHA-256 digests (see :func:`digest`) of

- ``kernels``: for each system, variant (whole, half-plus, half-minus) and
  z of either sign of Im z on a +-10 window with M+- from ``limit_m``, the
  kernel's ``_up``, ``_um``, ``_psi`` and ``diagnostics``, the output of
  ``diagonal_riccati_blocks`` and the ``y`` and ``residual_by_site`` of
  ``solve_nonhomogeneous`` with a seeded source. The systems are the free
  chain and ``random_system`` m = 2 draws of every class. A step that
  raises is stored as its exception type and message.
- ``riccati``: ``riccati_from_solution`` along the Weyl solution of the
  Dirichlet problem on [0, 10] over [0, 8], and ``riccati_residual`` of its
  first sites as given and with V(3) bent, on six seeded ``random_system``
  draws per seed 1-3 (all three classes, m = 1, 2, 3 over 201 sites).

Every digest must match bit for bit. Running this module as a script
writes the current digests to the golden file.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from hamweyl import green as hg
from hamweyl import propagate as hp
from hamweyl import system as hsys
from hamweyl import testkit as htk
from hamweyl import weyl as hwl
from hamweyl.errors import HamweylError

GOLDEN = Path(__file__).parent / "data" / "families.json"

KERNEL_SYSTEMS = ("free", "jacobi", "dirac", "general_A12zero")
KERNEL_Z = (0.5 + 0.7j, 0.5 - 0.7j, 1.3 + 0.2j, -0.4 - 0.9j)
VARIANTS = {"whole": (-10, 10), "half_plus": (0, 10), "half_minus": (-10, 0)}
RICCATI_Z = 0.4 + 0.6j
CLASSES = ("jacobi", "dirac", "general_A12zero")


def _feed(h, obj) -> None:
    if isinstance(obj, dict):
        h.update(b"{")
        for k, v in obj.items():
            h.update(repr(k).encode() + b":")
            _feed(h, v)
        h.update(b"}")
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for v in obj:
            _feed(h, v)
        h.update(b"]")
    elif isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (bool, int, str)) or obj is None:
        h.update(repr(obj).encode())
    else:
        h.update(float(obj).hex().encode())


def digest(obj) -> str:
    """SHA-256 of arrays (dtype, shape and bytes), floats (hex), and dicts
    (keys in insertion order), lists and tuples of them."""
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def _kernel_system(name: str):
    if name == "free":
        return hsys.jacobi_system(lambda k: 1.0, lambda k: 0.0, (-40, 40))
    return htk.random_system(2, (-20, 20), 7, name)


def _attempt(out: dict, key: str, fn, record=digest):
    """Store record(fn()) under key, or the exception fn raised; return the
    value or None."""
    try:
        val = fn()
    except HamweylError as exc:
        out[key] = f"{type(exc).__name__}: {exc}"
        return None
    out[key] = record(val)
    return val


def kernel_digests() -> dict:
    out = {}
    builders = {
        "whole": lambda s, z, al, mp, mm, w: hg.build_whole_kernel(s, z, 0, al, mp, mm, w),
        "half_plus": lambda s, z, al, mp, mm, w: hg.build_half_kernel_plus(s, z, 0, al, mp, w),
        "half_minus": lambda s, z, al, mp, mm, w: hg.build_half_kernel_minus(s, z, 0, al, mm, w),
    }
    for name in KERNEL_SYSTEMS:
        sys_ = _kernel_system(name)
        al = hsys.dirichlet(sys_.m)
        for z in KERNEL_Z:
            mp = hwl.limit_m(sys_, z, 0, al, +1).M_pm
            mm = hwl.limit_m(sys_, z, 0, al, -1).M_pm
            for variant, window in VARIANTS.items():
                rec = out[f"{name}/{z}/{variant}"] = {}
                ker = _attempt(rec, "build", lambda: builders[variant](
                    sys_, z, al, mp, mm, window), lambda k: "ok")
                if ker is None:
                    continue
                rec["families"] = digest([ker._up, ker._um, ker._psi, ker.diagnostics])
                rec["riccati_blocks"] = digest(hg.diagonal_riccati_blocks(ker))
                rng = np.random.default_rng(5)
                f = {k: rng.normal(size=2 * sys_.m) + 1j * rng.normal(size=2 * sys_.m)
                     for k in ker.source_sites()}
                _attempt(rec, "solve", lambda: (lambda s: [s.y, s.residual_by_site])(
                    hg.solve_nonhomogeneous(ker, f)))
    return out


def riccati_digests() -> dict:
    out = {}
    for seed in (1, 2, 3):
        for i in range(6):
            m, cls = 1 + (i + i // 3) % 3, CLASSES[i % 3]
            sys_ = htk.random_system(m, (0, 201), (seed * 7919 + i) % 2**31, cls)
            D = hsys.dirichlet(m)
            M = hwl.m_regular(sys_, hwl.disk_context(sys_, RICCATI_Z, 0, 10, D), D).M
            fund = hp.fundamental(sys_, RICCATI_Z, 0, D, (0, 8))
            rep = hwl.riccati_from_solution(sys_, hp.weyl_solution(fund, M))
            near = {k: v for k, v in rep.V.items() if k <= 6}
            bent = dict(near)
            bent[3] = 1.5 * bent[3] + 0.5 * np.eye(m)
            reports = [rep] + [hwl.riccati_residual(sys_, RICCATI_Z, v)
                               for v in (near, bent)]
            out[f"{seed}/{i}/{cls}_m{m}"] = digest(
                [[r.V, r.sign_max, r.errors] for r in reports[:1]]
                + [[r.norms, r.errors] for r in reports[1:]])
    return out


def current() -> dict:
    return {"kernels": kernel_digests(), "riccati": riccati_digests()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_kernel_families_match_golden_bit_for_bit(golden):
    assert kernel_digests() == golden["kernels"]


def test_riccati_reports_match_golden_bit_for_bit(golden):
    assert riccati_digests() == golden["riccati"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(current(), indent=1, sort_keys=True) + "\n")
