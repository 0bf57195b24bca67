"""Coefficient files for the hamweyl benchmark, generated from a seed.

Run ``python3 perfbench/gen_inputs.py --seed 1 --out DIR`` to write every
coefficient file the workloads read. The same seed writes bitwise-identical
files. The free chains, the constant m=2 chain and the long-window inputs of
a known fault do not depend on the seed.

The generator uses only numpy. It keeps its own copy of every coefficient
(``Coeffs``) so that the benchmark's checks never read coefficients back
through the package under test.
"""

from __future__ import annotations

import argparse
import json
import os

import numpy as np

from checks import DenseRegular

# Seed of the long-window inputs; fixed so the fault they show does not move
# with the workload seed.
LONG_WINDOW_SEED = 42


class Coeffs:
    """Per-site A, B, rho of one input, extended by clamping to the window
    (the ``constant-edge`` policy written into every file)."""

    def __init__(self, name, m, k_min, A, B, rho, p=None, q=None, dirac_b=None):
        self.name = name
        self.m = m
        self.k_min = k_min
        self.k_max = k_min + len(A) - 1
        self.A_arr, self.B_arr, self.rho_arr = A, B, rho
        self.p, self.q, self.dirac_b = p, q, dirac_b

    def _i(self, k):
        return min(max(k - self.k_min, 0), self.k_max - self.k_min)

    def A(self, k):
        return self.A_arr[self._i(k)]

    def B(self, k):
        return self.B_arr[self._i(k)]

    def rho(self, k):
        return self.rho_arr[self._i(k)]

    @property
    def is_jacobi(self):
        return self.p is not None

    def jacobi_a(self, k):
        """Off-diagonal three-term coefficient a(k) = -p(k+1)."""
        return -self.p[self._i(k + 1)]

    def jacobi_b(self, k):
        """Diagonal three-term coefficient b(k) = p(k+1) + p(k) + q(k)."""
        return self.p[self._i(k + 1)] + self.p[self._i(k)] + self.q[self._i(k)]

    @property
    def is_constant(self):
        return all(np.array_equal(arr[0], arr[i])
                   for arr in (self.A_arr, self.B_arr, self.rho_arr)
                   for i in range(len(arr)))


# ---------------------------------------------------------------------------
# random matrices (own construction; no package code)
# ---------------------------------------------------------------------------

def _unitary(rng, m):
    g = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _herm(a):
    return 0.5 * (a + a.conj().T)


def _spd(rng, m, lo, hi):
    if m == 1:
        return np.array([[rng.uniform(lo, hi)]], dtype=complex)
    u = _unitary(rng, m)
    return _herm((u * rng.uniform(lo, hi, size=m)) @ u.conj().T)


def _hermitian(rng, m, scale):
    if m == 1:
        return np.array([[scale * rng.normal()]], dtype=complex)
    g = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    return scale * _herm(g) / np.sqrt(m)


def _invertible(rng, m):
    u, v = _unitary(rng, m), _unitary(rng, m)
    return (u * rng.uniform(0.3, 3.0, size=m)) @ v.conj().T


def _psd_rank(rng, m, rank):
    u = _unitary(rng, m)
    w = np.zeros(m)
    w[:rank] = rng.uniform(0.3, 1.0, size=rank)
    return _herm((u * w) @ u.conj().T)


# ---------------------------------------------------------------------------
# classes
# ---------------------------------------------------------------------------

def jacobi(name, p, q, k_min):
    """Jacobi class: rho = I, A = diag(I, 0), B = ((-q, I), (I, p^{-1}))."""
    n, m = len(p), p.shape[1]
    eye = np.eye(m, dtype=complex)
    A = np.zeros((n, 2 * m, 2 * m), dtype=complex)
    B = np.zeros((n, 2 * m, 2 * m), dtype=complex)
    A[:, :m, :m] = eye
    B[:, :m, :m] = -q
    B[:, :m, m:] = eye
    B[:, m:, :m] = eye
    B[:, m:, m:] = np.linalg.inv(p)
    rho = np.broadcast_to(eye, (n, m, m)).copy()
    return Coeffs(name, m, k_min, A, B, rho, p=p, q=q)


def random_jacobi(name, rng, m, window, q_scale=0.5):
    n = window[1] - window[0] + 1
    p = np.stack([_spd(rng, m, 0.5, 2.0) for _ in range(n)])
    q = np.stack([_hermitian(rng, m, q_scale) for _ in range(n)])
    return jacobi(name, p, q, window[0])


def constant_jacobi(name, p0, q0, window):
    n = window[1] - window[0] + 1
    p0 = np.asarray(p0, dtype=complex)
    q0 = np.asarray(q0, dtype=complex)
    return jacobi(name, np.stack([p0] * n), np.stack([q0] * n), window[0])


def random_dirac(name, rng, m, window):
    """Dirac class: rho = I, A = I, B = ((0, b), (b*, 0))."""
    n = window[1] - window[0] + 1
    b = np.stack([_invertible(rng, m) for _ in range(n)])
    A = np.broadcast_to(np.eye(2 * m, dtype=complex), (n, 2 * m, 2 * m)).copy()
    B = np.zeros((n, 2 * m, 2 * m), dtype=complex)
    B[:, :m, m:] = b
    B[:, m:, :m] = np.conj(np.transpose(b, (0, 2, 1)))
    rho = np.broadcast_to(np.eye(m, dtype=complex), (n, m, m)).copy()
    return Coeffs(name, m, window[0], A, B, rho, dirac_b=b)


def random_general(name, rng, m, window):
    """General class: rho > 0, A = diag(A11 > 0, A22 >= 0), Hermitian B with
    an invertible off-diagonal block, so the pencil is regular for every z."""
    n = window[1] - window[0] + 1
    A = np.zeros((n, 2 * m, 2 * m), dtype=complex)
    B = np.zeros((n, 2 * m, 2 * m), dtype=complex)
    rho = np.zeros((n, m, m), dtype=complex)
    for i in range(n):
        A[i, :m, :m] = _spd(rng, m, 0.3, 2.0)
        A[i, m:, m:] = _psd_rank(rng, m, int(rng.integers(0, m + 1)))
        b12 = _invertible(rng, m)
        B[i, :m, :m] = _hermitian(rng, m, 1.0)
        B[i, m:, m:] = _hermitian(rng, m, 1.0)
        B[i, :m, m:] = b12
        B[i, m:, :m] = b12.conj().T
        rho[i] = _spd(rng, m, 0.5, 2.0)
    return Coeffs(name, m, window[0], A, B, rho)


# ---------------------------------------------------------------------------
# the input set
# ---------------------------------------------------------------------------

# Eigenvalue problems of the spectral workload: input -> (far site, grid
# points of the scan). The scan finds one eigenvalue per local minimum of
# its grid, so a draw is kept only when the Dirichlet eigenvalues on (0, ell)
# are at least GAP_STEPS grid steps apart; closer pairs are outside what a
# grid of that size resolves, for any implementation.
SPECTRAL_EIG = {"sp_jacobi_m1": (12, 201), "sp_jacobi_m2": (8, 201)}
GAP_STEPS = 6


def _gapped(draw, ell, grid_n):
    while True:
        c = draw()
        lam = DenseRegular(c, 0, ell).eigenvalues
        step = (lam[-1] - lam[0] + 0.5) / (grid_n - 1)
        if np.min(np.diff(lam)) >= GAP_STEPS * step:
            return c


LONG = ("lw_jacobi_m2", "lw_jacobi_m4")


def make_inputs(seed: int, stems=None) -> dict[str, Coeffs]:
    """The inputs named in ``stems`` (default: all), keyed by file stem."""
    out = {}

    def rng_for(stream):
        # one stream per input, so adding an input never shifts another
        return np.random.default_rng([seed % 2**32, stream])

    # M grids (scalar): the three classes at m = 1, 2, 4 on windows of 10^2 - 10^3 sites
    out["mg_jacobi_m1"] = random_jacobi("mg_jacobi_m1", rng_for(1), 1, (0, 200))
    out["mg_jacobi_m2"] = random_jacobi("mg_jacobi_m2", rng_for(2), 2, (0, 120))
    out["mg_dirac_m2"] = random_dirac("mg_dirac_m2", rng_for(3), 2, (0, 120))
    out["mg_general_m2"] = random_general("mg_general_m2", rng_for(4), 2, (0, 100))
    out["mg_jacobi_m4"] = random_jacobi("mg_jacobi_m4", rng_for(5), 4, (0, 100))
    # spectral: regular Jacobi problems
    for stem, stream, m, window in (("sp_jacobi_m1", 6, 1, (0, 30)),
                                    ("sp_jacobi_m2", 7, 2, (0, 20))):
        rng = rng_for(stream)
        out[stem] = _gapped(lambda: random_jacobi(stem, rng, m, window),
                            *SPECTRAL_EIG[stem])
    # half lines (scalar): one input with non-constant coefficients
    out["hl_jacobi_m2"] = random_jacobi("hl_jacobi_m2", rng_for(8), 2, (-160, 160))

    # seed-independent inputs
    out["free_m1"] = constant_jacobi("free_m1", [[1.0]], [[0.0]], (-120, 120))
    out["free_long"] = constant_jacobi("free_long", [[1.0]], [[0.0]], (0, 1000))
    out["const_m2"] = constant_jacobi("const_m2", [[1.0, 0.25j], [-0.25j, 0.8]],
                                      [[0.3, 0.1], [0.1, -0.2]], (-120, 120))
    lw = np.random.default_rng(LONG_WINDOW_SEED)
    out["lw_jacobi_m2"] = random_jacobi("lw_jacobi_m2", lw, 2, (0, 400), q_scale=1.0)
    out["lw_jacobi_m4"] = random_jacobi("lw_jacobi_m4", lw, 4, (0, 400), q_scale=1.0)
    return out if stems is None else {s: out[s] for s in stems}


# ---------------------------------------------------------------------------
# the coefficient file schema (see the package README)
# ---------------------------------------------------------------------------

def _pairs(mat):
    return [[float(v.real), float(v.imag)] for v in np.asarray(mat).reshape(-1)]


def to_document(c: Coeffs) -> dict:
    doc = {"m": c.m, "k_min": c.k_min, "extension": "constant-edge"}
    if c.is_jacobi:
        doc["jacobi"] = {"p": [_pairs(x) for x in c.p],
                         "q": [_pairs(x) for x in c.q]}
    elif c.dirac_b is not None:
        doc["dirac"] = {"b": [_pairs(x) for x in c.dirac_b]}
    else:
        doc["A"] = [_pairs(x) for x in c.A_arr]
        doc["B"] = [_pairs(x) for x in c.B_arr]
        doc["rho"] = [_pairs(x) for x in c.rho_arr]
    return doc


def write_inputs(seed: int, out_dir: str, stems=None) -> dict[str, Coeffs]:
    """Write ``<stem>.json`` for each input into ``out_dir``; returns the
    in-memory coefficients keyed by stem."""
    os.makedirs(out_dir, exist_ok=True)
    inputs = make_inputs(seed, stems)
    for stem, c in inputs.items():
        text = json.dumps(to_document(c), separators=(",", ":"))
        path = os.path.join(out_dir, stem + ".json")
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            fh.write(text + "\n")
        os.replace(tmp, path)
    return inputs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="directory for the files")
    args = ap.parse_args(argv)
    inputs = write_inputs(args.seed, args.out)
    for stem in sorted(inputs):
        print(os.path.join(args.out, stem + ".json"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
