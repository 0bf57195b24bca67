"""Operations of the four hamweyl benchmark workloads.

An operation is one call into the program: ``hamweyl.cli.main(argv)``
in-process, or one public library function. Each has a check that judges
its output against a reference the benchmark computes itself (see
``checks.py``), and, for CLI operations, a replay through the same public
library calls with a span around each layer, used only in traced runs.

The benchmark calls only names in the package's ``__all__`` lists and
``hamweyl.cli.main``.
"""

from __future__ import annotations

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

import checks as ck

COMMON = ["--no-timestamp", "--workers", "1", "--format", "json"]

# The three faults of the program that the workloads keep and count as failed.
FAULTS = {
    "long-window-m": "weyl.m_regular raises EigenvalueHitError at non-real z "
                     "on ell=300 windows; regular_m_evaluator returns M that "
                     "disagrees with the dense resolvent",
    "eig-overflow": "hamweyl eig on the free chain at ell=1000 below the "
                    "spectrum lets numpy LinAlgError escape cli.main",
    "kernel-window": "whole-line kernel and solve on +-80 windows fail the "
                     "delta identity and the nonhomogeneous residual",
}


class Op:
    """One benchmark operation.

    ``family`` is the command or self-check it exercises, which decides the
    end-to-end metric its time feeds; ``units`` is its work count for rate
    metrics; ``home`` is False for the small canary operations that give a
    workload a value for metrics that belong to another workload.
    """

    def __init__(self, name, run, check, family, units=1, fault=None,
                 replay=None, home=True):
        self.name, self.run, self.check = name, run, check
        self.family, self.units, self.fault = family, units, fault
        self.replay, self.home = replay, home


class Ctx:
    """What the operations share: the package modules, the loaded systems,
    the benchmark's own coefficients and the tracer."""

    def __init__(self, hw, cli, inputs, input_dir, systems, tracer, seed):
        self.hw, self.cli = hw, cli
        self.inputs, self.input_dir = inputs, input_dir
        self.systems, self.tr, self.seed = systems, tracer, seed
        self._dense = {}

    def path(self, stem):
        return os.path.join(self.input_dir, stem + ".json")

    def dense(self, stem, ell):
        key = (stem, ell)
        if key not in self._dense:
            self._dense[key] = ck.DenseRegular(self.inputs[stem], 0, ell)
        return self._dense[key]

    # -- CLI ---------------------------------------------------------------

    def cli_call(self, argv):
        out = io.StringIO()
        with self.tr.span("cli.main"):
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                rc = self.cli.main(argv + COMMON)
        text = out.getvalue()
        self.tr.count("cli.bytes_out", len(text.encode()))
        return rc, text

    def load(self, stem):
        with self.tr.span("system.io"):
            return self.hw.load_coefficients(self.path(stem))


def _doc(result):
    rc, text = result
    if rc != 0:
        raise AssertionError(f"exit code {rc}")
    return json.loads(text)


def _mat(row, prefix, n):
    return np.array([[complex(row[f"{prefix}_{i}{j}_re"], row[f"{prefix}_{i}{j}_im"])
                      for j in range(n)] for i in range(n)])


def _first(reasons):
    return next((r for r in reasons if r), None)


def _zarg(z):
    return f"--z={z.real!r},{z.imag!r}"


# ---------------------------------------------------------------------------
# per-command operations
# ---------------------------------------------------------------------------

def op_validate(ctx, stem, home=True):
    hs = ctx.hw.system

    def check(result):
        doc = _doc(result)
        if not doc["meta"]["passed"]:
            return "validate reported a failure on a valid input"
        verdicts = [r for r in doc["rows"] if r["check"].startswith("definiteness")]
        if len(verdicts) != len(doc["rows"]) or len(verdicts) != 3:
            return f"unexpected rows {[r['check'] for r in doc['rows']]}"
        if any(r["kind"] != "definite" or not r["magnitude"] > 0 for r in verdicts):
            return "definiteness verdict wrong"
        return None

    def replay():
        sys_ = ctx.load(stem)
        interval = (sys_.k_min, min(sys_.k_max, sys_.k_min + 11))
        with ctx.tr.span("system.validate"):
            hs.validate_pointwise(sys_)
            for z in hs.DEFAULT_Z_SAMPLE:
                hs.check_wellposed(sys_, z)
                hs.check_definiteness(sys_, z, interval)

    return Op(f"validate {stem}", lambda: ctx.cli_call(["validate", "--input", ctx.path(stem)]),
              check, "validate", replay=replay, home=home)


def _pencil_probe(ctx, sys_, z, lo, hi):
    with ctx.tr.span("system.pencil"):
        for k in range(lo, hi + 1):
            sys_.pencil_blocks(z, k)
    ctx.tr.count("system.pencil_calls", hi - lo + 1)


def op_mfun(ctx, stem, ell, zgrid, home=True):
    c = ctx.inputs[stem]
    m = c.m
    hw = ctx.hw
    (r0, r1, rn), (i0, i1, inn) = [tuple(float(x) for x in part.split(":"))
                                   for part in zgrid.split(",")]
    zs = (np.linspace(r0, r1, int(rn))[:, None]
          + 1j * np.linspace(i0, i1, int(inn))[None, :]).reshape(-1)

    def check(result):
        doc = _doc(result)
        rows = doc["rows"]
        if len(rows) != len(zs):
            return f"{len(rows)} rows for {len(zs)} points"
        ref = ctx.dense(stem, ell).m_of(zs) if c.is_jacobi else None
        reasons = []
        for i, row in enumerate(rows):
            M = _mat(row, "M", m)
            reasons.append(ck.check_herglotz(M, +1))
            if row["herglotz_ok"] is not True:
                reasons.append("herglotz_ok is false")
            if ref is not None:
                reasons.append(ck.check_m(M, ref[i]))
        return _first(reasons)

    def replay():
        sys_ = ctx.load(stem)
        D = hw.dirichlet(m)
        for z in zs:
            cx = hw.weyl.disk_context(sys_, complex(z), 0, ell, D)
            with ctx.tr.span("propagate.fundamental"):
                fund = hw.propagate.fundamental(sys_, complex(z), 0, D, (0, ell))
            ctx.tr.count("propagate.zsteps", ell)
            with ctx.tr.span("weyl.m_extract"):
                hw.weyl.m_regular(sys_, cx, D, fund=fund)
            ctx.tr.count("weyl.m_extract_calls")
        with ctx.tr.span("extra"):
            _pencil_probe(ctx, sys_, complex(zs[0]), 0, ell)

    argv = ["mfun", "--input", ctx.path(stem), "--ell", str(ell), "--z-grid=" + zgrid]
    return Op(f"mfun {stem} ell={ell}", lambda: ctx.cli_call(argv), check,
              "mfun", len(zs), replay=replay, home=home)


def op_disk(ctx, stem, z, schedule, home=True):
    c = ctx.inputs[stem]
    m = c.m
    hw = ctx.hw

    def check(result):
        rows = _doc(result)["rows"]
        if [r["ell"] for r in rows] != list(schedule):
            return "rows do not follow the schedule"
        ms = [_mat(r, "M", m) for r in rows]
        bad = ck.check_disk_rows(rows, ms)
        if bad or not c.is_jacobi:
            return bad
        return _first(ck.check_m(M, ctx.dense(stem, r["ell"]).m_of(z))
                      for r, M in zip(rows, ms))

    def replay():
        sys_ = ctx.load(stem)
        D = hw.dirichlet(m)
        for ell in schedule:
            cx = hw.weyl.disk_context(sys_, z, 0, ell, D)
            # the command propagates once for each of the three calls
            funds = []
            for _ in range(3):
                with ctx.tr.span("propagate.fundamental"):
                    funds.append(hw.propagate.fundamental(sys_, z, 0, D, (0, ell)))
                ctx.tr.count("propagate.zsteps", ell)
            with ctx.tr.span("weyl.m_extract"):
                M = hw.weyl.m_regular(sys_, cx, D, fund=funds[0]).M
            ctx.tr.count("weyl.m_extract_calls")
            with ctx.tr.span("weyl.disk_extras"):
                e = hw.weyl.e_functional(sys_, cx, M, fund=funds[1])
                hw.weyl.disk_membership(e)
                hw.weyl.disk_diameter_estimate(sys_, cx, n_samples=8, fund=funds[2])

    argv = ["disk", "--input", ctx.path(stem), _zarg(z),
            "--ell-schedule", ",".join(map(str, schedule))]
    return Op(f"disk {stem}", lambda: ctx.cli_call(argv), check,
              "disk", len(schedule), replay=replay, home=home)


def op_eig(ctx, stem, ell, interval, grid_n, expected, fault=None, home=True):
    """``expected``: the eigenvalues the benchmark computed (closed form or
    dense), restricted to the interval."""
    c = ctx.inputs[stem]
    hw = ctx.hw

    def check(result):
        rows = _doc(result)["rows"]
        return ck.check_eigs([r["eigenvalue"] for r in rows], expected)

    def replay():
        sys_ = ctx.load(stem)
        D = hw.dirichlet(c.m)
        with ctx.tr.span("testkit.eig_scan"):
            hw.testkit.eig_via_detPhi(sys_, 0, ell, D, D, interval,
                                      grid_n=max(grid_n, 101))
        with ctx.tr.span("testkit.oracle"):
            hw.testkit.jacobi_bvp_oracle(hw.testkit.RegularBVP(sys_, 0, ell, D, D))
        with ctx.tr.span("extra"):
            ev = hw.weyl.regular_m_evaluator(sys_, 0, ell, D, D)
            xs = interval[0] + (interval[1] - interval[0]) * \
                ((np.arange(40) * 0.6180339887498949) % 1.0)
            with ctx.tr.span("weyl.evaluator_n1"):
                for x in xs:
                    ev(complex(x, 1e-3))
            ctx.tr.count("weyl.n1_zsteps", len(xs) * ell)

    argv = ["eig", "--input", ctx.path(stem), "--ell", str(ell),
            f"--interval={interval[0]!r},{interval[1]!r}", "--grid-n", str(grid_n)]
    return Op(f"eig {stem} ell={ell}", lambda: ctx.cli_call(argv), check,
              "eig", fault=fault, replay=replay, home=home)


class _CountingEvaluator:
    """Batched M evaluator handed to ``spectral_measure``: counts calls and
    points and puts a span around every evaluation."""

    accepts_arrays = True

    def __init__(self, ctx, base, steps):
        self.ctx, self.base, self.steps = ctx, base, steps
        self.m = base.m

    def __call__(self, z):
        n = int(np.size(z))
        with self.ctx.tr.span("weyl.evaluator_bulk"):
            out = self.base(z)
        self.ctx.tr.count("weyl.quad_calls")
        self.ctx.tr.count("weyl.quad_points", n)
        self.ctx.tr.count("weyl.bulk_zsteps", n * self.steps)
        return out


def op_measure_pair(ctx, stem, ell, interval, grid_n, eps_pair, home=True):
    """Two CLI measure calls, one per epsilon; the check extrapolates them."""
    c = ctx.inputs[stem]
    m = c.m
    hw = ctx.hw
    outputs = {}

    def one(eps):
        argv = ["measure", "--input", ctx.path(stem), "--ell", str(ell),
                f"--interval={interval[0]!r},{interval[1]!r}",
                "--grid-n", str(grid_n), "--eps-schedule", repr(eps)]

        def run():
            res = ctx.cli_call(argv)
            outputs[eps] = res
            return res

        def check(result):
            rows = _doc(result)["rows"]
            if len(rows) != grid_n:
                return f"{len(rows)} bins for grid {grid_n}"
            if eps != eps_pair[1]:
                return None
            docs = [_doc(outputs[e])["rows"] for e in eps_pair]
            grid = [r["lambda_lo"] for r in docs[1]] + [docs[1][-1]["lambda_hi"]]
            incs = [np.array([_mat(r, "Omega", m) for r in d]) for d in docs]
            return ck.check_measure(grid, incs[0], incs[1], eps_pair[0],
                                    eps_pair[1], ctx.dense(stem, ell))

        def replay():
            sys_ = ctx.load(stem)
            D = hw.dirichlet(m)
            ev = _CountingEvaluator(ctx, hw.weyl.regular_m_evaluator(sys_, 0, ell, D, D), ell)
            with ctx.tr.span("weyl.spectral_measure"):
                hw.weyl.spectral_measure(ev, interval, grid_n, [eps], sigma=1)

        return Op(f"measure {stem} ell={ell} eps={eps!r}", run, check,
                  "measure", replay=replay, home=home)

    return [one(e) for e in eps_pair]


def _limit_replay(ctx, sys_, z, D):
    out = []
    for direction in (+1, -1):
        with ctx.tr.span("weyl.limit"):
            lim = ctx.hw.weyl.limit_m(sys_, z, 0, D, direction)
        ctx.tr.count("weyl.limit_sites", abs(lim.ell_sequence[-1]))
        out.append(lim.M_pm)
    return out


def op_limit(ctx, stem, z, home=True):
    c = ctx.inputs[stem]
    m = c.m

    def check(result):
        rows = _doc(result)["rows"]
        if [r["direction"] for r in rows] != ["+", "-"]:
            return "expected one row per direction"
        reasons = []
        for row in rows:
            d = 1 if row["direction"] == "+" else -1
            if row["classification"] not in ("limit_point", "inconclusive"):
                reasons.append(f"{row['direction']}: {row['classification']}")
                continue
            M = _mat(row, "M", m)
            reasons.append(ck.check_herglotz(M, d))
            if c.is_constant:
                ref = ck.half_line_m(c, z, d)
                err = ck.opnorm(M - ref) / (1.0 + ck.opnorm(ref))
                if not err <= ck.HALF_TOL:
                    reasons.append(f"M{row['direction']} off the decaying "
                                   f"subspace by {err:.2e}")
        return _first(reasons)

    def replay():
        sys_ = ctx.load(stem)
        _limit_replay(ctx, sys_, z, ctx.hw.dirichlet(m))

    argv = ["limit", "--input", ctx.path(stem), _zarg(z)]
    return Op(f"limit {stem} z={z}", lambda: ctx.cli_call(argv), check,
              "limit", replay=replay, home=home)


def _kernel_replay(ctx, stem, z, w, solve_seed=None):
    hw = ctx.hw
    c = ctx.inputs[stem]
    sys_ = ctx.load(stem)
    D = hw.dirichlet(c.m)
    mp, mm = _limit_replay(ctx, sys_, z, D)
    with ctx.tr.span("green.build"):
        ker = hw.green.build_whole_kernel(sys_, z, 0, D, mp, mm, (-w, w), certify=False)
    with ctx.tr.span("green.certify"):
        probes = [p for p in (-2, -1, 1, 2, 3) if -w < p < w][:4]
        max(hw.green.delta_residual(ker, p) for p in probes)
    at = ker.at

    def counted(k, ell):
        ctx.tr.count("green.kernel_evals")
        return at(k, ell)

    ker.at = counted
    if solve_seed is None:
        with ctx.tr.span("green.eval"):
            for k in range(-w, w + 1):
                ker.at(k, 0)
    else:
        f = ck.seeded_source(c.m, range(-w, w + 1), solve_seed)
        with ctx.tr.span("green.solve"):
            sol = hw.green.solve_nonhomogeneous(ker, {k: v[:, 0] for k, v in f.items()})
        with ctx.tr.span("green.flux"):
            for side in ("+", "-"):
                hw.green.flux_trend(ker, sol, side)
    with ctx.tr.span("extra"):
        _pencil_probe(ctx, sys_, z, -w, w)
        for zz in (z, np.conj(z)):
            with ctx.tr.span("propagate.fundamental"):
                hw.propagate.fundamental(sys_, zz, 0, D, (-w, w + 1))
            ctx.tr.count("propagate.zsteps", 2 * w + 1)


def op_green(ctx, stem, z, w, fault=None, home=True):
    c = ctx.inputs[stem]
    n = 2 * c.m

    def check(result):
        rows = _doc(result)["rows"]
        col = {r["k"]: _mat(r, "K", n) for r in rows}
        if sorted(col) != list(range(-w, w + 1)) or any(r["ell"] != 0 for r in rows):
            return "kernel rows do not cover the window column at the base site"
        return ck.check_kernel(c, z, col, 0)

    argv = ["green", "--input", ctx.path(stem), _zarg(z), f"--window=-{w},{w}"]
    return Op(f"green {stem} z={z} w={w}", lambda: ctx.cli_call(argv), check,
              "green", fault=fault, home=home,
              replay=lambda: _kernel_replay(ctx, stem, z, w))


def op_solve(ctx, stem, z, w, seed, fault=None, home=True):
    c = ctx.inputs[stem]
    n = 2 * c.m
    f = ck.seeded_source(c.m, range(-w, w + 1), seed)

    def check(result):
        rows = _doc(result)["rows"]
        y = {r["k"]: np.array([complex(r[f"y_{i}0_re"], r[f"y_{i}0_im"])
                               for i in range(n)])[:, None] for r in rows}
        if sorted(y) != list(range(-w, w + 1)):
            return "solution rows do not cover the window"
        return ck.check_solve(c, z, y, f, (-w, w))

    argv = ["solve", "--input", ctx.path(stem), _zarg(z), f"--window=-{w},{w}",
            "--seed", str(seed)]
    return Op(f"solve {stem} z={z} w={w}", lambda: ctx.cli_call(argv), check,
              "solve", fault=fault, home=home,
              replay=lambda: _kernel_replay(ctx, stem, z, w, solve_seed=seed))


def op_herglotz(ctx, sys_, label, ell, home=True):
    grid = [complex(r, i) for r in (-1.0, 1.0, 3.0) for i in (0.2, 0.9)]
    D = ctx.hw.dirichlet(sys_.m)

    def run():
        with ctx.tr.span("weyl.check"):
            return ctx.hw.weyl.herglotz_check(sys_, grid, 0, D, ell=ell, tol=1e-10)

    def check(rep):
        if not rep.passed or len(rep.rows) != len(grid):
            return f"herglotz_check: {rep.violations[:2]}"
        for row in rep.rows:
            if not (row["im_min_eig"] > 0 and row["conj_defect"] <= 1e-10 and row["ok"]):
                return f"herglotz_check row {row}"
        return None

    return Op(f"herglotz_check {label}", run, check, "herglotz", home=home)


def op_telescoping(ctx, sys_, label, z1, z2, steps, home=True):
    hp = ctx.hw.propagate

    def run():
        with ctx.tr.span("propagate.identity"):
            out = hp.lagrange_telescoping_check(sys_, z1, z2, 0, steps)
        ctx.tr.count("propagate.identity_steps", steps)
        return out

    return Op(f"telescoping {label} z=({z1},{z2})", run, ck.check_defect,
              "telescoping", steps, home=home)


# ---------------------------------------------------------------------------
# long-window M (a known fault)
# ---------------------------------------------------------------------------

def ops_long_window(ctx, stem, ell, zs):
    hw = ctx.hw
    c = ctx.inputs[stem]
    D = hw.dirichlet(c.m)
    sys_ = ctx.systems[stem]
    ops = []
    for z in zs:
        def scalar(z=z):
            cx = hw.weyl.disk_context(sys_, z, 0, ell, D)
            with ctx.tr.span("propagate.fundamental"):
                fund = hw.propagate.fundamental(sys_, z, 0, D, (0, ell))
            ctx.tr.count("propagate.zsteps", ell)
            with ctx.tr.span("weyl.m_extract"):
                M = hw.weyl.m_regular(sys_, cx, D, fund=fund).M
            ctx.tr.count("weyl.m_extract_calls")
            return M

        def batch(z=z):
            ev = hw.weyl.regular_m_evaluator(sys_, 0, ell, D, D)
            with ctx.tr.span("weyl.evaluator_n1"):
                M = ev(z)
            ctx.tr.count("weyl.n1_zsteps", ell)
            return M

        def check(M, z=z):
            return ck.check_m(M, ctx.dense(stem, ell).m_of(z)) or ck.check_herglotz(M, +1)

        ops.append(Op(f"m_regular {stem} ell={ell} z={z}", scalar, check,
                      "long_window", fault="long-window-m"))
        ops.append(Op(f"regular_m_evaluator {stem} ell={ell} z={z}", batch, check,
                      "long_window", fault="long-window-m"))
    return ops


# ---------------------------------------------------------------------------
# identities (library self-checks)
# ---------------------------------------------------------------------------

IDENTITY_Z_PAIRS = ((0.3 + 0.7j, -0.2 + 0.4j), (0.8 + 0.3j, 0.8 - 0.3j))
IDENTITY_STEPS = 200


def identity_systems(hw, seed):
    """Seeded ``random_system`` draws: all three classes, m = 1, 2, 3."""
    classes = ("jacobi", "dirac", "general_A12zero")
    out = []
    for i in range(6):
        m = 1 + (i + i // 3) % 3
        s = (seed * 7919 + i) % 2**31
        out.append((f"{classes[i % 3]}_m{m}",
                    hw.testkit.random_system(m, (0, IDENTITY_STEPS + 1), s, classes[i % 3])))
    return out


def ops_identities(ctx, systems):
    hw = ctx.hw
    hp, hwl = hw.propagate, hw.weyl
    ops = []
    for label, sys_ in systems:
        for z1, z2 in IDENTITY_Z_PAIRS:
            ops.append(op_telescoping(ctx, sys_, label, z1, z2, IDENTITY_STEPS))
        D = hw.dirichlet(sys_.m)
        z = 0.4 + 0.6j

        def pair(sys_=sys_, D=D, z=z):
            with ctx.tr.span("propagate.fundamental"):
                fz = hp.fundamental(sys_, z, 0, D, (0, 60))
                fzb = hp.fundamental(sys_, np.conj(z), 0, D, (0, 60))
                fw = hp.fundamental(sys_, z + 0.5, 0, D, (0, 60))
            ctx.tr.count("propagate.zsteps", 180)
            with ctx.tr.span("propagate.identity"):
                good = hp.fundamental_pair_defect(fz, fzb)
                wrong = hp.fundamental_pair_defect(fz, fw)
            ctx.tr.count("propagate.identity_steps", 122)
            return good, wrong

        ops.append(Op(f"fundamental_pair_defect {label}", pair,
                      lambda r: ck.check_defect(r[0]) or ck.check_sensitive(r[1]),
                      "pair_defect"))

        ops.append(op_herglotz(ctx, sys_, label, ell=8))

        def riccati(sys_=sys_, D=D, z=z):
            # M of the Dirichlet problem on [0, 10]; its Weyl solution has
            # u1(10) = 0, so the Riccati variable is taken on [0, 8] only
            with ctx.tr.span("propagate.fundamental"):
                fund = hp.fundamental(sys_, z, 0, D, (0, 10))
            ctx.tr.count("propagate.zsteps", 10)
            cx = hwl.disk_context(sys_, z, 0, 10, D)
            M = hwl.m_regular(sys_, cx, D, fund=fund).M
            with ctx.tr.span("propagate.fundamental"):
                fund = hp.fundamental(sys_, z, 0, D, (0, 8))
            ctx.tr.count("propagate.zsteps", 8)
            with ctx.tr.span("weyl.check"):
                rep = hwl.riccati_from_solution(sys_, hp.weyl_solution(fund, M))
                near = {k: v for k, v in rep.V.items() if k <= 6}
                good = hwl.riccati_residual(sys_, z, near)
                bent = dict(near)
                bent[3] = 1.5 * bent[3] + 0.5 * np.eye(sys_.m)
                wrong = hwl.riccati_residual(sys_, z, bent)
            return rep, good, wrong

        def check_riccati(r):
            rep, good, wrong = r
            if rep.errors:
                return f"riccati_from_solution errors {list(rep.errors.values())[:2]}"
            return ck.check_defect(good.max_norm) or ck.check_sensitive(wrong.max_norm)

        ops.append(Op(f"riccati {label}", riccati, check_riccati, "riccati"))
    return ops
