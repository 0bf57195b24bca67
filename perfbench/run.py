#!/usr/bin/env python3
"""The hamweyl benchmark.

    python3 perfbench/run.py --workload scalar --seed 1 --seconds 45 --trace 0

Runs one workload against the package in ``src/`` of this checkout, in this
single process, one operation at a time, with BLAS and OpenMP pinned to one
thread. Every output is checked. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``). End-to-end timings are scaled to a fixed machine speed by a
calibration kernel timed beside each operation (see ``probe``). A record of
the run, with quartiles, failures by fault and machine information, is
written under ``perfbench/results/``.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.linalg  # noqa: E402,F401  (imported before set-up, which times the package)

import checks as ck  # noqa: E402
import gen_inputs as gi  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("scalar", "spectral")
SETUP_REPS = 5

# Machine speed beside each timing. On a shared host the same code runs at
# two speeds about 1.6x apart, switching every few seconds to minutes, so a
# run's raw seconds depend on how much of it fell in the slow spells. A fixed
# numpy kernel, timed just before and just after an operation, slows by the
# same factor; every timed operation (and every set-up) is reported in
# seconds at the speed where this kernel takes REF_PROBE_S. The kernel is
# fixed: the same machine speed gives the same factor on every commit.
REF_PROBE_S = 2.5e-3
_PROBE_RNG = np.random.default_rng(20030)
_PROBE_A = _PROBE_RNG.standard_normal((4, 4)) + 1j * _PROBE_RNG.standard_normal((4, 4))
_PROBE_SHIFT = _PROBE_A + 2.0 * np.eye(4)


def probe() -> float:
    """Seconds of the fixed calibration kernel: small complex solves and
    SVDs driven from Python, the mix the package's scalar and batched
    paths spend their time on. It does not touch the package."""
    t0 = time.perf_counter()
    x = _PROBE_A
    for _ in range(100):
        x = np.linalg.solve(_PROBE_SHIFT, x)
        np.linalg.svd(x, compute_uv=False)
        x = x / np.abs(x).max()
    return time.perf_counter() - t0


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the reference speed, from the probes around it."""
    return seconds * REF_PROBE_S / (0.5 * (before + after))

# end-to-end metrics: family of operations -> (name, unit, how, scale)
#   "call": mean over the family's operations of their seconds, times scale
#   "rate": the family's work units over the sum of their seconds
FAMILY_METRIC = {
    "validate": ("validate_s", "s", "call", 1.0),
    "mfun": ("mfun_points_per_s", "points/s", "rate", 1.0),
    "disk": ("disk_sites_per_s", "sites/s", "rate", 1.0),
    "eig": ("eig_s", "s", "call", 1.0),
    "measure": ("measure_s", "s", "call", 1.0),
    "limit": ("limit_ms", "ms", "call", 1e3),
    "green": ("kernel_ms", "ms", "call", 1e3),
    "solve": ("solve_ms", "ms", "call", 1e3),
    "telescoping": ("identity_steps_per_s", "steps/s", "rate", 1.0),
}

PER_LAYER_UNITS = {
    "system.load_s": "s", "system.validate_s": "s", "system.pencil_us": "us",
    "propagate.fundamental_s": "s", "propagate.zsteps": "count",
    "propagate.us_per_zstep": "us", "propagate.identity_s": "s",
    "propagate.identity_steps": "count", "propagate.us_per_identity_step": "us",
    "weyl.m_extract_us": "us", "weyl.disk_extras_s": "s",
    "weyl.evaluator_us_per_zstep_n1": "us", "weyl.evaluator_us_per_zstep_bulk": "us",
    "weyl.quad_points": "count", "weyl.quad_calls": "count", "weyl.quad_s": "s",
    "weyl.limit_s": "s", "weyl.limit_sites": "count", "weyl.check_s": "s",
    "testkit.eig_scan_s": "s", "testkit.oracle_s": "s",
    "green.build_s": "s", "green.certify_s": "s", "green.solve_s": "s",
    "green.flux_s": "s", "green.kernel_evals": "count",
    "cli.main_s": "s", "cli.overhead_s": "s", "cli.bytes_out": "bytes",
    "trace.overhead_s": "s",
}


def fail(msg: str, code: int = 2):
    print(f"perfbench: {msg}", file=sys.stderr)
    raise SystemExit(code)


# ---------------------------------------------------------------------------
# set-up: import, input load, system construction
# ---------------------------------------------------------------------------

def setup(stems, input_dir, tracer, workload, seed):
    """Import the package afresh, load every input and construct the
    workload's systems; returns (package, cli, systems, identity systems,
    seconds)."""
    for name in [n for n in sys.modules if n == "hamweyl" or n.startswith("hamweyl.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    hw = importlib.import_module("hamweyl")
    cli = importlib.import_module("hamweyl.cli")
    systems = {}
    with tracer.span("system.load"):
        for stem in stems:
            systems[stem] = hw.load_coefficients(os.path.join(input_dir, stem + ".json"))
    extra = wl.identity_systems(hw, seed) if workload == "scalar" else []
    return hw, cli, systems, extra, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

# (input, far site of mfun, last far site of disk). M and the disk functional
# are evaluated on the unnormalized fundamental, so their rounding grows with
# the window, fastest for m >= 2; the far sites stay where every seed gives
# M to 1e-9 of the dense resolvent and a circle today.
MG_INPUTS = (("mg_jacobi_m1", 80, 40), ("mg_jacobi_m2", 16, 16), ("mg_dirac_m2", 30, 30),
             ("mg_general_m2", 20, 20), ("mg_jacobi_m4", 16, 16))
MG_ZGRID = "-1:5:8,0.4:1:2"
DISK_Z = 0.5 + 0.4j
LW_Z = (-0.5 + 0.1j, 0.5 + 0.1j, 1.5 + 0.1j, 0.5 + 0.5j)
# z of each half-line input, where the +-20 certificate holds for every seed
HL_Z = {"free_m1": (1.0 + 0.2j, 1.5 + 0.3j), "hl_jacobi_m2": (1.0 + 0.2j, 1.5 + 0.3j),
        "const_m2": (1.5 + 0.3j,)}
FAULT_Z = 0.5 + 0.5j
FAULT_SOLVE_SEED = 7


def files_for(workload):
    if workload == "scalar":
        return ([s for s, _, _ in MG_INPUTS] + list(gi.LONG)
                + ["free_m1", "const_m2", "hl_jacobi_m2"])
    return ["free_m1", "free_long", "sp_jacobi_m1", "sp_jacobi_m2"]


def canary(ctx, families):
    """Small fixed operations on the free chain that give every workload a
    value for the metrics of the others; only families in ``families``."""
    z = 0.5 + 0.5j
    table = {
        "validate": lambda: [wl.op_validate(ctx, "free_m1", home=False)],
        "mfun": lambda: [wl.op_mfun(ctx, "free_m1", 20, "-0.5:4.5:6,0.2:1:2", home=False)],
        "disk": lambda: [wl.op_disk(ctx, "free_m1", z, (4, 8, 16), home=False)],
        "eig": lambda: [wl.op_eig(ctx, "free_m1", ell, (-0.5, 4.5), 101,
                                  ck.free_chain_eigenvalues(ell), home=False)
                        for ell in (6, 7, 8)],
        "measure": lambda: wl.op_measure_pair(ctx, "free_m1", 4, (-0.5, 1.0), 4,
                                              (1e-4, 5e-5), home=False),
        "limit": lambda: [wl.op_limit(ctx, "free_m1", z, home=False)],
        "green": lambda: [wl.op_green(ctx, "free_m1", z, 10, home=False)],
        "solve": lambda: [wl.op_solve(ctx, "free_m1", z, 10, 3, home=False)],
        "telescoping": lambda: [wl.op_telescoping(ctx, ctx.systems["free_m1"], "free_m1",
                                                  0.3 + 0.7j, -0.2 + 0.4j, 100, home=False)],
        "herglotz": lambda: [wl.op_herglotz(ctx, ctx.systems["free_m1"], "free_m1",
                                            ell=8, home=False)],
    }
    ops = []
    for fam in table:
        if fam in families:
            ops += table[fam]()
    return ops


def eig_interval(lam):
    """Search interval of an eig problem: the whole spectrum and a margin."""
    return (float(lam[0]) - 0.25, float(lam[-1]) + 0.25)


def measure_interval(lam):
    """Measure interval holding the lowest eigenvalue only."""
    return (float(lam[0]) - 0.25, 0.5 * float(lam[0] + lam[1]))


def mgrid_ops(ctx):
    """M-function grids on the scalar path, and the long-window M fault."""
    ops = [wl.op_validate(ctx, stem) for stem, _, _ in MG_INPUTS]
    ops += [wl.op_mfun(ctx, stem, ell, MG_ZGRID) for stem, ell, _ in MG_INPUTS]
    ops += [wl.op_disk(ctx, stem, DISK_Z, tuple(ell * j // 4 for j in range(1, 5)))
            for stem, _, ell in MG_INPUTS]
    for stem in gi.LONG:
        ops += wl.ops_long_window(ctx, stem, 300, LW_Z)
    return ops


def halfline_ops(ctx):
    """Limits, kernels and solves on +-20, and the +-80 kernel-window fault."""
    ops = []
    for stem, zs in HL_Z.items():
        for z in zs:
            ops.append(wl.op_limit(ctx, stem, z))
            ops.append(wl.op_green(ctx, stem, z, 20))
            ops.append(wl.op_solve(ctx, stem, z, 20, ctx.seed % 1000))
    ops.append(wl.op_green(ctx, "free_m1", FAULT_Z, 80, fault="kernel-window"))
    ops.append(wl.op_solve(ctx, "free_m1", FAULT_Z, 80, FAULT_SOLVE_SEED,
                           fault="kernel-window"))
    return ops


def spectral_ops(ctx):
    """Eigenvalue scans and spectral measures, and the eig-overflow fault."""
    ops = [wl.op_eig(ctx, "free_m1", 10, (-0.5, 4.5), 201, ck.free_chain_eigenvalues(10))]
    for stem, (ell, grid_n) in gi.SPECTRAL_EIG.items():
        lam = ctx.dense(stem, ell).eigenvalues
        ops.append(wl.op_eig(ctx, stem, ell, eig_interval(lam), grid_n, lam))
    ops.append(wl.op_eig(ctx, "free_long", 1000, (-3.0, -1.0), 101, [],
                         fault="eig-overflow"))
    for stem, ell in (("free_m1", 6), ("sp_jacobi_m2", 4)):
        lam = ctx.dense(stem, ell).eigenvalues
        ops += wl.op_measure_pair(ctx, stem, ell, measure_interval(lam), 4, (1e-4, 5e-5))
    return ops


def build_ops(workload, ctx, identity_systems):
    if workload == "scalar":
        ops = mgrid_ops(ctx) + halfline_ops(ctx) + wl.ops_identities(ctx, identity_systems)
    else:
        ops = spectral_ops(ctx)
    have = {op.family for op in ops}
    return ops + canary(ctx, (set(FAMILY_METRIC) | {"herglotz"}) - have)


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------

class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.by_fault = {}
        self.unexpected = []

    def add(self, op, err):
        self.attempted += 1
        if err is None:
            return
        self.failed += 1
        if op.fault:
            self.by_fault[op.fault] = self.by_fault.get(op.fault, 0) + 1
        elif len(self.unexpected) < 20:
            self.unexpected.append(f"{op.name}: {err}")


def run_round(ops, ctx, tally, traced):
    """One pass over every operation; returns the seconds of each, raw and
    scaled to the reference speed."""
    raw, times = [], []
    for i, op in enumerate(ops):
        ctx.tr.op = i
        before = probe()
        t0 = time.perf_counter()
        try:
            with ctx.tr.span("op"):
                result = op.run()
            err = None
        except Exception as e:  # a raised error is the operation's failure
            result, err = None, f"{type(e).__name__}: {e}"
        dt = time.perf_counter() - t0
        raw.append(dt)
        times.append(scaled(dt, before, probe()))
        if err is None:
            try:
                err = op.check(result)
            except Exception as e:
                err = f"output rejected ({type(e).__name__}: {e})"
        tally.add(op, err)
        if traced and op.replay is not None:
            try:
                with ctx.tr.span("replay"):
                    op.replay()
            except Exception as e:
                if op.fault is None:  # the faults raise here as in the command
                    tally.unexpected.append(f"replay of {op.name}: {type(e).__name__}: {e}")
    return raw, times


def e2e_values(ops, times):
    """End-to-end metrics from the seconds of each operation: ``wall_s``
    sums the workload's own operations, the per-command metrics average or
    rate their family's operations."""
    fam_time, fam_calls, fam_units = {}, {}, {}
    wall = 0.0
    for op, dt in zip(ops, times):
        if op.home:
            wall += dt
        fam_time[op.family] = fam_time.get(op.family, 0.0) + dt
        fam_calls[op.family] = fam_calls.get(op.family, 0) + 1
        fam_units[op.family] = fam_units.get(op.family, 0) + op.units
    values = {"wall_s": wall}
    for fam, (name, _, how, scale) in FAMILY_METRIC.items():
        if fam in fam_time:
            if how == "call":
                values[name] = scale * fam_time[fam] / fam_calls[fam]
            else:
                values[name] = fam_units[fam] / fam_time[fam]
    return values


def typical(rounds):
    """Each operation's median seconds over the rounds. A stall of the
    machine hits one operation in one round; the per-operation median drops
    it, where the median of round totals over a few rounds would not."""
    return [statistics.median(r[i] for r in rounds) for i in range(len(rounds[0]))]


def layer_values(tracer, mark):
    total, own, counts = tracer.since(mark)
    t = lambda k: total.get(k, 0.0)  # noqa: E731
    n = lambda k: counts.get(k, 0.0)  # noqa: E731

    def per(a, b, scale=1e6):
        return scale * a / b if b else float("nan")

    return {
        "system.validate_s": t("system.validate"),
        "system.pencil_us": per(t("system.pencil"), n("system.pencil_calls")),
        "propagate.fundamental_s": t("propagate.fundamental"),
        "propagate.zsteps": n("propagate.zsteps"),
        "propagate.us_per_zstep": per(t("propagate.fundamental"), n("propagate.zsteps")),
        "propagate.identity_s": t("propagate.identity"),
        "propagate.identity_steps": n("propagate.identity_steps"),
        "propagate.us_per_identity_step": per(t("propagate.identity"),
                                              n("propagate.identity_steps")),
        "weyl.m_extract_us": per(t("weyl.m_extract"), n("weyl.m_extract_calls")),
        "weyl.disk_extras_s": t("weyl.disk_extras"),
        "weyl.evaluator_us_per_zstep_n1": per(t("weyl.evaluator_n1"), n("weyl.n1_zsteps")),
        "weyl.evaluator_us_per_zstep_bulk": per(t("weyl.evaluator_bulk"),
                                                n("weyl.bulk_zsteps")),
        "weyl.quad_points": n("weyl.quad_points"),
        "weyl.quad_calls": n("weyl.quad_calls"),
        "weyl.quad_s": own.get("weyl.spectral_measure", 0.0),
        "weyl.limit_s": t("weyl.limit"),
        "weyl.limit_sites": n("weyl.limit_sites"),
        "weyl.check_s": t("weyl.check"),
        "testkit.eig_scan_s": t("testkit.eig_scan"),
        "testkit.oracle_s": t("testkit.oracle"),
        "green.build_s": t("green.build"),
        "green.certify_s": t("green.certify"),
        "green.solve_s": t("green.solve"),
        "green.flux_s": t("green.flux"),
        "green.kernel_evals": n("green.kernel_evals"),
        "cli.main_s": t("cli.main"),
        "cli.overhead_s": t("cli.main") - (t("replay") - t("extra")),
        "cli.bytes_out": n("cli.bytes_out"),
    }


# ---------------------------------------------------------------------------
# record
# ---------------------------------------------------------------------------

def quartiles(values):
    vals = sorted(v for v in values if v == v)
    if not vals:
        return {"median": None, "q1": None, "q3": None, "n": 0}
    if len(vals) == 1:
        return {"median": vals[0], "q1": vals[0], "q3": vals[0], "n": 1}
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return {"median": statistics.median(vals), "q1": q1, "q3": q3, "n": len(vals)}


def git_sha():
    """HEAD of the checkout when it is a git work tree, else None."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        return None
    return None


def machine_info():
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = None
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg.get("Build Dependencies", {}).get("blas", {})
        blas = {k: blas.get(k) for k in ("name", "version") if k in blas}
    except (TypeError, AttributeError):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas}


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="hamweyl benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # One CPU for the whole run: the CLI's worker thread then runs where the
    # probe runs, and the probe's speed is the speed the operation saw.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if not os.path.isfile(os.path.join(SRC, "hamweyl", "__init__.py")):
        fail(f"no package source at {SRC}/hamweyl; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    warnings.simplefilter("ignore")
    work = os.path.join(HERE, ".work", f"seed{args.seed}")
    stems = files_for(args.workload)
    inputs = gi.write_inputs(args.seed, work, stems)
    tracer = tracing.Tracer(bool(args.trace))

    setup_times, load_times = [], []
    for _ in range(SETUP_REPS):
        mark = tracer.mark()
        before = probe()
        hw, cli, systems, extra, dt = setup(stems, work, tracer, args.workload, args.seed)
        setup_times.append(scaled(dt, before, probe()))
        load_times.append(tracer.since(mark)[0].get("system.load", 0.0))

    ctx = wl.Ctx(hw, cli, inputs, work, systems, tracer, args.seed)
    ops = build_ops(args.workload, ctx, extra)
    tally = Tally()

    # warm-up round: first calls, lazy imports and the references the checks
    # compute once; checked and counted, not timed
    run_round(ops, ctx, tally, traced=False)

    plain, plain_raw, traced, layers = [], [], [], []
    t_start = time.perf_counter()
    while True:
        raw, times = run_round(ops, ctx, tally, traced=False)
        plain_raw.append(raw)
        plain.append(times)
        if args.trace:
            mark = tracer.mark()
            _, times = run_round(ops, ctx, tally, traced=True)
            traced.append(times)
            layers.append(layer_values(tracer, mark))
        if time.perf_counter() - t_start >= args.seconds:
            break

    if args.trace:
        stats = {"system.load_s": ("s", quartiles(load_times))}
        for name in layers[0]:
            stats[name] = (PER_LAYER_UNITS[name], quartiles([r[name] for r in layers]))
        overhead = (e2e_values(ops, typical(traced))["wall_s"]
                    - e2e_values(ops, typical(plain))["wall_s"])
        stats["trace.overhead_s"] = ("s", {"median": overhead, "q1": None, "q3": None,
                                           "n": len(traced)})
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        stats = {"setup_s": ("s", quartiles(setup_times)),
                 "peak_rss_mb": ("MB", quartiles([rss]))}
        per_round = [e2e_values(ops, r) for r in plain]
        for name, value in e2e_values(ops, typical(plain)).items():
            unit = "s" if name == "wall_s" else next(
                u for n, u, _, _ in FAMILY_METRIC.values() if n == name)
            stats[name] = (unit, {"value": value,
                                  **quartiles([r[name] for r in per_round])})

    correct = not tally.unexpected
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": len(plain) + len(traced) + 1,
        "attempted": tally.attempted, "failed": tally.failed,
        "failed_by_fault": tally.by_fault, "unexpected_failures": tally.unexpected,
        "known_faults": {k: wl.FAULTS[k] for k in tally.by_fault},
        "correct": correct,
        "metrics": {k: {"unit": u, **q} for k, (u, q) in stats.items()},
        "ref_probe_s": REF_PROBE_S,
        "operations": [{"name": op.name, "family": op.family, "home": op.home,
                        "fault": op.fault, "seconds": [r[i] for r in plain],
                        "raw_seconds": [r[i] for r in plain_raw]}
                       for i, op in enumerate(ops)],
        "machine": machine_info(), "git_sha": git_sha(),
    }
    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(results, stem + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        tracer.write(os.path.join(results, stem + "-spans.json"))

    for line in tally.unexpected:
        print(f"unexpected failure: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {k: {"value": q.get("value", q["median"]), "unit": u}
                    for k, (u, q) in stats.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
