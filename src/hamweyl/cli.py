"""Batch command-line front end.

Reads a coefficient file, runs one computation over a parameter grid, and
writes machine-readable CSV or JSON plus a short human-readable report on
stderr. Outputs are deterministic for a fixed configuration and seed;
re-running produces byte-identical files apart from a timestamp header line
suppressed by ``--no-timestamp``.

Exit codes: 0 ok, 1 usage error, 2 validation failure, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import dataclasses
import io
import json
import sys
from datetime import datetime, timezone

import numpy as np

from . import green as hgreen
from . import system as hsystem
from . import weyl as hweyl
from .errors import ConvergenceError, HamweylError, InputError, SteppingError

__all__ = ["main", "build_parser"]

COMMANDS = ("validate", "eig", "mfun", "disk", "limit", "green", "solve",
            "measure")
_DEFAULT_INTERVAL = (-1.0, 5.0)  # eig's and measure's real interval


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _parse_numbers(text: str, what: str, kind=float, count=None, sep=","):
    """The ``sep``-separated numbers of ``text``, blank entries skipped, each
    read by ``kind``; exactly ``count`` of them when ``count`` is given, and
    at least one."""
    try:
        values = [kind(x) for x in text.split(sep) if x.strip()]
    except ValueError:
        values = None
    if not values or count not in (None, len(values)):
        raise UsageError(f"cannot parse {what} {text!r}")
    return values


def _parse_complex(text: str) -> complex:
    try:
        z = complex(*_parse_numbers(text, "--z re,im", count=2)) if "," in text \
            else complex(text.strip().replace("i", "j"))
    except ValueError as e:
        raise UsageError(f"cannot parse complex number {text!r}") from e
    if not cmath.isfinite(z):
        raise UsageError(f"--z must be finite, got {text!r}")
    return z


def _parse_z_grid(text: str) -> np.ndarray:
    """Rectangle syntax 're0:re1:n,im0:im1:n' -> flattened row-major grid."""
    what = "--z-grid re0:re1:n,im0:im1:n"
    axes = text.split(",")
    if len(axes) != 2:
        raise UsageError(f"cannot parse {what} {text!r}")
    (r0, r1, rn), (i0, i1, im_n) = (_parse_numbers(a, what, count=3, sep=":")
                                    for a in axes)
    if not (np.isfinite([r0, r1, i0, i1]).all()
            and all(n >= 1 and n.is_integer() for n in (rn, im_n))):
        raise UsageError(f"{what} needs finite ends and whole n >= 1, got {text!r}")
    rr, ii = np.meshgrid(np.linspace(r0, r1, int(rn)),
                         np.linspace(i0, i1, int(im_n)), indexing="ij")
    return (rr + 1j * ii).reshape(-1)


def _parse_boundary(text: str, m: int) -> hsystem.BoundaryData:
    """A preset or JSON boundary matrix, as boundary data of block size m."""
    t = text.strip().lower()
    if t == "dirichlet":
        return hsystem.dirichlet(m)
    if t == "neumann":
        return hsystem.neumann(m)
    try:
        rows = json.loads(text)
        mat = np.array([[complex(e[0], e[1]) if isinstance(e, (list, tuple))
                         else complex(e) for e in row] for row in rows])
    except (ValueError, TypeError, IndexError) as e:
        raise UsageError(f"cannot parse boundary data {text!r}") from e
    return hsystem._boundary_of_size(hsystem.make_boundary_data(mat), m)


def _parse_pairs(text: str) -> list:
    return _parse_numbers(text, "--pairs", sep=";",
                          kind=lambda pair: _parse_numbers(pair, "site pair k,l", int, 2))


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hamweyl",
        description="Weyl-Titchmarsh computations for finite-difference "
                    "Hamiltonian systems")
    p.add_argument("command", nargs="?", choices=COMMANDS)
    p.add_argument("--input", required=False, help="coefficient file (JSON)")
    p.add_argument("--output", default="-", help="output path or - for stdout")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--no-timestamp", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--z", help="complex number, e.g. 0.5+1j or '0.5,1.0'")
    p.add_argument("--z-grid", help="rectangle re0:re1:n,im0:im1:n")
    p.add_argument("--k0", type=int, default=0)
    p.add_argument("--ell", type=int)
    p.add_argument("--ell-max", type=int)
    p.add_argument("--ell-schedule", help="comma list of far sites")
    p.add_argument("--alpha", default="dirichlet")
    p.add_argument("--beta", default="dirichlet")
    p.add_argument("--interval", help="real interval a,b")
    p.add_argument("--grid-n", type=int, default=200)
    p.add_argument("--eps-schedule", default="1e-4,1e-5,1e-6")
    p.add_argument("--variant", choices=("whole", "half-plus", "half-minus"),
                   default="whole")
    p.add_argument("--window", help="site window lo,hi")
    p.add_argument("--pairs", help="kernel evaluation pairs 'k,l;k,l'")
    p.add_argument("--impulse-site", type=int)
    p.add_argument("--workers", type=int, default=4,
                   help="accepted and ignored: every command runs in one "
                        "thread (mfun evaluates its grid in one batch)")
    return p


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _complex_columns(prefix: str, mat: np.ndarray) -> dict:
    out = {}
    for i, row in enumerate(np.atleast_2d(np.asarray(mat, dtype=complex)).tolist()):
        for j, v in enumerate(row):
            out[f"{prefix}_{i}{j}_re"] = v.real
            out[f"{prefix}_{i}{j}_im"] = v.imag
    return out


def _json_default(o):
    if isinstance(o, (np.floating, np.integer)):
        return float(o)
    if isinstance(o, np.bool_):
        return bool(o)
    return str(o)


def _json_text(meta: dict, rows: list[dict]) -> str:
    """The bytes of ``json.dumps({"meta": meta, "rows": rows}, indent=1,
    default=_json_default) + "\\n"`` for flat (scalar-valued) dicts. Each
    dict goes through the C encoder, whose item separator carries the
    newline and indent of its depth."""
    def flat(depth: int):
        pad = "\n" + " " * depth
        encode = json.JSONEncoder(separators=("," + pad, ": "),
                                  default=_json_default).encode
        return lambda d: "{" + pad + encode(d)[1:-1] + pad[:-1] + "}" if d else "{}"

    rows_text = "[\n  " + ",\n  ".join(map(flat(3), rows)) + "\n ]" if rows else "[]"
    return '{\n "meta": ' + flat(2)(meta) + ',\n "rows": ' + rows_text + "\n}\n"


def _write_output(rows: list[dict], meta: dict, args) -> None:
    if not args.no_timestamp:
        meta["generated"] = datetime.now(timezone.utc).isoformat()

    if args.format == "json":
        text = _json_text(meta, rows)
    else:
        buf = io.StringIO()
        for key in sorted(meta):
            buf.write(f"# {key}: {meta[key]}\n")
        if rows:
            fields = []
            for row in rows:
                for k in row:
                    if k not in fields:
                        fields.append(k)
            writer = csv.DictWriter(buf, fieldnames=fields, restval="")
            writer.writeheader()
            for row in rows:
                writer.writerow({k: _fmt(v) for k, v in row.items()})
        text = buf.getvalue()
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# commands: each takes the parsed options and the loaded system and returns
# its rows and meta (validate also its exit code); main writes them
# ---------------------------------------------------------------------------

def cmd_validate(args, sys_):
    z_sample = ([_parse_complex(args.z)] if args.z
                else list(hsystem.DEFAULT_Z_SAMPLE))
    # default definiteness probe: a short interval (the Gram of a long window
    # is definite but ill conditioned, which only obscures the verdict)
    interval = _parse_numbers(args.interval, "--interval c,d", int, 2) \
        if args.interval else (sys_.k_min, min(sys_.k_max, sys_.k_min + 11))
    rows = []
    failed = unresolved = False
    rep = hsystem.validate_pointwise(sys_)
    rows.extend({"check": "pointwise", **dataclasses.asdict(v)} for v in rep.violations)
    failed |= not rep.passed
    for z in z_sample:
        wp = hsystem.check_wellposed(sys_, z)
        rows.extend({"check": f"wellposed z={z}", **dataclasses.asdict(v)}
                    for v in wp.violations)
        failed |= not wp.passed
        try:
            dr = hsystem.check_definiteness(sys_, z, interval)
        except SteppingError as e:  # a singular pencil leaves no verdict
            row = {"site": e.site, "kind": "unresolved", "magnitude": e.rcond,
                   "message": str(e)}
        else:
            row = {"site": interval[0], "kind": dr.verdict, "magnitude": dr.min_eig,
                   "message": f"min eig {dr.min_eig:.3e} on {dr.interval}"}
        rows.append({"check": f"definiteness z={z}", **row})
        failed |= row["kind"] == "indefinite"
        unresolved |= row["kind"] == "unresolved"
    # a definiteness verdict within the Gram rounding is a numerical
    # outcome (exit 3) unless some check failed outright (exit 2)
    status, code = (("FAIL", 2) if failed else ("unresolved", 3) if unresolved
                    else ("ok", 0))
    print(f"validate: {status} ({len(rows)} records)", file=sys.stderr)
    return rows, {"input": args.input, "passed": code == 0}, code


def _regular_problem(args, sys_, command: str):
    """--ell, required, and the boundary data alpha at k0 and beta at ell."""
    if args.ell is None:
        raise UsageError(f"--ell is required for {command}")
    return (args.ell, _parse_boundary(args.alpha, sys_.m),
            _parse_boundary(args.beta, sys_.m))


def cmd_eig(args, sys_):
    ell, alpha, beta = _regular_problem(args, sys_, "eig")
    a, b = _parse_numbers(args.interval, "--interval a,b", count=2) \
        if args.interval else _DEFAULT_INTERVAL
    eigs = hweyl.eigenvalues(sys_, args.k0, ell, alpha, beta, (a, b))
    rows = [{"index": i, "eigenvalue": float(lam)} for i, lam in enumerate(eigs)]
    return rows, {"k0": args.k0, "ell": ell, "count": len(eigs)}


def cmd_mfun(args, sys_):
    ell, alpha, beta = _regular_problem(args, sys_, "mfun")
    if args.z_grid:
        zs = _parse_z_grid(args.z_grid)
    elif args.z:
        zs = np.array([_parse_complex(args.z)])
    else:
        raise UsageError("give --z or --z-grid")
    ctx = hweyl.disk_context(sys_, zs[0], args.k0, ell, alpha)
    Ms, smins = hweyl._m_at(sys_, ctx, beta, hweyl._admissible_z(zs))
    margins = hweyl._herglotz_margin(Ms, [hweyl.sigma_of(ell, args.k0, z) for z in zs])
    rows = []
    for z, M, smin, herg in zip(zs, Ms, smins, margins.tolist()):
        row = {"z_re": float(z.real), "z_im": float(z.imag)}
        row.update(_complex_columns("M", M))
        row["smin"] = float(smin)
        row["herglotz_min_eig"] = herg
        row["herglotz_ok"] = herg > 0
        rows.append(row)
    return rows, {"k0": args.k0, "ell": ell, "points": len(rows)}


def _z(args) -> complex:
    return hweyl._admissible_z(_parse_complex(args.z) if args.z else 1j)


def cmd_disk(args, sys_):
    alpha = _parse_boundary(args.alpha, sys_.m)
    beta = _parse_boundary(args.beta, sys_.m)
    z = _z(args)
    if args.ell_schedule:
        schedule = _parse_numbers(args.ell_schedule, "--ell-schedule", int)
    elif args.ell_max is not None:
        schedule = hweyl._default_schedule(args.k0, args.ell_max, 4)
    else:
        raise UsageError("give --ell-schedule or --ell-max")
    for ell in schedule:
        hweyl.disk_context(sys_, z, args.k0, ell, alpha)
    walk = hweyl._far_walk(sys_, z, args.k0, alpha, beta, [schedule])
    rows = [{"ell": ell, "membership": hweyl.disk_membership(e_rel, tol=args.tol),
             "E_norm": e_norm, "diameter": float(diam[0]), **_complex_columns("M", M)}
            for ell, M, e_rel, e_norm, diam in walk]
    return rows, {"k0": args.k0, "z": str(z)}


def cmd_limit(args, sys_):
    # z and alpha fail the command, a tail with no m/m split only its row
    alpha = hsystem._self_adjoint(_parse_boundary(args.alpha, sys_.m))
    z = _z(args)
    rows = []
    for direction in "+-":
        try:
            lim = hweyl.limit_m(sys_, z, args.k0, alpha, direction)
        except InputError as e:
            rows.append({"direction": direction, "classification": "inconclusive",
                         "cauchy_gap": float("inf"), "diameter": float("inf"),
                         "ells": "", "note": str(e)})
            continue
        row = {"direction": direction,
               "classification": lim.classification,
               "cauchy_gap": lim.cauchy_gap,
               "diameter": lim.diameter_estimate,
               "ells": " ".join(str(e) for e in lim.ell_sequence),
               "note": lim.note}
        if lim.M_pm is not None:
            row.update(_complex_columns("M", lim.M_pm))
        rows.append(row)
    return rows, {"k0": args.k0, "z": str(z)}


def _kernel_from_args(args, sys_):
    alpha = _parse_boundary(args.alpha, sys_.m)
    z = _z(args)
    window = _parse_numbers(args.window, "--window lo,hi", int, 2) \
        if args.window else sys_.window
    variant = args.variant.replace("-", "_")
    M = {}
    for side in hgreen._SIDES[variant]:
        lim = hweyl.limit_m(sys_, z, args.k0, alpha, side)
        if lim.classification == "inconclusive":
            raise ConvergenceError(f"the {side} half-line M at z={z} is inconclusive: "
                                   f"{lim.note}")
        M[side] = lim.M_pm
    return hgreen._build(sys_, z, args.k0, alpha, hgreen._cut(variant, window, args.k0),
                         variant, M.get("+"), M.get("-"))


def cmd_green(args, sys_):
    kernel = _kernel_from_args(args, sys_)
    lo, hi = kernel.window
    pairs = _parse_pairs(args.pairs) if args.pairs else \
        [(k, (lo + hi) // 2) for k in range(lo, hi + 1)]
    rows = []
    for k, ell in pairs:
        row = {"k": k, "ell": ell}
        row.update(_complex_columns("K", kernel.at(k, ell)))
        rows.append(row)
    return rows, {"variant": kernel.variant, "window": str(kernel.window),
                  "delta_defect": kernel.diagnostics.get("delta_defect"),
                  "coupling_defect": kernel.diagnostics.get("coupling_defect")}


def cmd_solve(args, sys_):
    kernel = _kernel_from_args(args, sys_)
    sites = list(kernel.source_sites())
    if args.impulse_site is not None:
        f = {args.impulse_site: np.eye(2 * sys_.m, dtype=complex)}
        source = f"impulse at {args.impulse_site}"
    else:
        if args.seed < 0:
            raise UsageError(f"--seed must be >= 0, got {args.seed}")
        # seeded random source over the admissible sites
        rng = np.random.default_rng(args.seed)
        f = {k: rng.normal(size=2 * sys_.m) + 1j * rng.normal(size=2 * sys_.m)
             for k in sites}
        source = f"random (seed {args.seed})"
    sol = hgreen.solve_nonhomogeneous(kernel, f)
    rows = []
    for k in range(kernel.window[0], kernel.window[1] + 1):
        row = {"k": k}
        row.update(_complex_columns("y", sol.y[k]))
        if k in sol.residual_by_site:
            row["residual"] = sol.residual_by_site[k]
        rows.append(row)
    meta = {"variant": kernel.variant,
            "source": source, "residual_max": sol.residual_max,
            "l2a_lhs": sol.l2a_lhs, "l2a_bound": sol.l2a_bound,
            "l2a_ok": sol.l2a_ok}
    for side in hgreen._SIDES[kernel.variant]:
        trend = hgreen.flux_trend(kernel, sol, side)
        meta[f"flux_ratio_{'plus' if side == '+' else 'minus'}"] = trend["ratio"]
    return rows, meta


def cmd_measure(args, sys_):
    ell, alpha, beta = _regular_problem(args, sys_, "measure")
    interval = _parse_numbers(args.interval, "--interval a,b", count=2) \
        if args.interval else _DEFAULT_INTERVAL
    eps = _parse_numbers(args.eps_schedule, "--eps-schedule")
    m_eval = hweyl.regular_m_evaluator(sys_, args.k0, ell, alpha, beta)
    # the measure is read above the real axis, where sigma is sign(ell - k0)
    sm = hweyl.spectral_measure(m_eval, interval, args.grid_n, eps,
                                sigma=hweyl.sigma_of(ell, args.k0, 1j))
    rows = []
    for i, trace in enumerate(sm.trace_increments().tolist()):
        row = {"lambda_lo": float(sm.grid[i]), "lambda_hi": float(sm.grid[i + 1])}
        row.update(_complex_columns("Omega", sm.increments[i]))
        row["trace"] = trace
        rows.append(row)
    return rows, {"k0": args.k0, "ell": ell, "eps_schedule": args.eps_schedule,
                  "converged": sm.converged, "convergence_gap": sm.convergence_gap}


DISPATCH = {command: globals()[f"cmd_{command}"] for command in COMMANDS}
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    if args.command is None:
        _PARSER.print_usage(sys.stderr)
        return 1
    try:
        if not args.input:
            raise UsageError("--input is required")
        rows, meta, *code = DISPATCH[args.command](
            args, hsystem.load_coefficients(args.input))
        _write_output(rows, {"command": args.command, **meta}, args)
        return code[0] if code else 0
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except InputError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except (HamweylError, np.linalg.LinAlgError, FloatingPointError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
