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
import csv
import io
import json
import sys
from datetime import datetime, timezone

import numpy as np

from . import _linalg as la
from . import green as hgreen
from . import system as hsystem
from . import testkit as htestkit
from . import weyl as hweyl
from .errors import EigenvalueHitError, HamweylError, InputError

__all__ = ["main", "build_parser"]

COMMANDS = ("validate", "eig", "mfun", "disk", "limit", "green", "solve",
            "measure")


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _parse_complex(text: str) -> complex:
    t = text.strip()
    try:
        if "," in t:
            re_s, im_s = t.split(",")
            return complex(float(re_s), float(im_s))
        return complex(t.replace("i", "j"))
    except ValueError as e:
        raise UsageError(f"cannot parse complex number {text!r}") from e


def _parse_z_grid(text: str) -> np.ndarray:
    """Rectangle syntax 're0:re1:n,im0:im1:n' -> flattened row-major grid."""
    try:
        re_part, im_part = text.split(",")
        r0, r1, rn = re_part.split(":")
        i0, i1, im_n = im_part.split(":")
        res = np.linspace(float(r0), float(r1), int(rn))
        ims = np.linspace(float(i0), float(i1), int(im_n))
    except ValueError as e:
        raise UsageError(f"cannot parse z grid {text!r} "
                         "(expected re0:re1:n,im0:im1:n)") from e
    rr, ii = np.meshgrid(res, ims, indexing="ij")
    return (rr + 1j * ii).reshape(-1)


def _parse_boundary(text: str, m: int) -> hsystem.BoundaryData:
    t = text.strip().lower()
    if t == "dirichlet":
        return hsystem.dirichlet(m)
    if t == "neumann":
        return hsystem.neumann(m)
    try:
        rows = json.loads(text)
        mat = np.array([[complex(e[0], e[1]) if isinstance(e, (list, tuple))
                         else complex(e) for e in row] for row in rows])
    except (json.JSONDecodeError, TypeError, IndexError) as e:
        raise UsageError(f"cannot parse boundary data {text!r}") from e
    return hsystem.make_boundary_data(mat)


def _parse_int_pair(text: str, what: str) -> tuple[int, int]:
    try:
        a, b = text.split(",")
        return int(a), int(b)
    except ValueError as e:
        raise UsageError(f"cannot parse {what} {text!r} (expected a,b)") from e


def _parse_float_pair(text: str, what: str) -> tuple[float, float]:
    try:
        a, b = text.split(",")
        return float(a), float(b)
    except ValueError as e:
        raise UsageError(f"cannot parse {what} {text!r} (expected a,b)") from e


def _parse_float_list(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError as e:
        raise UsageError(f"cannot parse list {text!r}") from e


def _parse_pairs(text: str) -> list[tuple[int, int]]:
    out = []
    for chunk in text.split(";"):
        if chunk.strip():
            out.append(_parse_int_pair(chunk, "site pair"))
    return out


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hamweyl",
        description="Weyl-Titchmarsh computations for finite-difference "
                    "Hamiltonian systems")
    p.add_argument("command", nargs="?", choices=COMMANDS)
    p.add_argument("--command", dest="command_opt", choices=COMMANDS,
                   help="alternative to the positional command")
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
    mat = np.atleast_2d(mat)
    out = {}
    for i in range(mat.shape[0]):
        for j in range(mat.shape[1]):
            out[f"{prefix}_{i}{j}_re"] = float(mat[i, j].real)
            out[f"{prefix}_{i}{j}_im"] = float(mat[i, j].imag)
    return out


def _write_output(rows: list[dict], meta: dict, args) -> None:
    stamped = dict(meta)
    if not args.no_timestamp:
        stamped["generated"] = datetime.now(timezone.utc).isoformat()

    def _json_default(o):
        if isinstance(o, (np.floating, np.integer)):
            return float(o)
        if isinstance(o, np.bool_):
            return bool(o)
        return str(o)

    if args.format == "json":
        doc = {"meta": stamped, "rows": rows}
        text = json.dumps(doc, indent=1, default=_json_default) + "\n"
    else:
        buf = io.StringIO()
        for key in sorted(stamped):
            buf.write(f"# {key}: {stamped[key]}\n")
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
# commands
# ---------------------------------------------------------------------------

def _load_system(args) -> hsystem.HamiltonianSystem:
    if not args.input:
        raise UsageError("--input is required")
    return hsystem.load_coefficients(args.input)


def cmd_validate(args) -> int:
    sys_ = _load_system(args)
    z_sample = ([_parse_complex(args.z)] if args.z
                else list(hsystem.DEFAULT_Z_SAMPLE))
    # default definiteness probe: a short interval (the Gram of a long window
    # is definite but ill conditioned, which only obscures the verdict)
    interval = _parse_int_pair(args.interval, "interval") if args.interval \
        else (sys_.k_min, min(sys_.k_max, sys_.k_min + 11))
    rows = []
    failed = False
    rep = hsystem.validate_pointwise(sys_)
    for v in rep.violations:
        rows.append({"check": "pointwise", "site": v.site, "kind": v.kind,
                     "magnitude": v.magnitude, "message": v.message})
    failed |= not rep.passed
    for z in z_sample:
        wp = hsystem.check_wellposed(sys_, z)
        for v in wp.violations:
            rows.append({"check": f"wellposed z={z}", "site": v.site,
                         "kind": v.kind, "magnitude": v.magnitude,
                         "message": v.message})
        failed |= not wp.passed
        dr = hsystem.check_definiteness(sys_, z, interval)
        rows.append({"check": f"definiteness z={z}", "site": interval[0],
                     "kind": dr.verdict, "magnitude": dr.min_eig,
                     "message": f"min eig {dr.min_eig:.3e} on {dr.interval}"})
        failed |= not dr.definite
    meta = {"command": "validate", "input": args.input,
            "passed": not failed}
    _write_output(rows, meta, args)
    print(f"validate: {'FAIL' if failed else 'ok'} ({len(rows)} records)",
          file=sys.stderr)
    return 2 if failed else 0


def cmd_eig(args) -> int:
    sys_ = _load_system(args)
    if args.ell is None:
        raise UsageError("--ell is required for eig")
    alpha = _parse_boundary(args.alpha, sys_.m)
    beta = _parse_boundary(args.beta, sys_.m)
    a, b = _parse_float_pair(args.interval, "--interval") if args.interval \
        else (-1.0, 5.0)
    eigs = hweyl.eigenvalues(sys_, args.k0, args.ell, alpha, beta, (a, b))
    rows = [{"index": i, "eigenvalue": float(lam)} for i, lam in enumerate(eigs)]
    if rows and sys_.jacobi is not None:
        try:
            oracle = htestkit.jacobi_bvp_oracle(
                htestkit.RegularBVP(sys_, args.k0, args.ell, alpha, beta))
        except HamweylError:
            oracle = np.empty(0)
        for row, lam in zip(rows, oracle[(oracle > a) & (oracle <= b)]):
            row["oracle"] = float(lam)
            row["deviation"] = abs(row["eigenvalue"] - float(lam))
    meta = {"command": "eig", "k0": args.k0, "ell": args.ell,
            "count": len(eigs)}
    _write_output(rows, meta, args)
    return 0


def _z_list(args) -> np.ndarray:
    if args.z_grid:
        return _parse_z_grid(args.z_grid)
    if args.z:
        return np.array([_parse_complex(args.z)])
    raise UsageError("give --z or --z-grid")


def cmd_mfun(args) -> int:
    sys_ = _load_system(args)
    if args.ell is None:
        raise UsageError("--ell is required for mfun")
    alpha = _parse_boundary(args.alpha, sys_.m)
    beta = _parse_boundary(args.beta, sys_.m)
    zs = _z_list(args)
    if np.any(zs.imag == 0):
        raise UsageError("all grid points must satisfy Im z != 0")
    hweyl.disk_context(sys_, complex(zs[0]), args.k0, args.ell, alpha)
    ev = hweyl.regular_m_evaluator(sys_, args.k0, args.ell, alpha, beta)
    Ms, smins, hits = ev.extract(zs)
    if np.any(hits):
        i = int(np.argmax(hits))
        raise EigenvalueHitError(complex(zs[i]), float(smins[i]))
    rows = []
    for z, M, smin in zip(zs, Ms, smins):
        herg = la.min_eig_herm(hweyl.sigma_of(args.ell, args.k0, z)
                               * la.imag_part(M))
        row = {"z_re": float(z.real), "z_im": float(z.imag)}
        row.update(_complex_columns("M", M))
        row["smin"] = float(smin)
        row["herglotz_min_eig"] = herg
        row["herglotz_ok"] = bool(herg > 0)
        rows.append(row)
    meta = {"command": "mfun", "k0": args.k0, "ell": args.ell,
            "points": len(rows)}
    _write_output(rows, meta, args)
    return 0


def cmd_disk(args) -> int:
    sys_ = _load_system(args)
    alpha = _parse_boundary(args.alpha, sys_.m)
    beta = _parse_boundary(args.beta, sys_.m)
    z = _parse_complex(args.z) if args.z else 1j
    if args.ell_schedule:
        schedule = [int(x) for x in args.ell_schedule.split(",")]
    elif args.ell_max is not None:
        schedule = []
        s = 4
        while args.k0 + s <= args.ell_max:
            schedule.append(args.k0 + s)
            s *= 2
        if not schedule or schedule[-1] != args.ell_max:
            schedule.append(args.ell_max)
    else:
        raise UsageError("give --ell-schedule or --ell-max")
    for ell in schedule:
        hweyl.disk_context(sys_, z, args.k0, ell, alpha)
    walk = hweyl._far_walk(sys_, z, args.k0, alpha, beta, schedule)
    rows = [{"ell": ell, "membership": hweyl.disk_membership(e_rel, tol=args.tol),
             "E_norm": e_norm, "diameter": float(diam[0]), **_complex_columns("M", M)}
            for ell, M, e_rel, e_norm, diam in walk]
    meta = {"command": "disk", "k0": args.k0, "z": str(z)}
    _write_output(rows, meta, args)
    return 0


def cmd_limit(args) -> int:
    sys_ = _load_system(args)
    alpha = _parse_boundary(args.alpha, sys_.m)
    z = _parse_complex(args.z) if args.z else 1j
    rows = []
    for direction in (+1, -1):
        tag = "+" if direction > 0 else "-"
        try:
            lim = hweyl.limit_m(sys_, z, args.k0, alpha, direction)
        except InputError as e:
            rows.append({"direction": tag, "classification": "inconclusive",
                         "cauchy_gap": float("inf"), "diameter": float("inf"),
                         "ells": "", "note": str(e)})
            continue
        row = {"direction": tag,
               "classification": lim.classification,
               "cauchy_gap": lim.cauchy_gap,
               "diameter": lim.diameter_estimate,
               "ells": " ".join(str(e) for e in lim.ell_sequence),
               "note": lim.note}
        if lim.M_pm is not None:
            row.update(_complex_columns("M", lim.M_pm))
        rows.append(row)
    meta = {"command": "limit", "k0": args.k0, "z": str(z)}
    _write_output(rows, meta, args)
    return 0


def _kernel_from_args(args, sys_):
    alpha = _parse_boundary(args.alpha, sys_.m)
    z = _parse_complex(args.z) if args.z else 1j
    window = _parse_int_pair(args.window, "--window") if args.window \
        else sys_.window
    variant = args.variant
    need_plus = variant in ("whole", "half-plus")
    need_minus = variant in ("whole", "half-minus")
    mp = hweyl.limit_m(sys_, z, args.k0, alpha, +1).M_pm if need_plus else None
    mm = hweyl.limit_m(sys_, z, args.k0, alpha, -1).M_pm if need_minus else None
    if variant == "whole":
        return hgreen.build_whole_kernel(sys_, z, args.k0, alpha, mp, mm, window)
    if variant == "half-plus":
        return hgreen.build_half_kernel_plus(
            sys_, z, args.k0, alpha, mp, (args.k0, window[1]))
    return hgreen.build_half_kernel_minus(
        sys_, z, args.k0, alpha, mm, (window[0], args.k0))


def cmd_green(args) -> int:
    sys_ = _load_system(args)
    kernel = _kernel_from_args(args, sys_)
    lo, hi = kernel.window
    pairs = _parse_pairs(args.pairs) if args.pairs else \
        [(k, (lo + hi) // 2) for k in range(lo, hi + 1)]
    rows = []
    for k, ell in pairs:
        row = {"k": k, "ell": ell}
        row.update(_complex_columns("K", kernel.at(k, ell)))
        rows.append(row)
    meta = {"command": "green", "variant": kernel.variant,
            "window": str(kernel.window),
            "delta_defect": kernel.diagnostics.get("delta_defect"),
            "coupling_defect": kernel.diagnostics.get("coupling_defect")}
    _write_output(rows, meta, args)
    return 0


def cmd_solve(args) -> int:
    sys_ = _load_system(args)
    kernel = _kernel_from_args(args, sys_)
    sites = list(kernel.source_sites())
    if args.impulse_site is not None:
        f = {args.impulse_site: np.eye(2 * sys_.m, dtype=complex)}
        source = f"impulse at {args.impulse_site}"
    else:
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
    sides = {"whole": ("+", "-"), "half_plus": ("+",),
             "half_minus": ("-",)}[kernel.variant]
    meta = {"command": "solve", "variant": kernel.variant,
            "source": source, "residual_max": sol.residual_max,
            "l2a_lhs": sol.l2a_lhs, "l2a_bound": sol.l2a_bound,
            "l2a_ok": sol.l2a_ok}
    for side in sides:
        trend = hgreen.flux_trend(kernel, sol, side)
        meta[f"flux_ratio_{'plus' if side == '+' else 'minus'}"] = trend["ratio"]
    _write_output(rows, meta, args)
    return 0


def cmd_measure(args) -> int:
    sys_ = _load_system(args)
    if args.ell is None:
        raise UsageError("--ell is required for measure")
    alpha = _parse_boundary(args.alpha, sys_.m)
    beta = _parse_boundary(args.beta, sys_.m)
    interval = _parse_float_pair(args.interval, "--interval") \
        if args.interval else (-1.0, 5.0)
    eps = _parse_float_list(args.eps_schedule)
    sigma = 1 if args.ell > args.k0 else -1
    m_eval = hweyl.regular_m_evaluator(sys_, args.k0, args.ell, alpha, beta)
    sm = hweyl.spectral_measure(m_eval, interval, args.grid_n, eps,
                                sigma=sigma)
    rows = []
    for i in range(sm.n_bins):
        row = {"lambda_lo": float(sm.grid[i]), "lambda_hi": float(sm.grid[i + 1])}
        row.update(_complex_columns("Omega", sm.increments[i]))
        row["trace"] = float(np.real(np.trace(sm.increments[i])))
        rows.append(row)
    meta = {"command": "measure", "k0": args.k0, "ell": args.ell,
            "eps_schedule": args.eps_schedule,
            "converged": sm.converged, "convergence_gap": sm.convergence_gap}
    _write_output(rows, meta, args)
    return 0


DISPATCH = {
    "validate": cmd_validate,
    "eig": cmd_eig,
    "mfun": cmd_mfun,
    "disk": cmd_disk,
    "limit": cmd_limit,
    "green": cmd_green,
    "solve": cmd_solve,
    "measure": cmd_measure,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    command = args.command or args.command_opt
    if args.command and args.command_opt and args.command != args.command_opt:
        print("error: positional command and --command disagree", file=sys.stderr)
        return 1
    if command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return DISPATCH[command](args)
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
