#!/usr/bin/env python3
"""Combine run records of the hamweyl benchmark into one results record.

    python3 perfbench/summarize.py [--results DIR] [--out FILE]

Reads every ``<workload>-seed<n>-trace<t>.json`` written by ``run.py`` and
reports, per workload and metric, the median, quartiles and sample count
over the runs (each run contributes the value it printed), the spread
(quartile distance over median), attempted and failed operations with the
failures of each known fault, machine information and the git SHA.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def quartiles(values):
    vals = sorted(values)
    if len(vals) < 2:
        v = vals[0] if vals else None
        return {"median": v, "q1": v, "q3": v, "n": len(vals), "spread": 0.0}
    q1, _, q3 = statistics.quantiles(vals, n=4)
    med = statistics.median(vals)
    return {"median": med, "q1": q1, "q3": q3, "n": len(vals),
            "spread": (q3 - q1) / abs(med) if med else None}


def reported(metric):
    """The value a run printed: ``value`` where the record has one (the
    end-to-end metrics), else the median over the run's rounds."""
    return metric.get("value", metric["median"])


def summarize(paths):
    groups = {}
    for path in paths:
        with open(path) as fh:
            rec = json.load(fh)
        groups.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    out = {"workloads": {}, "machine": None, "git_sha": None}
    for (workload, trace), recs in sorted(groups.items()):
        out["machine"] = recs[-1]["machine"]
        out["git_sha"] = recs[-1]["git_sha"]
        names = recs[0]["metrics"].keys()
        faults = {}
        for r in recs:
            for k, v in r["failed_by_fault"].items():
                faults[k] = faults.get(k, 0) + v
        entry = out["workloads"].setdefault(workload, {})
        entry["traced" if trace else "untraced"] = {
            "runs": len(recs),
            "seeds": sorted(r["seed"] for r in recs),
            "correct": all(r["correct"] for r in recs),
            "attempted": sum(r["attempted"] for r in recs),
            "failed": sum(r["failed"] for r in recs),
            "failed_share": sorted({r["failed"] / r["attempted"] for r in recs}),
            "failed_by_fault": faults,
            "unexpected_failures": [u for r in recs for u in r["unexpected_failures"]],
            "metrics": {n: {"unit": recs[0]["metrics"][n]["unit"],
                            **quartiles([reported(r["metrics"][n]) for r in recs
                                         if reported(r["metrics"][n]) is not None])}
                        for n in names},
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--results", default=os.path.join(HERE, "results"))
    ap.add_argument("--out", default=None, help="write the record here as JSON")
    args = ap.parse_args(argv)
    paths = sorted(p for p in glob.glob(os.path.join(args.results, "*-trace[01].json")))
    if not paths:
        print(f"no run records in {args.results}", file=sys.stderr)
        return 1
    summary = summarize(paths)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
    for workload, modes in summary["workloads"].items():
        for mode, s in modes.items():
            print(f"{workload} ({mode}, {s['runs']} runs): attempted {s['attempted']}, "
                  f"failed {s['failed']} {s['failed_by_fault']}, correct {s['correct']}")
            for name, q in s["metrics"].items():
                spread = "" if q["spread"] is None else f"  spread {q['spread']:.3f}"
                print(f"  {name:34s} {q['median']!s:>24} {q['unit']:9s} n={q['n']}{spread}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
