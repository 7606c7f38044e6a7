#!/usr/bin/env python3
"""Compare two sets of benchmark records metric by metric.

    python3 e2ebench/bench_diff.py BASE NEW [--spec BENCHMARK.json]

BASE and NEW are directories (searched recursively) or single files of the
JSON records e2ebench/run.py stores under .bench_results/. For each
workload the script prints the end-to-end verdicts against the bounds in
BENCHMARK.json, from the untraced runs, then the per-layer medians and
their change, from the traced runs. Medians are taken across launches;
each record is one launch. Exits 1 when an end-to-end metric regressed.

Verdicts, with `change` the relative move of the median in the metric's
bad direction and `spread` the interquartile range of BASE as a share of
its median:
  REGRESSION  change > bound and spread <= bound
  unresolved  spread > bound, unless every NEW run beats every BASE run
  better      change < -spread (the medians moved further than BASE's noise)
  same        otherwise
"""
import argparse
import json
import os
import statistics
import sys


def load_records(path):
    files = []
    if os.path.isdir(path):
        for root, _, names in os.walk(path):
            files += [os.path.join(root, n) for n in sorted(names) if n.endswith(".json")]
    else:
        files = [path]
    records = []
    for f in files:
        with open(f) as fh:
            rec = json.load(fh)
        if "metrics" in rec and "meta" in rec:
            records.append(rec)
    return records


def group(records):
    """{(workload, trace): {metric: [values...]}}"""
    out = {}
    for rec in records:
        key = (rec["meta"]["workload"], int(rec["meta"]["trace"]))
        bucket = out.setdefault(key, {})
        for name, m in rec["metrics"].items():
            if m["value"] is not None:
                bucket.setdefault(name, []).append(float(m["value"]))
    return out


def spread(values):
    """Interquartile range as a share of the median (0 for fewer than 2)."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / abs(med)


def verdict(base, new, better, bound):
    """Returns (verdict, change) for one end-to-end metric."""
    b, n = statistics.median(base), statistics.median(new)
    sign = 1 if better == "lower" else -1
    change = sign * (n - b) / abs(b) if b else 0.0
    s = spread(base)
    if better == "lower":
        dominates = max(new) < min(base)
    else:
        dominates = min(new) > max(base)
    if s > bound:
        return ("better" if dominates else "unresolved"), change
    if change > bound:
        return "REGRESSION", change
    if change < -s:
        return "better", change
    return "same", change


def fmt(v):
    return "%.4g" % v


def launches(metrics):
    return max((len(v) for v in metrics.values()), default=0)


def main(argv=None):
    parser = argparse.ArgumentParser(description="Compare two sets of e2ebench records.")
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--spec", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json"))
    args = parser.parse_args(argv)
    with open(args.spec) as f:
        spec = json.load(f)
    base, new = group(load_records(args.base)), group(load_records(args.new))
    regressions = 0
    for w in [w["name"] for w in spec["workloads"]]:
        b0, n0 = base.get((w, 0), {}), new.get((w, 0), {})
        print("== %s: end to end (%d base / %d new launches)" % (w, launches(b0), launches(n0)))
        for m in spec["end_to_end"]:
            name = m["name"]
            if name not in b0 or name not in n0:
                print("  %-20s missing" % name)
                continue
            v, change = verdict(b0[name], n0[name], m["better"], m["bound"])
            regressions += v == "REGRESSION"
            print("  %-20s %-10s base %s  new %s %s  worse by %+.1f%% (bound %.0f%%, "
                  "base spread %.1f%%)" % (
                      name, v, fmt(statistics.median(b0[name])),
                      fmt(statistics.median(n0[name])), m["unit"], 100 * change,
                      100 * m["bound"], 100 * spread(b0[name])))
        b1, n1 = base.get((w, 1), {}), new.get((w, 1), {})
        print("-- %s: per layer (median [min..max] across launches)" % w)
        for m in spec["per_layer"]:
            name = m["name"]
            if name not in b1 or name not in n1:
                continue
            bm, nm = statistics.median(b1[name]), statistics.median(n1[name])
            if bm == 0 and nm == 0:
                continue
            delta = "%+.1f%%" % (100 * (nm - bm) / abs(bm)) if bm else "new"
            print("  %-28s base %s [%s..%s]  new %s [%s..%s] %s  %s" % (
                name, fmt(bm), fmt(min(b1[name])), fmt(max(b1[name])), fmt(nm),
                fmt(min(n1[name])), fmt(max(n1[name])), m["unit"], delta))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
