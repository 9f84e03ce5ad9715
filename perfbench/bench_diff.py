#!/usr/bin/env python3
"""Steadiness and comparison summaries of perfbench result records.

perfbench/run.py saves one JSON record per run under
<build root>/perfbench-results/ (default .bench_build/perfbench-results/).

  # N runs of one commit: median, quartiles and spread against the bound
  python3 perfbench/bench_diff.py steadiness RECORD...

  # medians of each seed side by side
  python3 perfbench/bench_diff.py seeds RECORD...

  # a parent set against a change set
  python3 perfbench/bench_diff.py compare --parent RECORD... --change RECORD...

Spread is (Q3 - Q1) / median, with quartiles from
statistics.quantiles(values, n=4). End-to-end rows come from --trace 0
records and carry the bound BENCHMARK.json fixes; per-layer rows come from
--trace 1 records and have no bound.

compare reads the i-th parent and the i-th change record of a workload as
one pair (run them alternately, parent first on even pairs). Per end-to-end
metric and workload it reports:
  gain        the change wins >= 90% of pairs (ties count for neither) and
              its median beats the parent's by more than the parent's IQR
  REGRESSION  the change's median is worse than the parent's by more than
              the bound
  unresolved  either side's spread exceeds the bound, unless every change
              run is better than every parent run
  flat        none of the above: no worse than the bound
and lists every per-layer metric whose median moved by more than the
larger of the two sides' IQRs.
"""

import argparse
import collections
import json
import os
import statistics
import sys

SPEC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "BENCHMARK.json")


def load_spec():
    with open(SPEC) as f:
        spec = json.load(f)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layers = {m["name"]: m for m in spec["per_layer"]}
    return e2e, layers


def load_records(paths):
    records = []
    for path in paths:
        with open(path) as f:
            records.append(json.load(f))
    return records


def series(records):
    """{(kind, workload, metric): [values in file order]}."""
    out = collections.OrderedDict()
    for r in records:
        kind, metrics = ("per_layer", r["per_layer"]) if r["trace"] else (
            "end_to_end", r["end_to_end"])
        for name, m in metrics.items():
            if m["value"] is not None:
                out.setdefault((kind, r["workload"], name), []).append(m["value"])
    return out


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def steadiness(args):
    e2e, _ = load_spec()
    rows = series(load_records(args.records))
    print(f"{'workload':12} {'metric':40} {'n':>3} {'median':>12} {'Q1':>12} "
          f"{'Q3':>12} {'spread':>8} {'bound':>6}  verdict")
    for (kind, workload, name), values in rows.items():
        q1, med, q3 = quartiles(values)
        s = spread(values)
        bound = e2e[name]["bound"] if kind == "end_to_end" and name in e2e else None
        if bound is None:
            verdict, bound_text = "", "-"
        else:
            bound_text = f"{bound:.2f}"
            verdict = ("steady" if s < bound / 3 else
                       "within bound" if s <= bound else "EXCEEDS BOUND")
        print(f"{workload:12} {name:40} {len(values):3d} {med:12.6g} {q1:12.6g} "
              f"{q3:12.6g} {s:8.4f} {bound_text:>6}  {verdict}")


def seeds(args):
    records = load_records(args.records)
    by_seed = collections.defaultdict(list)
    for r in records:
        by_seed[r["seed"]].append(r)
    seed_list = sorted(by_seed)
    per_seed = {s: series(by_seed[s]) for s in seed_list}
    keys = []
    for s in seed_list:
        keys += [k for k in per_seed[s] if k not in keys]
    print(f"{'workload':12} {'metric':40} " +
          " ".join(f"{'seed ' + str(s):>14}" for s in seed_list))
    for key in keys:
        cells = []
        for s in seed_list:
            values = per_seed[s].get(key)
            cells.append(f"{statistics.median(values):14.6g}" if values
                         else f"{'-':>14}")
        print(f"{key[1]:12} {key[2]:40} " + " ".join(cells))


def better(direction, a, b):
    """1 if a is better than b, -1 if worse, 0 on a tie."""
    if a == b:
        return 0
    return 1 if (a < b) == (direction == "lower") else -1


def compare(args):
    e2e, layers = load_spec()
    parent = series(load_records(args.parent))
    change = series(load_records(args.change))
    print(f"{'workload':12} {'metric':26} {'parent':>11} {'change':>11} "
          f"{'gap':>8} {'p.IQR':>9} {'wins':>7} {'bound':>6}  verdict")
    moved = []
    for key, p in parent.items():
        kind, workload, name = key
        c = change.get(key)
        if not c:
            continue
        p_q1, p_med, p_q3 = quartiles(p)
        c_med = quartiles(c)[1]
        if kind == "per_layer":
            c_q1, _, c_q3 = quartiles(c)
            if abs(c_med - p_med) > max(p_q3 - p_q1, c_q3 - c_q1):
                moved.append((workload, name, p_med, c_med))
            continue
        spec = e2e.get(name)
        if spec is None:
            continue
        direction, bound = spec["better"], spec["bound"]
        pairs = list(zip(p, c))
        wins = sum(1 for a, b in pairs if better(direction, b, a) > 0)
        share = wins / len(pairs) if pairs else 0.0
        gap = (c_med - p_med) / p_med if p_med else 0.0
        worse_by = gap if direction == "lower" else -gap
        all_better = all(better(direction, b, a) > 0 for a in p for b in c)
        if max(spread(p), spread(c)) > bound and not all_better:
            verdict = "unresolved"
        elif worse_by > bound:
            verdict = "REGRESSION"
        elif share >= 0.9 and -worse_by * p_med > p_q3 - p_q1:
            verdict = "gain"
        else:
            verdict = "flat"
        print(f"{workload:12} {name:26} {p_med:11.5g} {c_med:11.5g} "
              f"{gap:+8.2%} {p_q3 - p_q1:9.3g} {wins:3d}/{len(pairs):<3d} "
              f"{bound:6.2f}  {verdict}")
    print()
    print("per-layer metrics that moved beyond their own spread:")
    if not moved:
        print("  (none)")
    for workload, name, p_med, c_med in moved:
        unit = layers.get(name, {}).get("unit", "")
        change_text = f"{(c_med - p_med) / p_med:+.1%}" if p_med else "new"
        print(f"  {workload:12} {name:44} {p_med:12.5g} -> {c_med:12.5g} {unit:6} "
              f"({change_text})")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("steadiness", help="spread of N runs of one commit")
    p.add_argument("records", nargs="+")
    p.set_defaults(fn=steadiness)
    p = sub.add_parser("seeds", help="per-seed medians side by side")
    p.add_argument("records", nargs="+")
    p.set_defaults(fn=seeds)
    p = sub.add_parser("compare", help="parent set against change set")
    p.add_argument("--parent", nargs="+", required=True)
    p.add_argument("--change", nargs="+", required=True)
    p.set_defaults(fn=compare)
    args = parser.parse_args()
    args.fn(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
