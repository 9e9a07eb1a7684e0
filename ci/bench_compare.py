#!/usr/bin/env python3
"""Continuous perf-regression gate over the JSON bench outputs.

Compares a current bench result against a committed baseline and fails
(exit 1) when the MEDIAN of the per-metric current/baseline ratios exceeds
1 + threshold (default 0.15). The median — not the max — is the gate: any
single metric on a busy CI box can swing far more than 15%, but half of
them moving together is a real regression, not noise.

Supported inputs (auto-detected from the JSON shape):
  - bench_identical_fraction: {"bench": "identical_fraction", "runs": [...]}
      metrics: off/on wall seconds per identical-fraction row, plus
      whole-process peak RSS ("peak_rss_bytes", also on shard_scaling)
  - bench_parallel_scaling:   {"bench": "parallel_scaling", "programs": [...]}
      metrics: wall seconds per (program, thread-count) row
  - bench_shard_scaling:      {"bench": "shard_scaling", "grid": [...]}
      metrics: wall seconds per (threads, shards) grid point (p99 latency
      is informational and not gated — a percentile on a busy box is far
      noisier than a whole-series wall clock)
  - bench_matchers_micro:     google-benchmark --benchmark_format=json
      metrics: real_time per benchmark (normalized to nanoseconds)

Usage:
  bench_compare.py BASELINE CURRENT [--threshold 0.15]
                   [--inject-slowdown FACTOR] [--update]

  --update (or env DELEX_BENCH_BASELINE_UPDATE=1) copies CURRENT over
  BASELINE and exits 0 — the escape hatch after an intentional perf change.
  --inject-slowdown multiplies every current metric by FACTOR before
  comparing; CI uses 2.0 as a self-test that the gate actually fires.

A comparison is only meaningful on the machine shape the baseline was
recorded on, so both files must carry the same host fields
(hardware_concurrency and cpu_model: the "meta" object of the
JSON-document benches, the "context" of google-benchmark output). A
field that differs, or is missing from either side, refuses the
comparison with exit 2.

Exit codes: 0 pass / baseline updated, 1 median regression, 2 usage or
parse error, or a baseline from another machine shape.
"""

import argparse
import json
import os
import shutil
import statistics
import sys


def fail_usage(message):
    print("bench_compare: %s" % message, file=sys.stderr)
    sys.exit(2)


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail_usage("cannot load %s: %s" % (path, e))


def metrics_identical_fraction(doc):
    """off/on seconds per identical-fraction row, lower is better."""
    out = {}
    for row in doc.get("runs", []):
        tag = "identfrac_%02d" % round(float(row["identical_fraction"]) * 100)
        out[tag + "_off_seconds"] = float(row["off_seconds"])
        out[tag + "_on_seconds"] = float(row["on_seconds"])
    add_peak_rss(doc, "identfrac", out)
    return out


def add_peak_rss(doc, prefix, out):
    """Whole-process peak RSS, gated like a timing metric (lower is
    better): a memory blow-up is a regression even when wall clock holds.
    Old baselines without the field just skip it (shared-metric rule)."""
    value = doc.get("peak_rss_bytes")
    if value is not None and float(value) > 0:
        out["%s_peak_rss_bytes" % prefix] = float(value)


def metrics_parallel_scaling(doc):
    """Wall seconds per (program, thread count), lower is better."""
    out = {}
    for program in doc.get("programs", []):
        for row in program.get("runs", []):
            name = "scaling_%s_t%d_seconds" % (program["program"],
                                               int(row["threads"]))
            out[name] = float(row["seconds"])
    return out


def metrics_shard_scaling(doc):
    """Wall seconds per (threads, shards) grid point, lower is better.
    A grid point whose merged output diverged from the unsharded run is a
    correctness failure, not a perf number — refuse to compare it."""
    out = {}
    for row in doc.get("grid", []):
        if not row.get("results_match", False):
            fail_usage("shard_scaling grid point t%d/s%d has "
                       "results_match=false" % (int(row["threads"]),
                                                int(row["shards"])))
        name = "shardscale_t%d_s%d_seconds" % (int(row["threads"]),
                                               int(row["shards"]))
        out[name] = float(row["seconds"])
    add_peak_rss(doc, "shardscale", out)
    return out


_TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def metrics_google_benchmark(doc):
    """real_time per benchmark, normalized to ns, lower is better."""
    out = {}
    for row in doc.get("benchmarks", []):
        if row.get("run_type") == "aggregate":
            continue  # keep raw runs only; repetitions are rare here anyway
        scale = _TIME_UNIT_NS.get(row.get("time_unit", "ns"), 1.0)
        name = row["name"].replace("/", "_").replace("<", "_").replace(">", "_")
        out["micro_%s_real_ns" % name] = float(row["real_time"]) * scale
    return out


HOST_FIELDS = ("hardware_concurrency", "cpu_model")


def host_fields(doc):
    """The machine shape a result was recorded on, field -> string (None
    when absent). google-benchmark's context holds strings only, so both
    sides compare as strings."""
    if not isinstance(doc, dict):
        return {field: None for field in HOST_FIELDS}
    section = doc.get("context" if "benchmarks" in doc else "meta")
    if not isinstance(section, dict):
        section = {}
    return {field: None if section.get(field) is None else str(section[field])
            for field in HOST_FIELDS}


def check_same_host(baseline_doc, baseline_path, current_doc, current_path):
    base_host = host_fields(baseline_doc)
    cur_host = host_fields(current_doc)
    for field in HOST_FIELDS:
        if base_host[field] is None or base_host[field] != cur_host[field]:
            fail_usage("refusing to compare: %s is %s in baseline %s but %s "
                       "in current %s (re-record the baseline on this "
                       "machine)" %
                       (field, "missing" if base_host[field] is None
                        else repr(base_host[field]), baseline_path,
                        "missing" if cur_host[field] is None
                        else repr(cur_host[field]), current_path))


def extract_metrics(doc, path):
    if isinstance(doc, dict) and "benchmarks" in doc:
        return metrics_google_benchmark(doc)
    kind = doc.get("bench") if isinstance(doc, dict) else None
    if kind == "identical_fraction":
        return metrics_identical_fraction(doc)
    if kind == "parallel_scaling":
        return metrics_parallel_scaling(doc)
    if kind == "shard_scaling":
        return metrics_shard_scaling(doc)
    fail_usage("unrecognized bench JSON shape in %s" % path)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument("current", help="freshly produced bench JSON")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="allowed median slowdown (default 0.15 = 15%%)")
    parser.add_argument("--inject-slowdown", type=float, default=1.0,
                        metavar="FACTOR",
                        help="multiply current metrics by FACTOR (gate "
                             "self-test; CI uses 2.0)")
    parser.add_argument("--update", action="store_true",
                        help="copy CURRENT over BASELINE and exit 0")
    args = parser.parse_args()

    update = args.update or os.environ.get(
        "DELEX_BENCH_BASELINE_UPDATE", "0") not in ("", "0")
    if update:
        if not os.path.exists(args.current):
            fail_usage("cannot update from missing file %s" % args.current)
        shutil.copyfile(args.current, args.baseline)
        print("bench_compare: baseline %s updated from %s" %
              (args.baseline, args.current))
        return 0

    baseline_doc = load_json(args.baseline)
    current_doc = load_json(args.current)
    check_same_host(baseline_doc, args.baseline, current_doc, args.current)
    baseline = extract_metrics(baseline_doc, args.baseline)
    current = extract_metrics(current_doc, args.current)

    shared = sorted(set(baseline) & set(current))
    if not shared:
        fail_usage("no shared metrics between %s and %s" %
                   (args.baseline, args.current))
    only_base = sorted(set(baseline) - set(current))
    only_cur = sorted(set(current) - set(baseline))
    for name in only_base:
        print("  note: metric %s only in baseline (skipped)" % name)
    for name in only_cur:
        print("  note: metric %s only in current (skipped)" % name)

    rows = []
    print("%-42s %12s %12s %8s" % ("metric", "baseline", "current", "ratio"))
    for name in shared:
        base_value = baseline[name]
        cur_value = current[name] * args.inject_slowdown
        if base_value <= 0:
            print("  note: metric %s has non-positive baseline (skipped)" %
                  name)
            continue
        ratio = cur_value / base_value
        rows.append((name, base_value, cur_value, ratio))
        marker = "  <-- slow" if ratio > 1.0 + args.threshold else ""
        print("%-42s %12.4g %12.4g %7.3fx%s" %
              (name, base_value, cur_value, ratio, marker))
    if not rows:
        fail_usage("no comparable metrics (all baselines non-positive)")

    median = statistics.median(ratio for _, _, _, ratio in rows)
    limit = 1.0 + args.threshold
    verdict = "PASS" if median <= limit else "FAIL"
    print("median ratio over %d metrics: %.3fx (limit %.3fx) -> %s" %
          (len(rows), median, limit, verdict))
    if verdict == "FAIL":
        # The table above goes to stdout, which CI may swallow — repeat
        # every over-limit metric with its baseline-vs-measured values on
        # stderr, worst first, so the failure log alone tells the story.
        print("bench_compare: median regression exceeds %d%% "
              "(median %.3fx over %d metrics, limit %.3fx)" %
              (round(args.threshold * 100), median, len(rows), limit),
              file=sys.stderr)
        regressed = sorted((r for r in rows if r[3] > limit),
                           key=lambda r: r[3], reverse=True)
        for name, base_value, cur_value, ratio in regressed:
            print("bench_compare:   %s: baseline %.4g -> measured %.4g "
                  "(%.3fx)" % (name, base_value, cur_value, ratio),
                  file=sys.stderr)
        print("bench_compare: if this slowdown is intentional, re-baseline "
              "with DELEX_BENCH_BASELINE_UPDATE=1", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
