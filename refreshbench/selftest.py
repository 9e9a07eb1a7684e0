#!/usr/bin/env python3
"""Self-tests for the refresh benchmark, at tiny scale. From the checkout root:

  python3 refreshbench/selftest.py

1. A result row altered before the comparison counts as a failed generation,
   and every metric is still printed.
2. A tiny run of each workload prints every metric BENCHMARK.json names,
   with its unit, untraced (end_to_end) and traced (per_layer).
3. The traced and untraced passes of one seed give identical result digests
   and identical delex.identical_frac and storage.reuse_write_mb, and
   identical copied/extracted tuple counts on every refresh where both
   passes ran the same plan (the optimizer times samples, so its plan
   choice may differ between passes; extract.copied_frac follows the plan).
   With a pinned plan (syn_bulk) extract.copied_frac must be identical.

Exits 0 when every check passes.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
failures = []


def expect(cond, message):
    print(("ok   " if cond else "FAIL ") + message, flush=True)
    if not cond:
        failures.append(message)


def bench(workload, trace, *extra):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "5", "--trace", str(trace), "--tiny",
           *extra]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_metrics(result, kind, label):
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(got == want, f"{label}: prints every {kind} metric with its unit")
    expect(all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values()),
           f"{label}: every value is a number")


def test_tamper():
    result = bench("dblife_daily", 0, "--tamper", "2")
    expect(not result["correct"] and result["failed"] == 1 and
           result["attempted"] == 5,
           "altered row in generation 2 counts as one failed generation "
           f"(got {result['failed']}/{result['attempted']})")
    expect(result["metrics"]["refresh_ok_frac"]["value"] == 0.8,
           "refresh_ok_frac counts the failed generation")
    check_metrics(result, "end_to_end", "tampered run")


def test_workload(workload, scratch):
    result = bench(workload, 0)
    expect(result["correct"] and result["failed"] == 0,
           f"{workload}: untraced generations match from-scratch execution")
    check_metrics(result, "end_to_end", f"{workload} untraced")

    dump = scratch / f"{workload}.json"
    result = bench(workload, 1, "--dump", str(dump))
    expect(result["correct"] and result["failed"] == 0,
           f"{workload}: traced generations match from-scratch execution")
    check_metrics(result, "per_layer", f"{workload} traced")

    passes = json.loads(dump.read_text())["passes"]
    untraced, traced = passes["untraced"], passes["traced"]
    digests = [[g.get("digest") for g in p["setups"] + p["refreshes"]]
               for p in (untraced, traced)]
    expect(digests[0] == digests[1],
           f"{workload}: traced and untraced result digests are identical")
    layers = [run.per_layer(p, p) for p in (untraced, traced)]
    for name in ("delex.identical_frac", "storage.reuse_write_mb"):
        expect(layers[0][name] == layers[1][name],
               f"{workload}: {name} identical ({layers[0][name][0]} vs "
               f"{layers[1][name][0]})")
    same_plan = [(a, b) for a, b in zip(untraced["refreshes"],
                                        traced["refreshes"])
                 if a["describe"]["assignment"] == b["describe"]["assignment"]]
    expect(all((a["stats"]["copied_tuples"], a["stats"]["extracted_tuples"]) ==
               (b["stats"]["copied_tuples"], b["stats"]["extracted_tuples"])
               for a, b in same_plan),
           f"{workload}: copied/extracted tuples identical on the "
           f"{len(same_plan)} refreshes that ran the same plan")
    if run.WORKLOADS[workload]["plan"] != "optimizer":
        expect(layers[0]["extract.copied_frac"] ==
               layers[1]["extract.copied_frac"],
               f"{workload}: extract.copied_frac identical (pinned plan)")


def main():
    test_tamper()
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as scratch:
        for workload in run.WORKLOADS:
            test_workload(workload, Path(scratch))
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
