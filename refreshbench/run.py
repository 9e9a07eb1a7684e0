#!/usr/bin/env python3
"""End-to-end snapshot-refresh benchmark for Delex.

A closed-loop "daily recrawl" client: one caller, no think time. For one
workload and seed it

  1. builds refresh_bench (Release) from the checkout's own sources,
  2. generates a seeded series of snapshot files (untimed),
  3. sets the system up several times on snapshot 0 (setup_s is the median),
  4. refreshes snapshots 1, 2, ... for --seconds seconds, timing
     ReadSnapshot + Solution::RunSnapshot per refresh,
  5. checks every generation's rows against from-scratch execution,

and prints, as the last line of stdout, one JSON object with the metrics
BENCHMARK.json names. From the checkout root:

  python3 refreshbench/run.py --workload dblife_daily --seed 1 --seconds 10 --trace 0

--trace 1 runs the same seed twice, untraced then traced, and prints the
per-layer metrics of the traced pass; its spans are written to
.bench_build/refreshbench/traces/. README.md in this directory records the
workloads, the metrics and the layer -> end-to-end map.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "refreshbench"
EXE = BUILD_DIR / "refresh_bench"
TRACE_DIR = BUILD_DIR / "traces"

# How each workload drives the system. `snapshots` is the length of the
# generated series: the refresh loop ends after --seconds or at the end of
# the series, whichever comes first. The cap bounds the generator's and the
# reference check's share of a run.
WORKLOADS = {
    # DBLife profile, ~97 % identical pages: fast path, raw reuse-file
    # relocation, ingest and the optimizer carry the time.
    "dblife_daily": dict(program="chair", profile="dblife", pages=1000,
                         threads=4, shards=1, plan="optimizer", snapshots=90),
    # Wikipedia profile, ~14 % identical pages: region matching and
    # re-extraction dominate; one thread is the serial path.
    "wiki_churn": dict(program="play", profile="wikipedia", pages=400,
                       threads=1, shards=1, plan="optimizer", snapshots=24),
    # Synthetic1M profile (1-3 paragraph pages): page count is the
    # stressor; pinned ST plan, so the optimizer is bypassed.
    "syn_bulk": dict(program="chair", profile="synthetic", pages=10000,
                     threads=4, shards=4, plan="ST", snapshots=90),
}
SETUPS = 3            # cold first crawls per run; setup_s is their median
TINY_PAGES = {"dblife_daily": 40, "wiki_churn": 12, "syn_bulk": 400}
RUN_DEADLINE_S = 170  # whole run, excluding the first build
MB = 1e6


class BenchError(Exception):
    pass


def log(message):
    print(f"refreshbench: {message}", file=sys.stderr, flush=True)


def clean_env():
    """The caller's DELEX_* knobs never reach the system: each workload pins
    threads, shards and plan itself, and every other knob keeps its
    default."""
    return {k: v for k, v in os.environ.items() if not k.startswith("DELEX_")}


def run_cmd(cmd, deadline, **kwargs):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"out of time before {cmd[1]}")
    try:
        return subprocess.run(cmd, env=clean_env(), timeout=remaining,
                              check=True, **kwargs)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{cmd[1]} timed out") from e
    except subprocess.CalledProcessError as e:
        raise BenchError(f"{cmd[1]} exited with {e.returncode}") from e


def build():
    """Configures once, then lets the build tool decide what is stale."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    build_log = BUILD_DIR / "build.log"
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "refresh_bench", "-j", jobs])
    with open(build_log, "w") as out:
        for step in steps:
            try:
                done = subprocess.run(step, env=clean_env(), stdout=out,
                                      stderr=subprocess.STDOUT, timeout=880)
            except subprocess.TimeoutExpired as e:
                raise BenchError("build timed out") from e
            if done.returncode != 0:
                tail = build_log.read_text(errors="replace").splitlines()[-15:]
                raise BenchError("build failed:\n" + "\n".join(tail))
    if not EXE.exists():
        raise BenchError("build produced no refresh_bench")


class Spans:
    """Spans recorded by this script (generate, measure passes, check);
    refresh_bench records setup and the per-refresh spans."""

    def __init__(self):
        self.rows = []

    def run(self, name, fn):
        start = time.monotonic_ns()
        try:
            return fn()
        finally:
            self.rows.append({"name": name, "parent": "", "refresh": -1,
                              "start_ns": start, "end_ns": time.monotonic_ns()})


def generate(wl, seed, snap_dir, deadline):
    run_cmd([str(EXE), "gen", "--profile", wl["profile"],
             "--pages", str(wl["pages"]), "--seed", str(seed),
             "--count", str(wl["snapshots"]), "--out", str(snap_dir)],
            deadline)


def measure(wl, snap_dir, work_dir, out_file, seconds, trace, setups,
            deadline, tamper=None):
    cmd = [str(EXE), "run", "--program", wl["program"],
           "--snapshots", str(snap_dir), "--count", str(wl["snapshots"]),
           "--work", str(work_dir), "--threads", str(wl["threads"]),
           "--shards", str(wl["shards"]), "--plan", wl["plan"],
           "--setups", str(setups), "--seconds", str(seconds),
           "--trace", str(trace), "--out", str(out_file)]
    if tamper is not None:
        cmd += ["--tamper", str(tamper)]
    run_cmd(cmd, deadline, stdout=subprocess.DEVNULL)
    shutil.rmtree(work_dir, ignore_errors=True)
    return json.loads(Path(out_file).read_text())


def reference(wl, snap_dir, count, out_file, deadline):
    threads = min(4, len(os.sched_getaffinity(0)))
    run_cmd([str(EXE), "ref", "--program", wl["program"],
             "--snapshots", str(snap_dir), "--count", str(count),
             "--threads", str(threads), "--out", str(out_file)], deadline)
    return json.loads(Path(out_file).read_text())["digests"]


def check(run, digests):
    """Marks each generation ok or failed against the reference digests;
    returns (attempted, failed). Setup generations compare with snapshot 0."""
    generations = [(0, s) for s in run["setups"]]
    generations += [(r["index"], r) for r in run["refreshes"]]
    failed = 0
    for index, gen in generations:
        want = digests[index] if index < len(digests) else None
        gen["ok"] = "error" not in gen and want is not None and \
            gen.get("digest") == want
        failed += not gen["ok"]
    return len(generations), failed


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end(run, attempted, failed):
    ok = [r for r in run["refreshes"] if r["ok"]]
    wall = sum(r["refresh_s"] for r in ok)
    return {
        "refresh_s": (statistics.median([r["refresh_s"] for r in ok])
                      if ok else 0.0, "s"),
        "refresh_pages_per_s": (ratio(sum(r["stats"]["pages"] for r in ok),
                                      wall), "pages/s"),
        "refresh_cpu_s": (statistics.median([r["cpu_s"] for r in ok])
                          if ok else 0.0, "s"),
        "setup_s": (statistics.median([s["setup_s"] for s in run["setups"]]),
                    "s"),
        "peak_rss_mb": (run["resources"]["peak_rss_bytes"] / MB, "MB"),
        "store_bytes_per_input_byte": (ratio(run["store_bytes"],
                                             run["last_snapshot_bytes"]),
                                       "B/B"),
        "refresh_ok_frac": (1.0 - ratio(failed, attempted), "frac"),
    }


def per_layer(traced, untraced):
    ok = [r for r in traced["refreshes"] if r["ok"]]
    n = len(ok)

    def total(key):
        return sum(r["stats"][key] for r in ok)

    def per(value):  # per-refresh mean
        return ratio(value, n)

    refresh = sum(r["refresh_s"] for r in ok)
    ingest = sum(r["ingest_s"] for r in ok)
    opt = total("opt_us") / 1e6
    # The engine's own wall clock, not RunSnapshot wall - opt: what the
    # harness does inside RunSnapshot besides optimizing and running the
    # engine is left to trace.unaccounted_frac.
    engine = (total("total_us") - total("opt_us")) / 1e6
    hist = traced["histograms"]

    switches = sum(1 for a, b in zip(ok, ok[1:])
                   if a["describe"]["assignment"] != b["describe"]["assignment"])
    predicted = [r for r in ok if r["describe"]["predicted_us"] >= 0]
    pred_ratio = ratio(sum(r["describe"]["predicted_us"] for r in predicted),
                       sum(r["stats"]["total_us"] - r["stats"]["opt_us"]
                           for r in predicted))

    skews, shard_overheads = [], []
    for r in ok:
        shard_us = r["describe"]["shard_us"]
        if shard_us:
            skews.append(ratio(max(shard_us), statistics.fmean(shard_us)))
            shard_overheads.append((r["stats"]["total_us"] -
                                    r["stats"]["opt_us"] - max(shard_us)) / 1e6)
        else:
            skews.append(1.0)
            shard_overheads.append(0.0)

    copied, extracted = total("copied_tuples"), total("extracted_tuples")
    hits, calls = total("exact_region_hits"), total("matcher_calls")
    res = traced["resources"]
    tag_peaks = res["tag_peak_bytes"]
    untraced_ok = [r["refresh_s"] for r in untraced["refreshes"] if r["ok"]]

    m = {
        "refresh.samples": (n, "count"),
        "refresh.mean_s": (per(refresh), "s"),
        "storage.ingest_s": (per(ingest), "s"),
        "storage.ingest_mb_per_s": (ratio(sum(r["ingest_bytes"] for r in ok)
                                          / MB, ingest), "MB/s"),
        "storage.reuse_read_mb": (per(total("reuse_read_bytes") / MB), "MB"),
        "storage.raw_copied_mb": (per(total("raw_bytes_copied") / MB), "MB"),
        "storage.reuse_write_mb": (per(total("reuse_write_bytes") / MB), "MB"),
        "storage.corrupt_drops": (total("corrupt_drops"), "count"),
        "optimizer.opt_s": (per(opt), "s"),
        "optimizer.opt_share": (ratio(opt, refresh), "frac"),
        "optimizer.plan_switches": (switches, "count"),
        "optimizer.predicted_over_measured": (pred_ratio, "ratio"),
        "delex.engine_s": (per(engine), "s"),
        "delex.identical_frac": (ratio(total("pages_identical"),
                                       total("pages")), "frac"),
        "delex.fast_path_demotions": (total("fast_path_demotions"), "count"),
        "delex.page_evals": (hist["page_eval"]["count"], "count"),
        "delex.page_eval_us_p50": (hist["page_eval"]["p50_us"], "us"),
        "delex.page_eval_us_p90": (hist["page_eval"]["p90_us"], "us"),
        "delex.worker_util": (ratio(total("page_eval_sum_us") / 1e6,
                                    traced["threads"] * engine), "frac"),
        "delex.copy_cpu_s": (per(total("copy_us") / 1e6), "s"),
        "delex.capture_cpu_s": (per(total("capture_us") / 1e6), "s"),
        "matcher.match_cpu_s": (per(total("match_us") / 1e6), "s"),
        "matcher.calls": (per(calls), "count"),
        "matcher.match_us_p90": (hist["match"]["p90_us"], "us"),
        "matcher.exact_hit_frac": (ratio(hits, hits + calls), "frac"),
        "extract.extract_cpu_s": (per(total("extract_us") / 1e6), "s"),
        "extract.chars": (per(total("chars_extracted")), "count"),
        "extract.extract_us_p90": (hist["extract"]["p90_us"], "us"),
        "extract.copied_frac": (ratio(copied, copied + extracted), "frac"),
        "shard.skew": (statistics.fmean(skews) if skews else 1.0, "ratio"),
        "shard.overhead_s": (statistics.fmean(shard_overheads)
                             if shard_overheads else 0.0, "s"),
    }
    for tag in ("snapshot", "reuse_reader", "result_cache", "matcher",
                "shard", "thread_pool"):
        m[f"mem.{tag}_peak_mb"] = (tag_peaks.get(tag, 0) / MB, "MB")
    m["mem.untracked_peak_mb"] = ((res["peak_rss_bytes"] -
                                   res["tracked_peak_bytes"]) / MB, "MB")
    m["trace.overhead_s"] = (
        (statistics.median([r["refresh_s"] for r in ok]) -
         statistics.median(untraced_ok)) if ok and untraced_ok else 0.0, "s")
    m["trace.unaccounted_frac"] = (
        ratio(abs(refresh - (ingest + opt + engine)), refresh), "frac")
    return m


def provenance(snap_dir):
    info = json.loads(subprocess.run([str(EXE), "info"], env=clean_env(),
                                     capture_output=True, text=True,
                                     check=True, timeout=30).stdout)
    sha = "unknown"
    if (ROOT / ".git").exists():  # a bare checkout must not report a parent's
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10,
                                 check=True).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            key, _, value = line.partition(":")
            if key.strip() == "model name":
                cpu_model = value.strip()
                break
    except OSError:
        pass
    fs_type, best = "unknown", ""
    try:
        target = str(Path(snap_dir).resolve())
        for line in Path("/proc/mounts").read_text().splitlines():
            parts = line.split()
            if len(parts) > 2 and (target == parts[1] or target.startswith(
                    parts[1].rstrip("/") + "/")) and len(parts[1]) > len(best):
                best, fs_type = parts[1], parts[2]
    except OSError:
        pass
    return {
        "git_sha": sha,
        "build_type": info["build_type"],
        "release_build": info["build_type"] == "Release",
        "simd_tier": info["simd_tier"],
        "nproc": len(os.sched_getaffinity(0)),
        "hardware_concurrency": info["hardware_concurrency"],
        "cpu_model": cpu_model,
        "work_dir_fs": fs_type,
        "cleared_env": sorted(k for k in os.environ if k.startswith("DELEX_")),
    }


def write_trace(path, spans, passes, prov):
    events = []
    for pid, (label, rows) in enumerate([("bench", spans)] + passes, start=1):
        for s in rows:
            events.append({"name": s["name"], "ph": "X", "pid": pid, "tid": 1,
                           "ts": s["start_ns"] / 1000,
                           "dur": (s["end_ns"] - s["start_ns"]) / 1000,
                           "args": {"refresh": s["refresh"],
                                    "parent": s["parent"], "pass": label}})
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events,
                                "otherData": prov}) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test knobs (selftest.py); the benchmark proper never sets them.
    parser.add_argument("--tiny", action="store_true",
                        help="few pages and snapshots, one setup")
    parser.add_argument("--tamper", type=int,
                        help="alter one result row of this generation")
    parser.add_argument("--dump", help="write the raw passes here as JSON")
    args = parser.parse_args()

    wl = dict(WORKLOADS[args.workload])
    setups = SETUPS
    if args.tiny:
        wl.update(pages=TINY_PAGES[args.workload], snapshots=5)
        setups = 1

    build()
    deadline = time.monotonic() + RUN_DEADLINE_S
    run_dir = BUILD_DIR / "runs" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    snap_dir = run_dir / "snapshots"
    try:
        prov = provenance(run_dir.parent)
        spans = Spans()
        spans.run("generate", lambda: generate(wl, args.seed, snap_dir,
                                               deadline))

        def one_pass(name, trace, n_setups):
            return spans.run(name, lambda: measure(
                wl, snap_dir, run_dir / "work", run_dir / f"{name}.json",
                args.seconds, trace, n_setups, deadline, tamper=args.tamper))

        passes = []
        if args.trace:
            # Same seed, same snapshots: the difference between the two
            # passes' refresh_s is the tracing overhead.
            passes.append(("untraced", one_pass("untraced", 0, 1)))
            passes.append(("traced", one_pass("traced", 1, 1)))
        else:
            passes.append(("untraced", one_pass("untraced", 0, setups)))

        consumed = 1 + max(len(p["refreshes"]) for _, p in passes)
        digests = spans.run("check", lambda: reference(
            wl, snap_dir, consumed, run_dir / "reference.json", deadline))
        attempted = failed = 0
        for _, p in passes:
            a, f = check(p, digests)
            attempted += a
            failed += f

        if args.trace:
            metrics = per_layer(passes[1][1], passes[0][1])
            trace_file = TRACE_DIR / f"{args.workload}-seed{args.seed}.json"
            write_trace(trace_file, spans.rows,
                        [(label, p["spans"]) for label, p in passes], prov)
            log(f"spans written to {trace_file}")
        else:
            metrics = end_to_end(passes[0][1], attempted, failed)
        if args.dump:
            Path(args.dump).write_text(json.dumps(
                {"passes": dict(passes), "digests": digests,
                 "metrics": metrics}) + "\n")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if not prov["release_build"]:
        log(f"WARNING: {prov['build_type']} build, not Release; non-Release "
            "builds compile in the lock-order detector")
    main_pass = passes[-1][1]
    samples = sum(1 for r in main_pass["refreshes"] if r["ok"])
    log(f"{args.workload} seed {args.seed}: {samples} refreshes timed, "
        f"{len(main_pass['setups'])} setups, {failed}/{attempted} "
        "generations failed")
    print("provenance: " + json.dumps(prov, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def _terminate(signum, _frame):
    # Unwinds through subprocess.run, which kills and reaps its child.
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    try:
        sys.exit(main())
    except BenchError as e:
        log(f"error: {e}")
        sys.exit(2)
