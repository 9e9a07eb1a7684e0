#!/usr/bin/env bash
# CI gate. Legs, in order:
#
#   lint      ci/lint.py self-test + repo lint (always on; seconds).
#   clang     opportunistic, whenever the binaries exist: clang-format,
#             clang-tidy at zero warnings (--warnings-as-errors='*'),
#             and a clang++ build with -Werror=thread-safety checking
#             the DELEX_GUARDED_BY/DELEX_REQUIRES annotations.
#   Release   build + full ctest + the refreshbench self-test +
#             pipeline-memory/bench/obs smokes + the perf-regression
#             gate over bench/baselines/.
#   fuzz      extended deterministic mutation budget for every fuzz
#             harness against the committed corpora (the per-harness
#             512-run replay already runs inside every ctest leg).
#   LockOrder RelWithDebInfo build + full ctest with DELEX_DEADLOCK=fatal:
#             any runtime lock-order inversion aborts the offending test.
#   UBSan     -fsanitize=undefined build + full ctest: the UB gate for
#             the decoder/arithmetic paths (no-recover: any UB aborts).
#   A+UBSan   -fsanitize=address,undefined build + full ctest: the
#             memory gate for the raw byte-passthrough in the reuse
#             files, with UB checking riding along.
#   TSan      -fsanitize=thread build + full ctest: the race gate for
#             the parallel page pipeline — a clean parallel_engine_test
#             under TSan is a hard requirement for any change to
#             src/delex or src/common/thread_pool.h.
#
# Usage: ci/check.sh [jobs]              (default: nproc)
#   DELEX_CI_FAST=1 ci/check.sh          # lint + Release build/ctest +
#                                        # refreshbench self-test only
#   DELEX_CI_TSAN_ONLY=1 ci/check.sh     # skip everything but lint + TSan
#   DELEX_CI_CLANG=1 ci/check.sh         # force the clang legs even under
#                                        # DELEX_CI_FAST (skipped per-tool
#                                        # when a binary is missing)
#   DELEX_BENCH_BASELINE_UPDATE=1 ci/check.sh   # re-baseline the benches
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

# Every mktemp -d is registered here and removed on ANY exit, success or
# failure — a failing smoke must not leave /tmp litter behind.
CLEANUP_DIRS=()
cleanup() {
  if ((${#CLEANUP_DIRS[@]})); then
    rm -rf "${CLEANUP_DIRS[@]}"
  fi
}
trap cleanup EXIT
scratch_dir() {
  local dir
  dir="$(mktemp -d)"
  CLEANUP_DIRS+=("${dir}")
  echo "${dir}"
}

run_leg() {
  local name="$1" build_dir="$2"; shift 2
  echo "=== ${name}: configure ==="
  cmake -B "${build_dir}" -S . "$@"
  echo "=== ${name}: build ==="
  cmake --build "${build_dir}" -j "${JOBS}"
  echo "=== ${name}: ctest ==="
  ctest --test-dir "${build_dir}" --output-on-failure -j "${JOBS}"
}

# --- lint: always on, fires before any compile ---------------------------
echo "=== lint: self-test ==="
python3 ci/lint.py --self-test
echo "=== lint: repo ==="
python3 ci/lint.py
# clang-based legs run whenever the binaries exist (the default CI image
# is gcc-only, so they are opportunistic). DELEX_CI_CLANG=1 forces them on
# even under DELEX_CI_FAST.
if [[ "${DELEX_CI_FAST:-0}" != "1" || "${DELEX_CI_CLANG:-0}" == "1" ]]; then
  if command -v clang-format >/dev/null; then
    echo "=== lint: clang-format ==="
    git ls-files 'src/*' 'tests/*' 'bench/*' 'fuzz/*' 'examples/*' \
      | grep -E '\.(cc|h|cpp|hpp)$' \
      | xargs clang-format --dry-run -Werror
  fi
  if command -v clang-tidy >/dev/null; then
    # Zero-warning gate: .clang-tidy enables bugprone-*, concurrency-*,
    # performance-*; --warnings-as-errors='*' promotes every finding.
    echo "=== lint: clang-tidy (zero warnings) ==="
    cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
    clang-tidy -p build-release --warnings-as-errors='*' \
      src/common/*.cc src/delex/*.cc src/obs/*.cc src/storage/*.cc
  else
    echo "=== clang-tidy not found: skipping tidy gate ==="
  fi
  if command -v clang++ >/dev/null; then
    # Thread-safety-analysis gate: CMakeLists adds -Wthread-safety
    # -Werror=thread-safety under clang, so this build fails on any
    # DELEX_GUARDED_BY / DELEX_REQUIRES violation. Build only — the ctest
    # coverage comes from the gcc legs.
    echo "=== clang: thread-safety-analysis build ==="
    cmake -B build-clang-tsa -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_C_COMPILER=clang -DCMAKE_CXX_COMPILER=clang++
    cmake --build build-clang-tsa -j "${JOBS}"
  else
    echo "=== clang++ not found: skipping thread-safety-analysis build ==="
  fi
fi

if [[ "${DELEX_CI_TSAN_ONLY:-0}" != "1" ]]; then
  run_leg "Release" build-release -DCMAKE_BUILD_TYPE=Release

  # Quick-mode smoke of the identical-page fast path: tiny corpus, but the
  # bench still runs fast-on vs fast-off end to end and self-checks
  # Theorem-1 equivalence per fraction.
  echo "=== Release: bench_identical_fraction smoke ==="
  smoke_json="$(DELEX_PAGES_DBLIFE=24 DELEX_SNAPSHOTS=3 \
    ./build-release/bench/bench_identical_fraction)"
  echo "${smoke_json}"
  if grep -q '"results_match": false' <<<"${smoke_json}"; then
    echo "FAIL: fast path changed extraction results" >&2
    exit 1
  fi

  # The repo benchmark builds src/ on its own (.bench_build/refreshbench)
  # and drives it through the public harness API: its tiny-scale
  # self-test turns an API change that breaks refresh_bench into a CI
  # failure rather than a failed benchmark run.
  echo "=== Release: refreshbench self-test ==="
  python3 refreshbench/selftest.py
fi

if [[ "${DELEX_CI_FAST:-0}" == "1" ]]; then
  echo "=== DELEX_CI_FAST=1: skipping smokes, fuzz, and sanitizer legs ==="
  echo "=== fast checks passed ==="
  exit 0
fi

if [[ "${DELEX_CI_TSAN_ONLY:-0}" != "1" ]]; then
  # Pipeline memory smoke: 20,000 Synthetic pages x 3 snapshots through the
  # refresh_bench binary the self-test above built (chair, pinned ST plan,
  # 4 shards on 4 threads). Peak RSS must stay below 8 KB per page. The
  # engine's page ring holds only the pages in flight; what is left per
  # page is the two live snapshots and the result rows (about 4 KB). A
  # pipeline that keeps per-page state for the whole run reads about
  # 20 KB per page and fails.
  echo "=== Release: pipeline memory smoke (20,000 pages) ==="
  mem_tmp="$(scratch_dir)"
  refresh_bench=.bench_build/refreshbench/refresh_bench
  "${refresh_bench}" gen --profile synthetic --pages 20000 --seed 1 \
    --count 3 --out "${mem_tmp}/snapshots"
  "${refresh_bench}" run --program chair --plan ST --threads 4 --shards 4 \
    --setups 1 --count 3 --seconds 600 --trace 0 \
    --snapshots "${mem_tmp}/snapshots" --work "${mem_tmp}/work" \
    --out "${mem_tmp}/run.json" >/dev/null
  python3 - "${mem_tmp}/run.json" 20000 <<'EOF'
import json, sys

run = json.load(open(sys.argv[1]))
pages = int(sys.argv[2])
for record in run["setups"] + run["refreshes"]:
    assert "error" not in record, record["error"]
assert len(run["refreshes"]) == 2, run["refreshes"]
per_page = run["resources"]["peak_rss_bytes"] / pages
if per_page >= 8192:
    sys.exit(f"FAIL: peak RSS {per_page:.0f} B/page at {pages} pages "
             "(limit 8192): pipeline memory grows with the snapshot")
print(f"pipeline memory smoke OK: {per_page:.0f} B/page peak RSS")
EOF

  # Scalar-dispatch leg: the full Release suite again with DELEX_SIMD=0,
  # so every kernel consumer (diff trim, suffix stream, digest check) is
  # also exercised through the scalar tier. Byte-identical results across
  # tiers are asserted in-process by simd_test and the paranoid oracle;
  # this leg catches anything only reachable through the env knob.
  echo "=== Release: ctest with DELEX_SIMD=0 (scalar kernels) ==="
  DELEX_SIMD=0 ctest --test-dir build-release --output-on-failure -j "${JOBS}"

  # Traced smoke of the observability layer: a 3-snapshot parallel DBLife
  # run with tracing and run reports on. The trace must be valid JSON
  # (Perfetto-loadable) and every non-warm-up Delex report line must carry
  # finite predicted-vs-actual per-unit costs.
  echo "=== Release: traced dblife smoke ==="
  obs_tmp="$(scratch_dir)"
  DELEX_TRACE="${obs_tmp}/trace.json" \
    DELEX_STATS_JSON="${obs_tmp}/stats.jsonl" \
    DELEX_THREADS=2 \
    ./build-release/examples/dblife_portal 16 3 >/dev/null
  python3 -m json.tool "${obs_tmp}/trace.json" >/dev/null
  python3 - "${obs_tmp}/stats.jsonl" <<'EOF'
import json, math, sys

delex_lines = 0
with open(sys.argv[1]) as f:
    for raw in f:
        line = json.loads(raw)
        if line["solution"] != "Delex" or line["warmup"]:
            continue
        delex_lines += 1
        assert "optimizer" in line, "missing optimizer block"
        assert line["optimizer"]["assignment"], "empty matcher assignment"
        assert line["units"], "no per-unit rows"
        for unit in line["units"]:
            for key in ("predicted_us", "actual_us", "match_us",
                        "extract_us", "copy_us"):
                value = unit.get(key)
                assert isinstance(value, (int, float)) and math.isfinite(value), \
                    f"unit field {key} not finite: {value!r}"
assert delex_lines > 0, "no non-warm-up Delex report lines"
print(f"traced smoke OK: {delex_lines} Delex report lines")
EOF

  # Profiled smoke (observability layer 4): a 3-generation parallel DBLife
  # run with the span profiler and run reports on. Every run-report line
  # must carry the resources block (positive RSS, the snapshot, matcher
  # and thread_pool tags) and at least one its profiler rollup with a
  # positive top span; the folded profile must be non-empty with a
  # positive top-span count, and every frame must be a span name from the
  # source tree's trace vocabulary.
  echo "=== Release: profiled dblife smoke ==="
  prof_tmp="$(scratch_dir)"
  DELEX_PROFILE="${prof_tmp}/profile.folded" \
    DELEX_PROFILE_HZ=997 \
    DELEX_STATS_JSON="${prof_tmp}/stats.jsonl" \
    DELEX_THREADS=2 \
    ./build-release/examples/dblife_portal 128 3 >/dev/null
  python3 - "${prof_tmp}/stats.jsonl" <<'EOF'
import json, sys

lines = [json.loads(raw) for raw in open(sys.argv[1])]
assert lines, "no run-report lines"
profiled = 0
for line in lines:
    res = line.get("resources")
    assert res is not None, "run-report line without a resources block"
    assert res["rss_bytes"] > 0, res
    tags = {s["tag"] for s in res["subsystems"]}
    assert {"snapshot", "matcher", "thread_pool"} <= tags, tags
    top = res.get("profile", {}).get("top_spans", [])
    if top and top[0]["self_samples"] > 0:
        profiled += 1
assert profiled > 0, "no run-report line carries a positive top span"
print(f"resources OK: {len(lines)} lines, {profiled} with a profile")
EOF
  PROFILE_VOCAB="$(grep -rhoE 'DELEX_TRACE_SPAN\("[a-z_]+"' src \
    | sed 's/.*"\(.*\)"/\1/' | sort -u)" \
    python3 - "${prof_tmp}/profile.folded" <<'EOF'
import os, sys

vocab = set(os.environ["PROFILE_VOCAB"].split()) | {"(no_span)"}
lines = [l.rstrip("\n") for l in open(sys.argv[1]) if l.strip()]
assert lines, "folded profile is empty"
total = top = 0
for line in lines:
    path, count = line.rsplit(" ", 1)
    total += int(count)
    top = max(top, int(count))
    for frame in path.split(";"):
        assert frame in vocab, f"unknown span {frame!r} in {line!r}"
assert top > 0, "no stack accumulated a positive sample count"
print(f"profiled smoke OK: {len(lines)} stacks, {total} samples")
EOF

  # Sharded smoke: the same portal hash-partitioned into 4 engine shards
  # on a shared pool. Every non-warm-up Delex report line must carry the
  # schema-v5 merged view: num_shards, a 4-entry per-shard summary whose
  # pages and result_tuples fold exactly into the merged totals.
  echo "=== Release: sharded dblife smoke (DELEX_SHARDS=4) ==="
  shard_tmp="$(scratch_dir)"
  DELEX_SHARDS=4 \
    DELEX_THREADS=2 \
    DELEX_STATS_JSON="${shard_tmp}/stats.jsonl" \
    ./build-release/examples/dblife_portal 16 3 >/dev/null
  python3 - "${shard_tmp}/stats.jsonl" <<'EOF'
import json, sys

delex_lines = 0
with open(sys.argv[1]) as f:
    for raw in f:
        line = json.loads(raw)
        assert line["schema_version"] == 10, line["schema_version"]
        assert "resources" in line, "missing v6 resources block"
        assert line["resources"]["rss_bytes"] > 0, line["resources"]
        if line["solution"] != "Delex" or line["warmup"]:
            continue
        delex_lines += 1
        assert line["num_shards"] == 4, line
        shards = line["shards"]
        assert len(shards) == 4, shards
        for entry in shards:
            for key in ("shard", "pages", "pages_identical",
                        "result_tuples", "total_us", "reuse_corrupt_drops"):
                assert key in entry, f"shard summary missing {key}"
        assert [s["shard"] for s in shards] == [0, 1, 2, 3], shards
        assert sum(s["pages"] for s in shards) == line["pages"], line
        assert sum(s["result_tuples"] for s in shards) == \
            line["result_tuples"], line
assert delex_lines > 0, "no non-warm-up sharded Delex report lines"
print(f"sharded smoke OK: {delex_lines} merged report lines")
EOF

  # Generation-history smoke: a 3-generation portal run. TMPDIR points at
  # CI scratch so the portal's work dirs land there. Validates every
  # task's history.jsonl at the byte level (fixed-offset FNV-1a
  # checksums, one record per generation, monotone gap-free gens), checks
  # that every record body is a run-report line, that generation 2 (the
  # first refresh) planned from a sample and generation 3 from the run
  # before it, and requires delex_inspect diff to attribute at least one
  # matcher switch (warm-up generation 1 against the sampled generation 2)
  # to its audited cost margin.
  echo "=== Release: generation-history smoke ==="
  history_tmp="$(scratch_dir)"
  # 64 pages (not 16): at 16 every page is identical across days, the
  # optimizer never leaves DN, and there is no matcher switch to audit.
  TMPDIR="${history_tmp}" \
    DELEX_THREADS=2 \
    ./build-release/examples/dblife_portal 64 3 >/dev/null
  for task in talk chair advise; do
    python3 - "${history_tmp}/delex-dblife/delex-${task}/history.jsonl" 3 \
        <<'EOF'
import json, sys

FNV_OFFSET, FNV_PRIME, MASK = 0xCBF29CE484222325, 0x100000001B3, 2**64 - 1


def fnv1a64(data):
    h = FNV_OFFSET
    for b in data:
        h = ((h ^ b) * FNV_PRIME) & MASK
    return h


path, days = sys.argv[1], int(sys.argv[2])
gens = []
with open(path, "rb") as f:
    for raw in f:
        line = raw.rstrip(b"\n")
        assert line[:8] == b'{"crc":"', f"bad envelope prefix: {line[:8]!r}"
        assert line[24:32] == b'","rec":', f"bad rec marker: {line[24:32]!r}"
        assert line[-1:] == b"}", "envelope not closed"
        assert int(line[8:24], 16) == fnv1a64(line[32:-1]), \
            f"checksum mismatch in {path}"
        rec = json.loads(line[32:-1])
        for key in ("schema_version", "reader", "identical_runs"):
            assert key in rec, f"{path}: body is not a run-report line ({key})"
        gens.append(rec["generation"])
        want = {2: "sample", 3: "run"}.get(rec["generation"])
        if want is not None:
            decisions = rec["optimizer"]["decisions"]
            assert decisions, f"{path}: generation {gens[-1]} has no decisions"
            sources = {d["inputs"]["source"] for d in decisions}
            assert sources == {want}, \
                f"{path}: generation {gens[-1]} planned from {sources}, not {want}"
assert gens == list(range(1, days + 1)), \
    f"{path}: want one record per generation 1..{days}, got {gens}"
print(f"history OK: {path} ({len(gens)} generations)")
EOF
  done
  inspect=./build-release/src/tools/delex_inspect
  switch_attributed=0
  for task in talk chair advise; do
    hist="${history_tmp}/delex-dblife/delex-${task}/history.jsonl"
    "${inspect}" summary "${hist}" >/dev/null
    "${inspect}" decisions "${hist}" 2 >/dev/null
    "${inspect}" diff "${hist}" >/dev/null  # default pair: last two gens
    diff_out="$("${inspect}" diff "${hist}" 1 2)"
    if grep -q "audited margin" <<<"${diff_out}"; then
      switch_attributed=1
      echo "--- ${task}: matcher switch attributed to audited margin"
      grep "switched" <<<"${diff_out}"
    fi
  done
  if [[ "${switch_attributed}" != "1" ]]; then
    echo "FAIL: no matcher switch attributed to an audited cost margin" >&2
    exit 1
  fi

  # Perf-regression gate: re-run the gated benches at the pinned
  # quick scale and compare against the committed baselines; the median
  # per-metric slowdown must stay within 15%. Re-baseline intentional perf
  # changes with DELEX_BENCH_BASELINE_UPDATE=1 ci/check.sh.
  echo "=== Release: bench baseline gate ==="
  bench_tmp="$(scratch_dir)"
  bench_env=(DELEX_PAGES_DBLIFE=24 DELEX_PAGES_WIKI=24 DELEX_SNAPSHOTS=3
             DELEX_PAGES_SYN1M=1200 DELEX_BENCH_REPS=2 DELEX_THREADS=1)
  env "${bench_env[@]}" ./build-release/bench/bench_identical_fraction \
    > "${bench_tmp}/identical_fraction.json"
  env "${bench_env[@]}" ./build-release/bench/bench_parallel_scaling \
    > "${bench_tmp}/parallel_scaling.json"
  env "${bench_env[@]}" ./build-release/bench/bench_matchers_micro \
    --benchmark_format=json --benchmark_min_time=0.05 \
    > "${bench_tmp}/matchers_micro.json" 2>/dev/null
  env "${bench_env[@]}" ./build-release/bench/bench_shard_scaling \
    > "${bench_tmp}/shard_scaling.json"
  for bench in identical_fraction parallel_scaling matchers_micro \
               shard_scaling; do
    python3 ci/bench_compare.py "bench/baselines/${bench}.json" \
      "${bench_tmp}/${bench}.json"
  done
  if [[ "${DELEX_BENCH_BASELINE_UPDATE:-0}" == "0" ]]; then
    # Self-test: the gate must actually fire on a synthetic 2x slowdown.
    if python3 ci/bench_compare.py bench/baselines/identical_fraction.json \
        "${bench_tmp}/identical_fraction.json" --inject-slowdown 2.0 \
        >/dev/null; then
      echo "FAIL: bench gate did not fire on injected 2x slowdown" >&2
      exit 1
    fi
    echo "bench gate self-test OK: injected 2x slowdown rejected"
  fi

  # Extended fuzz smoke: a bigger deterministic mutation budget than the
  # per-harness ctest replay, different seed, same committed corpora. Any
  # crash here is a real finding — minimize it, commit the input to
  # fuzz/corpus/<harness>/, and promote it into tests/corrupt_input_test.
  echo "=== Release: fuzz smoke ==="
  for harness in build-release/fuzz/fuzz_*; do
    name="$(basename "${harness}")"
    echo "--- ${name}"
    "${harness}" -runs=4096 -seed=1 "fuzz/corpus/${name}"
  done

  # Lock-order gate: the full suite with the runtime deadlock detector
  # promoted to fatal, so any lock-order inversion anywhere in the tree
  # aborts the offending test on the spot. RelWithDebInfo keeps the
  # detector compiled in (Release compiles it out of delex::Mutex).
  echo "=== LockOrder: configure ==="
  cmake -B build-lockorder -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
  echo "=== LockOrder: build ==="
  cmake --build build-lockorder -j "${JOBS}"
  echo "=== LockOrder: ctest with DELEX_DEADLOCK=fatal ==="
  DELEX_DEADLOCK=fatal ctest --test-dir build-lockorder \
    --output-on-failure -j "${JOBS}"

  # UBSan first (cheap instrumentation, isolates pure-UB findings), then
  # ASan+UBSan together: the memory gate for the raw byte passthrough in
  # the reuse files, with UB checks riding along. Both run with
  # no-recover, so any finding is a hard test failure.
  run_leg "UBSan" build-ubsan \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DDELEX_SANITIZE=ubsan
  run_leg "ASan+UBSan" build-asan-ubsan \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DDELEX_SANITIZE=address,undefined
fi

# TSan wants debug info and no sanitizer-hostile optimizations; O1 keeps
# the suite fast enough while preserving every instrumented access.
run_leg "TSan" build-tsan \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DDELEX_SANITIZE=thread

echo "=== all checks passed ==="
