#!/usr/bin/env bash
# One-shot repo health check: configure, build (src/ and tests/ warnings
# are errors), and run the full test suite. This is the command the CI (and
# any PR author) should run before merging.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"

cmake -B "${BUILD_DIR}" -S . -DTFM_WERROR=ON
cmake --build "${BUILD_DIR}" -j "$(nproc)"
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "$(nproc)"

# Benchmark anchor: perfbench/ is a CMake package of its own (it
# compiles src/ into one library), so configure it into its own build
# dir and run its anchor test. The anchor pins bench_hybrid's three
# planes and Fig. 12's Fastswap cycles, i.e. both users of the one
# paging model (PagedPlane).
PB_DIR="${BUILD_DIR}/perfbench_anchor"
cmake -S perfbench -B "${PB_DIR}" > /dev/null
cmake --build "${PB_DIR}" -j "$(nproc)" --target perfbench_anchor_test
"${PB_DIR}/perfbench_anchor_test"
echo "check_build: perfbench anchor OK"

# Figure gate: Table 1 and 2 and Fig. 6-17 print every simulated
# cycle, byte and event-count cell of their tables as one BENCH_JSON
# line, bench_serving its default-mode SLO summary, and §4.6 each row's
# code sizes and static guard counts; each cell must equal
# bench/expected/<name>.json exactly. Fig. 9 and serving draw every key
# from the Zipf sampler, so they also pin that a sampler or scheduler
# change moves no draw; §4.6 pins that an IR or analysis change moves
# no pass output. Fig. 6, 7, 10 and 11 run TrackFM's naive and chunked
# STREAM across densities, object sizes and prefetch on/off, so they pin
# that chunked element runs move no cycle; Fig. 8 (k-means) and 15
# (analytics) pin the chunked loops of two applications, whose pinned
# windows move no cycle either. Table 1 and 2 pin the guard
# and fault primitives the runtime charges, and Fig. 14 pins TrackFM,
# AIFM and Fastswap side by side on one application; Fig. 16 pins
# memcached on TrackFM, Fastswap and local memory across zipf skews
# (its keys come from the Zipf sampler too), and Fig. 17 the NAS kernels
# on all three with FT and SP also under the O1 pipeline. The three
# ablations pin naive guards at five fast-path costs against chunking,
# the chunked stream's prefetch depth sweep, and both object-size sweeps
# of the section 3.2 autotuner with the sizes it picks (4096 B
# sequential, 512 B scattered); guard_opt pins dynamic guards,
# revalidations and cycles with the guard optimizer off and on, so a
# change to a guard path moves a cell there. bench_hybrid pins the guard,
# paged and hybrid planes of one program, the only bench that runs
# PagedPlane inside TfmRuntime. bench_batching's summary pins the
# batched data plane's message and cycle ratios (writebackBatch), and
# bench_cluster_scaling's the 4-shard speedup and the bytes a failed
# shard's re-replication copies. An intended model change regenerates
# the expected file from the bench's line.
FIG_DIR="${BUILD_DIR}/figure_gate"
mkdir -p "${FIG_DIR}"
for fig in table1:bench_table1_guard_costs \
           table2:bench_table2_primitives \
           fig6:bench_fig6_cost_model \
           fig7:bench_fig7_loop_chunking \
           fig8:bench_fig8_kmeans_chunking \
           fig9:bench_fig9_objsize_hashmap \
           fig10:bench_fig10_objsize_stream \
           fig11:bench_fig11_prefetch \
           fig12:bench_fig12_stream_vs_fastswap \
           fig13:bench_fig13_io_amplification \
           fig14:bench_fig14_analytics \
           fig15:bench_fig15_analytics_chunking \
           fig16:bench_fig16_memcached \
           fig17:bench_fig17_nas \
           serving:bench_serving \
           sec46:bench_sec46_compile_costs \
           ablation_guards:bench_ablation_guards \
           ablation_prefetch:bench_ablation_prefetch \
           ablation_autotune:bench_ablation_autotune \
           guard_opt:bench_guard_opt \
           hybrid:bench_hybrid \
           batching:bench_batching \
           cluster_scaling:bench_cluster_scaling; do
    "${BUILD_DIR}/bench/${fig#*:}" > "${FIG_DIR}/${fig%%:*}.out"
    if command -v python3 > /dev/null; then
        python3 tools/check_bench_json.py "${FIG_DIR}/${fig%%:*}.out" \
            "bench/expected/${fig%%:*}.json"
    fi
done
echo "check_build: figure cells OK"

# Observability smoke test: run one bench with --trace, check that the
# emitted file is Perfetto-loadable JSON, that its buffer dropped no
# event (validate_trace.py fails on otherData.dropped > 0) and that
# tfm-stat reads it.
TRACE_FILE="${BUILD_DIR}/smoke_trace.json"
"${BUILD_DIR}/bench/bench_fig11_prefetch" --trace="${TRACE_FILE}" \
    > /dev/null
if command -v python3 > /dev/null; then
    python3 tools/validate_trace.py "${TRACE_FILE}"
else
    echo "check_build: python3 not found; skipping trace validation"
fi
"${BUILD_DIR}/tools/tfm-stat" "${TRACE_FILE}" > /dev/null
echo "check_build: trace smoke test OK"

# Example programs: every .tir in examples/ must compile verifier-clean
# through the full pipeline (the verifier runs after every pass) and
# execute without trapping, both with and without the guard optimizer,
# under both execution engines (the bytecode default and the
# tree-walking reference engine).
for example in examples/*.tir; do
    for engine in bytecode ref; do
        "${BUILD_DIR}/tools/tfmc" --run --engine="${engine}" \
            "${example}" > /dev/null
        "${BUILD_DIR}/tools/tfmc" --run --engine="${engine}" \
            --no-guard-opt "${example}" > /dev/null
    done
done
echo "check_build: example programs OK (both engines)"

# Lint tier: clang-tidy with the checked-in .clang-tidy configs
# (bugprone-* and performance-* everywhere; src/serve and src/runtime
# additionally enable concurrency-mt-unsafe via InheritParentConfig)
# against the compile database the main configure exports. Findings
# fail the build. Skipped when clang-tidy is not installed.
if command -v clang-tidy > /dev/null; then
    mapfile -t LINT_SOURCES < <(find src -name '*.cc' | sort)
    clang-tidy -p "${BUILD_DIR}" --quiet "${LINT_SOURCES[@]}"
    echo "check_build: clang-tidy lint tier OK"
else
    echo "check_build: clang-tidy not found; skipping lint tier"
fi

# Hybrid data-plane gate (DESIGN.md §4l): every example must compile
# under --hybrid with a clean safety report — including the mixed-plane
# check — at both opt levels, and run bit-identically to the pure
# guard plane: same program output and same far-heap checksum (printed
# by --record); only the cycle count may differ, so only the
# "simulated time" line is stripped before comparing.
HYB_DIR="${BUILD_DIR}/hybrid_gate"
mkdir -p "${HYB_DIR}"
for example in examples/*.tir; do
    base="$(basename "${example}" .tir)"
    for optflag in "" "--no-guard-opt"; do
        tag="${base}${optflag:+_noopt}"
        "${BUILD_DIR}/tools/tfmc" --run --check-safety ${optflag} \
            --record="${HYB_DIR}/${tag}_guard.tfr" "${example}" \
            2> /dev/null \
            | grep -v "^simulated time" > "${HYB_DIR}/${tag}_guard.out"
        "${BUILD_DIR}/tools/tfmc" --run --check-safety --hybrid \
            ${optflag} --record="${HYB_DIR}/${tag}_hybrid.tfr" \
            "${example}" 2> /dev/null \
            | grep -v "^simulated time" > "${HYB_DIR}/${tag}_hybrid.out"
        cmp "${HYB_DIR}/${tag}_guard.out" "${HYB_DIR}/${tag}_hybrid.out"
        # Paged-plane faults go through the remote tier, so the hybrid
        # recording replays bit-exactly too.
        "${BUILD_DIR}/tools/tfmc" --run --check-safety --hybrid \
            ${optflag} --replay="${HYB_DIR}/${tag}_hybrid.tfr" \
            "${example}" 2> /dev/null \
            | grep -v "^simulated time" > "${HYB_DIR}/${tag}_replay.out"
        cmp "${HYB_DIR}/${tag}_hybrid.out" "${HYB_DIR}/${tag}_replay.out"
    done
done
"${BUILD_DIR}/bench/bench_hybrid" --check > /dev/null
echo "check_build: hybrid data-plane gate OK"

# Profile round trip: two profiled runs of one example write, then merge
# into, one allocation-site profile (the second run must change it), a
# profile-guided compile parses it back, and a garbage profile is
# refused with tfmc's diagnostic.
PROF_DIR="${BUILD_DIR}/profile_gate"
mkdir -p "${PROF_DIR}"
rm -f "${PROF_DIR}/sum_loop.prof"
"${BUILD_DIR}/tools/tfmc" --run --hybrid \
    --emit-profile="${PROF_DIR}/sum_loop.prof" examples/sum_loop.tir \
    > /dev/null 2>&1
cp "${PROF_DIR}/sum_loop.prof" "${PROF_DIR}/first.prof"
"${BUILD_DIR}/tools/tfmc" --run --hybrid \
    --emit-profile="${PROF_DIR}/sum_loop.prof" examples/sum_loop.tir \
    > /dev/null 2>&1
if cmp -s "${PROF_DIR}/first.prof" "${PROF_DIR}/sum_loop.prof"; then
    echo "check_build: second profiled run did not merge" >&2
    exit 1
fi
"${BUILD_DIR}/tools/tfmc" --hybrid --profile="${PROF_DIR}/sum_loop.prof" \
    --print-access-report examples/sum_loop.tir > /dev/null
echo "not a profile" > "${PROF_DIR}/garbage.prof"
if "${BUILD_DIR}/tools/tfmc" --hybrid \
    --profile="${PROF_DIR}/garbage.prof" --print-access-report \
    examples/sum_loop.tir > /dev/null 2> "${PROF_DIR}/garbage.err"; then
    echo "check_build: a garbage profile was accepted" >&2
    exit 1
fi
grep -q "malformed profile" "${PROF_DIR}/garbage.err"
echo "check_build: profile round trip OK"

# Guard-safety gate: the static checker must stay diagnostic-free on
# every example at both opt levels (tfmc exits non-zero on any
# finding), and the farmem sanitizer must execute every example without
# trapping — the differential corpus behind the mutation harness.
for example in examples/*.tir; do
    "${BUILD_DIR}/tools/tfmc" --check-safety "${example}" > /dev/null
    "${BUILD_DIR}/tools/tfmc" --check-safety --no-guard-opt \
        "${example}" > /dev/null
    "${BUILD_DIR}/tools/tfmc" --run --sanitize=farmem --engine=ref \
        "${example}" > /dev/null
done
echo "check_build: guard-safety checker and farmem sanitizer OK"

# Interpreter dispatch-rate floor: the bytecode engine must stay at
# least 2x the reference engine's instructions/second on the gated
# mixes (arith-loop, pointer-chase); since the reference engine runs
# on flat frames it measures 2.35-3.3x there. 2x is the
# don't-regress-silently floor, taken on the best of 5 runs so one
# slow run on a loaded host cannot fail it. The bench also exits
# non-zero if the engines differ in return value, instructions or
# simulated cycles on any mix.
"${BUILD_DIR}/bench/bench_interp_dispatch" --repeat=5 \
    --min-speedup=2 > /dev/null
echo "check_build: bytecode engine dispatch-rate floor (2x) OK"

# Replay-determinism gate: recording must be reproducible, replay must
# be bit-exact, and a corrupted log must diverge loudly.
REC_DIR="${BUILD_DIR}/replay_gate"
mkdir -p "${REC_DIR}"
TFMC="${BUILD_DIR}/tools/tfmc"

# (a) Two recordings of the same run are byte-identical past the
# wall-clock stamp (bytes 16-23; everything before it is static magic
# and version, so `cmp -i 24` compares all deterministic bytes).
"${TFMC}" --run --record="${REC_DIR}/a.tfr" examples/sum_loop.tir \
    > "${REC_DIR}/a.out"
"${TFMC}" --run --record="${REC_DIR}/b.tfr" examples/sum_loop.tir \
    > /dev/null
cmp -i 24 "${REC_DIR}/a.tfr" "${REC_DIR}/b.tfr"

# (b) Replay is bit-exact (stdout includes the far-heap checksum, exit
# value, and cycle count) under both interpreter engines: the log
# captures runtime nondeterminism, not engine internals.
for engine in bytecode ref; do
    "${TFMC}" --run --engine="${engine}" --replay="${REC_DIR}/a.tfr" \
        examples/sum_loop.tir > "${REC_DIR}/replay.out"
    cmp "${REC_DIR}/a.out" "${REC_DIR}/replay.out"
done

# (c) Forced mid-loop evacuation: every iteration records an evac
# victim decision, and the replay must re-inject each one.
"${TFMC}" --run --record="${REC_DIR}/evac.tfr" \
    examples/evacuation_stress.tir > "${REC_DIR}/evac.out"
"${TFMC}" --run --replay="${REC_DIR}/evac.tfr" \
    examples/evacuation_stress.tir > "${REC_DIR}/evac_replay.out"
cmp "${REC_DIR}/evac.out" "${REC_DIR}/evac_replay.out"

# (d) Cluster-failure run: shard 1 of 4 (replication 2) dies mid-run
# (the evacuation-stress program runs ~3.5M cycles, so cycle 1M is
# mid-scan); the failover and re-replication replay checksum-identically.
"${TFMC}" --run --shards=4 --replicate=2 --kill-shard=1@1000000 \
    --record="${REC_DIR}/cluster.tfr" examples/evacuation_stress.tir \
    > "${REC_DIR}/cluster.out" 2> /dev/null
"${TFMC}" --run --replay="${REC_DIR}/cluster.tfr" \
    examples/evacuation_stress.tir > "${REC_DIR}/cluster_replay.out" \
    2> /dev/null
cmp "${REC_DIR}/cluster.out" "${REC_DIR}/cluster_replay.out"
"${BUILD_DIR}/tools/tfm-stat" replay "${REC_DIR}/cluster.tfr" \
    | grep -q "cluster.shard-fail"

# (e) A corrupted-but-loadable log must diverge at replay (exit 3,
# naming the first mismatching stream + seq), not replay silently.
if command -v python3 > /dev/null; then
    python3 tools/corrupt_replay_log.py "${REC_DIR}/a.tfr" \
        "${REC_DIR}/bad.tfr"
    if "${TFMC}" --run --replay="${REC_DIR}/bad.tfr" \
        examples/sum_loop.tir > /dev/null 2> "${REC_DIR}/bad.err"; then
        echo "check_build: corrupted log replayed without divergence" >&2
        exit 1
    fi
    grep -q "first mismatch on stream" "${REC_DIR}/bad.err"
fi

# (f) Bench composition: --record and --trace together; the exported
# trace must carry the recorder's schema metadata and record.* counters
# (validate_trace.py checks both), and the recording must replay.
"${BUILD_DIR}/bench/bench_fig11_prefetch" \
    --record="${REC_DIR}/bench.tfr" \
    --trace="${REC_DIR}/bench_trace.json" > "${REC_DIR}/bench.out"
"${BUILD_DIR}/bench/bench_fig11_prefetch" \
    --replay="${REC_DIR}/bench.tfr" > "${REC_DIR}/bench_replay.out"
cmp "${REC_DIR}/bench.out" "${REC_DIR}/bench_replay.out"
if command -v python3 > /dev/null; then
    python3 tools/validate_trace.py "${REC_DIR}/bench_trace.json" \
        | grep -q "recorder counters"
fi

# (f2) The Fastswap baseline runs on FarMemRuntime's remote tier, so
# its page faults, readahead and pageouts record and replay like object
# transfers (Fig. 12 runs TrackFM and Fastswap side by side).
"${BUILD_DIR}/bench/bench_fig12_stream_vs_fastswap" \
    --record="${REC_DIR}/fastswap.tfr" > "${REC_DIR}/fastswap.out" \
    2> /dev/null
"${BUILD_DIR}/bench/bench_fig12_stream_vs_fastswap" \
    --replay="${REC_DIR}/fastswap.tfr" > "${REC_DIR}/fastswap_replay.out" \
    2> /dev/null
cmp "${REC_DIR}/fastswap.out" "${REC_DIR}/fastswap_replay.out"

# (g) Recording off must stay free: the guard fast paths never touch
# the recorder (only the cold choke points check the pointer), so the
# guard microbench runs with no recorder installed as always.
"${BUILD_DIR}/bench/bench_micro_guards" > /dev/null
echo "check_build: replay-determinism gate OK"

# Serving smoke gate: a short SLO sweep at low and near-collapse load
# must show monotone tail growth, emit well-formed serve.* epoch
# counters, run byte-identically under a pinned --seed, and
# record→replay bit-exactly. Finally the checked-in serving corpus —
# the first deterministic perf-regression trace — must still replay
# bit-exactly; if an intentional data-plane change diverges it,
# regenerate with the exact flags below (see EXPERIMENTS.md "Serving
# SLO curve").
SERVE_DIR="${BUILD_DIR}/serving_gate"
mkdir -p "${SERVE_DIR}"
SERVE="${BUILD_DIR}/bench/bench_serving"

# (a) p99 monotonicity across low -> near-collapse, with serve.*
# counters structurally checked in the emitted trace.
"${SERVE}" --requests=2000 --seed=7 --loads=0.3,1.25 \
    --trace="${SERVE_DIR}/serve_trace.json" > "${SERVE_DIR}/sweep.out"
if command -v python3 > /dev/null; then
    python3 tools/validate_trace.py "${SERVE_DIR}/serve_trace.json" \
        | grep -q "serving counters"
    python3 - "${SERVE_DIR}/sweep.out" <<'EOF'
import json, sys
for line in open(sys.argv[1]):
    if line.startswith("BENCH_JSON "):
        d = json.loads(line[len("BENCH_JSON "):])
        if d["p99_first"] >= d["p99_last"]:
            sys.exit(f"serving p99 not monotone across load: {d}")
        break
else:
    sys.exit("no BENCH_JSON line in bench_serving output")
EOF
fi
"${BUILD_DIR}/tools/tfm-stat" "${SERVE_DIR}/serve_trace.json" \
    | grep -q "serving"

# (b) Fixed seed => byte-identical output across runs.
"${SERVE}" --requests=1000 --seed=7 --loads=0.5,1.1 \
    > "${SERVE_DIR}/det_a.out"
"${SERVE}" --requests=1000 --seed=7 --loads=0.5,1.1 \
    > "${SERVE_DIR}/det_b.out"
cmp "${SERVE_DIR}/det_a.out" "${SERVE_DIR}/det_b.out"

# (c) Record -> replay bit-exactness: identical stdout including the
# full serve.* StatSet dump (latency histograms, goodput, tails).
"${SERVE}" --requests=1000 --seed=7 --loads=0.5,1.1 --stats \
    --record="${SERVE_DIR}/serve.tfr" > "${SERVE_DIR}/rec.out"
"${SERVE}" --requests=1000 --seed=7 --loads=0.5,1.1 --stats \
    --replay="${SERVE_DIR}/serve.tfr" > "${SERVE_DIR}/rep.out"
cmp "${SERVE_DIR}/rec.out" "${SERVE_DIR}/rep.out"

# (d) The checked-in corpus (recorded with exactly these flags) still
# replays: any divergence is a behavior change in the serving data
# plane and must be deliberate.
"${SERVE}" --requests=400 --loads=1.1 --seed=11 --stats \
    --replay=examples/serving_regression.tfr > /dev/null
echo "check_build: serving SLO gate OK"

# Worker-scaling gate (DESIGN.md §4k): real serving threads over the
# shared concurrent runtime must actually scale. At twice the 1-worker
# capacity, 4 workers must deliver at least 2x the goodput of 1 worker
# (the PR that added the concurrent runtime measured >100x — one
# worker has collapsed at that load — so 2x is the don't-regress
# floor), and the collapse knee must move to a strictly higher offered
# load. The record/replay gates above stay pinned to the deterministic
# single-thread mode; --concurrent composes with neither --record nor
# --replay by construction.
"${SERVE}" --concurrent --workers=1,2,4 --cal-load=2 --requests=1500 \
    --loads=0.5,1.5,3.0,6.0 > "${SERVE_DIR}/scaling.out"
if command -v python3 > /dev/null; then
    python3 - "${SERVE_DIR}/scaling.out" <<'EOF'
import json, math, sys
for line in open(sys.argv[1]):
    if line.startswith("BENCH_JSON "):
        d = json.loads(line[len("BENCH_JSON "):])
        g1, g4 = d["goodput_cal_w1"], d["goodput_cal_w4"]
        if g4 < 2.0 * g1:
            sys.exit(f"worker scaling below 2x: w1={g1} w4={g4}")
        # knee_load 0 means "not reached in this sweep": later than
        # every swept load, which also satisfies "moved right".
        k1 = d["knee_w1"] or math.inf
        k4 = d["knee_w4"] or math.inf
        if not k4 > k1:
            sys.exit(f"collapse knee did not move right: "
                     f"w1={k1} w4={k4}")
        break
else:
    sys.exit("no BENCH_JSON line in bench_serving scaling output")
EOF
else
    grep -q "scaling w4/w1" "${SERVE_DIR}/scaling.out"
fi
echo "check_build: worker-scaling gate OK"

# Sanitizer pass: rebuild in a separate directory with
# -fsanitize=${TFM_SANITIZE} (default address,undefined) and run the
# tier-1 suite under it. TFM_SANITIZE=off skips the pass.
TFM_SANITIZE="${TFM_SANITIZE:-address,undefined}"
if [ "${TFM_SANITIZE}" != "off" ]; then
    SAN_BUILD_DIR="${SAN_BUILD_DIR:-${BUILD_DIR}-asan}"
    cmake -B "${SAN_BUILD_DIR}" -S . -DTFM_SANITIZE="${TFM_SANITIZE}"
    cmake --build "${SAN_BUILD_DIR}" -j "$(nproc)"
    ctest --test-dir "${SAN_BUILD_DIR}" --output-on-failure \
        -j "$(nproc)"
    echo "check_build: sanitizer (${TFM_SANITIZE}) suite OK"
else
    echo "check_build: sanitizer pass skipped (TFM_SANITIZE=off)"
fi

# ThreadSanitizer pass: rebuild with -DTFM_TSAN=ON (thread does not
# compose with address/undefined, hence its own tree) and run the
# concurrent-runtime suite — the MT pointer-chase stress with eviction
# churn — plus a concurrent serving smoke. TFM_TSAN=off skips.
TFM_TSAN="${TFM_TSAN:-on}"
if [ "${TFM_TSAN}" != "off" ]; then
    TSAN_BUILD_DIR="${TSAN_BUILD_DIR:-${BUILD_DIR}-tsan}"
    cmake -B "${TSAN_BUILD_DIR}" -S . -DTFM_TSAN=ON
    cmake --build "${TSAN_BUILD_DIR}" -j "$(nproc)" \
        --target test_concurrency bench_serving
    "${TSAN_BUILD_DIR}/tests/test_concurrency" > /dev/null
    "${TSAN_BUILD_DIR}/bench/bench_serving" --concurrent --workers=4 \
        --requests=400 --loads=0.5,2.0 > /dev/null
    echo "check_build: thread-sanitizer concurrency suite OK"
else
    echo "check_build: thread-sanitizer pass skipped (TFM_TSAN=off)"
fi

echo "check_build: OK"
