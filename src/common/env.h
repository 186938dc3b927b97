// Environment-variable overrides for benchmark scale and runtime knobs.
//
// Benches run at a reduced scale by default so the full suite finishes in
// minutes on a laptop; ADEPT_BENCH_* variables scale them toward paper scale.
//
// Runtime knobs consumed elsewhere through env_int()/env_string():
//   ADEPT_NUM_THREADS   process-wide core budget of the src/backend kernel
//                       pool (default: hardware concurrency; 1 = serial
//                       fallback). Rank threads and busy server workers
//                       each hold one core of it; kernel launches fan out
//                       only into the free cores and only when their work
//                       pays for it. Backend results are bit-exact across
//                       thread counts, see backend/parallel.h.
//   ADEPT_SIMD          dispatch cap for the SIMD microkernels:
//                       scalar | avx2 | avx512 (default: best level the
//                       binary + CPU support; unknown or unavailable values
//                       clamp down, never error — see backend/dispatch.h).
//   ADEPT_RANKS         data-parallel rank count for search/training entry
//                       points that are given no explicit rank count
//                       (default 1; see comm/communicator.h resolve_ranks
//                       and use_rank_group). Clamped to [1, hardware ranks]
//                       where hardware ranks = min(hardware concurrency, 8),
//                       then rounded down to a power of two; unset, unknown,
//                       or unparsable values fall back to 1, never error.
//                       Resolving to 1 runs single-process, one shard per
//                       step; above 1 runs a rank group with
//                       shard_count(items) micro-shards per step, whose
//                       results are ASSERT_EQ bit-identical to an explicit
//                       1-rank run at every thread count
//                       (tests/test_comm.cpp). Each rank thread holds one
//                       core of the ADEPT_NUM_THREADS budget, so ranks x
//                       kernel threads never oversubscribes the machine.
//
// Serving knobs consumed by runtime::ServerConfig::from_env() (see
// runtime/server.h; out-of-range values clamp into the supported envelope,
// they never error — clamping is asserted in tests/test_runtime.cpp):
//   ADEPT_SERVE_THREADS      worker count for the inference server
//                            (default: hardware concurrency; clamps to
//                            [1, 256]).
//   ADEPT_SERVE_MAX_BATCH    micro-batch ceiling per forward pass
//                            (default 16; clamps to [1, 4096]).
//   ADEPT_SERVE_MAX_WAIT_US  how long a worker lingers for stragglers after
//                            popping the first request of a batch
//                            (default 100; clamps to [0, 1000000]; 0 =
//                            serve whatever is already queued immediately).
//   ADEPT_SERVE_POLICY       what submit() does when the bounded queue is
//                            full: block | reject | shed_oldest (default
//                            block; unknown names clamp to block, never
//                            error — see runtime/server.h OverloadPolicy).
//   ADEPT_SERVE_DEADLINE_US  default per-request deadline, microseconds
//                            from submit (default 0 = none; clamps to
//                            [0, 600000000]). Expired requests fail with
//                            DeadlineExceededError instead of executing.
//
// Fault injection (see common/failpoint.h for the spec grammar and the list
// of wired sites):
//   ADEPT_FAILPOINTS         "site=spec;site2=spec" — arm named failpoints
//                            at process start, e.g.
//                            "checkpoint.save.write=truncate(128)" or
//                            "server.worker.batch=stall(5000)". Parsed once
//                            at first site evaluation; malformed entries
//                            throw std::invalid_argument there.
//
// Observability knobs consumed by src/obs/ (see docs/observability.md):
//   ADEPT_TRACE              path — enable tracing at process start and
//                            write a Chrome trace_event JSON there at exit
//                            (open in Perfetto / chrome://tracing). Unset =
//                            tracing disarmed; the per-span fast path is one
//                            relaxed atomic load.
//   ADEPT_METRICS_FILE       path — dump the metrics registry (counters,
//                            gauges, histograms) as JSON at process exit.
//                            Unset = no dump; metrics are always recorded.
//   ADEPT_TRACE_BUF          per-thread trace ring capacity in events
//                            (default 65536; clamps to [4096, 4194304]).
//                            When a thread's ring fills, the oldest events
//                            are overwritten.
#pragma once

#include <string>

namespace adept {

// Integer env var with default; returns `def` if unset or unparsable.
int env_int(const std::string& name, int def);

// Double env var with default.
double env_double(const std::string& name, double def);

// String env var with default; returns `def` if unset or empty.
std::string env_string(const std::string& name, const std::string& def);

// True when ADEPT_BENCH_FULL=1 (run benches closer to paper scale).
bool bench_full_scale();

}  // namespace adept
