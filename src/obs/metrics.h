// Process-wide metrics registry: typed instruments created once by name,
// recorded on hot paths with a single relaxed atomic op, snapshotted on
// demand.
//
// Instruments (all process-lifetime, returned by reference and never
// destroyed, so atexit dumpers and detached threads can touch them safely):
//
//   Counter    monotonic uint64; inc() is one relaxed fetch_add.
//   Gauge      last-write-wins double; set() is one relaxed store.
//   Histogram  fixed-bucket log-scale (HDR-style) distribution of
//              non-negative int64 samples. record() is one relaxed
//              fetch_add on the owning bucket — no lock, no allocation,
//              no sort. Quantiles interpolate within the matched bucket:
//              values < 16 are exact, larger values land in buckets of
//              relative width 2^-4, so p50/p99/mean/max are within 6.25%
//              of the exact-sort answer (tests/test_obs.cpp asserts the
//              bound against a sorted reference).
//
// Naming scheme (docs/observability.md): dot-separated lowercase paths,
// subsystem first — "serve.s0.latency_ns", "comm.allreduce.calls",
// "train.loss". Units are spelled in the name (_ns, _us, _bytes) because
// the registry stores numbers, not unit metadata.
//
// Lookup (obs::counter/gauge/histogram) takes a mutex; call sites resolve
// their instruments once (constructor member, function-local static) and
// record through the reference. snapshot() renders every instrument to a
// stable text format and JSON; ADEPT_METRICS_FILE=path dumps the JSON at
// process exit (the activation static lives in metrics.cpp).
#pragma once

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace adept::obs {

class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

class Histogram {
 public:
  // Bucket geometry: values below 2^kSubBits get unit-width buckets; above,
  // each power-of-two range splits into 2^kSubBits sub-buckets, bounding
  // relative error by 2^-kSubBits. 960 buckets cover all of int64.
  static constexpr int kSubBits = 4;
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kBuckets = (64 - kSubBits) * kSub;

  // One relaxed fetch_add; negative samples clamp to 0.
  void record(std::int64_t v) {
    buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
  }

  std::uint64_t count() const;
  // Nearest-rank quantile with linear interpolation inside the matched
  // bucket; q clamps to [0, 1]. 0 when empty.
  double quantile(double q) const;
  // Bucket-midpoint mean / top-bucket-edge max: within one bucket width
  // (<= 6.25%) of the exact values.
  double approx_mean() const;
  double approx_max() const;

  static int bucket_index(std::int64_t v) {
    if (v < 0) v = 0;
    const auto u = static_cast<std::uint64_t>(v);
    if (u < static_cast<std::uint64_t>(kSub)) return static_cast<int>(u);
    const int e = 63 - std::countl_zero(u);
    const int sub = static_cast<int>((u >> (e - kSubBits)) - kSub);
    return (e - kSubBits + 1) * kSub + sub;
  }
  // Bucket bounds as doubles (the top bucket's edge exceeds int64).
  static double bucket_lo(int idx);
  static double bucket_hi(int idx);

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
};

// Get-or-create by name. The first caller fixes the instrument type for
// that name; reuse the exact name only with the same accessor.
Counter& counter(std::string_view name);
Gauge& gauge(std::string_view name);
Histogram& histogram(std::string_view name);

struct CounterSnap {
  std::string name;
  std::uint64_t value = 0;
};
struct GaugeSnap {
  std::string name;
  double value = 0;
};
struct HistogramSnap {
  std::string name;
  std::uint64_t count = 0;
  double p50 = 0, p90 = 0, p99 = 0, mean = 0, max = 0;
};

// Point-in-time copy of every instrument, sorted by name (the stable order
// both renderings rely on). snapshot() first refreshes the process gauges
// from getrusage(RUSAGE_SELF): proc.minor_faults, proc.major_faults and
// proc.max_rss_kb.
struct MetricsSnapshot {
  std::vector<CounterSnap> counters;
  std::vector<GaugeSnap> gauges;
  std::vector<HistogramSnap> histograms;

  const CounterSnap* find_counter(std::string_view name) const;
  const GaugeSnap* find_gauge(std::string_view name) const;
  const HistogramSnap* find_histogram(std::string_view name) const;

  // One instrument per line: "counter <name> <value>", "gauge <name> <v>",
  // "histogram <name> count=N p50=... p90=... p99=... mean=... max=...".
  std::string to_text() const;
  // {"counters": {...}, "gauges": {...}, "histograms": {name: {...}}}
  std::string to_json() const;
};

MetricsSnapshot snapshot();

// Write snapshot().to_json() to `path`; false on I/O failure.
bool dump_metrics(const std::string& path);

// Records the microseconds between construction and destruction into a
// histogram. For ms-scale sections (train epochs, search steps) where two
// clock reads are negligible; hot paths derive durations from timestamps
// they already take. Pass nullptr to disable (e.g. non-root ranks).
class ScopedTimerUs {
 public:
  explicit ScopedTimerUs(Histogram& h) : ScopedTimerUs(&h) {}
  explicit ScopedTimerUs(Histogram* h) : h_(h) {
    if (h_ != nullptr) t0_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimerUs() {
    if (h_ != nullptr) {
      h_->record(std::chrono::duration_cast<std::chrono::microseconds>(
                     std::chrono::steady_clock::now() - t0_)
                     .count());
    }
  }
  ScopedTimerUs(const ScopedTimerUs&) = delete;
  ScopedTimerUs& operator=(const ScopedTimerUs&) = delete;

 private:
  Histogram* h_;
  std::chrono::steady_clock::time_point t0_;
};

}  // namespace adept::obs
