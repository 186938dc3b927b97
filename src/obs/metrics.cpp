#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>

#include <sys/resource.h>

#include "common/env.h"

namespace adept::obs {

namespace {

// Leaked singleton (same discipline as common/failpoint.cpp): instruments
// and the maps naming them outlive every static destructor, so the atexit
// dump and still-running detached threads can always record safely.
struct Registry {
  std::mutex mu;
  std::map<std::string, Counter*, std::less<>> counters;
  std::map<std::string, Gauge*, std::less<>> gauges;
  std::map<std::string, Histogram*, std::less<>> histograms;
};

Registry& registry() {
  static Registry* r = new Registry();
  return *r;
}

template <typename T>
T& get_or_create(std::map<std::string, T*, std::less<>>& m,
                 std::string_view name) {
  auto it = m.find(name);
  if (it == m.end()) {
    it = m.emplace(std::string(name), new T()).first;
  }
  return *it->second;
}

std::string fmt_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

void fill_hist(HistogramSnap& s, const Histogram& h) {
  s.count = h.count();
  s.p50 = h.quantile(0.5);
  s.p90 = h.quantile(0.9);
  s.p99 = h.quantile(0.99);
  s.mean = h.approx_mean();
  s.max = h.approx_max();
}

}  // namespace

std::uint64_t Histogram::count() const {
  std::uint64_t total = 0;
  for (const auto& b : buckets_) total += b.load(std::memory_order_relaxed);
  return total;
}

double Histogram::bucket_lo(int idx) {
  if (idx < kSub) return idx;
  const int e = idx / kSub + kSubBits - 1;
  return std::ldexp(static_cast<double>(kSub + idx % kSub), e - kSubBits);
}

double Histogram::bucket_hi(int idx) {
  if (idx < kSub) return idx + 1;
  const int e = idx / kSub + kSubBits - 1;
  return std::ldexp(static_cast<double>(kSub + idx % kSub + 1), e - kSubBits);
}

double Histogram::quantile(double q) const {
  q = std::clamp(q, 0.0, 1.0);
  std::uint64_t counts[kBuckets];
  std::uint64_t total = 0;
  for (int i = 0; i < kBuckets; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  if (total == 0) return 0.0;
  // Nearest-rank index of the old sort-based path, walked over cumulative
  // bucket counts. The sample at this rank lies inside the matched bucket,
  // so interpolating within it keeps the estimate within one bucket width.
  const double rank = q * static_cast<double>(total - 1);
  std::uint64_t cum = 0;
  for (int i = 0; i < kBuckets; ++i) {
    if (counts[i] == 0) continue;
    if (rank < static_cast<double>(cum + counts[i])) {
      const double lo = bucket_lo(i);
      const double hi = bucket_hi(i);
      const double within =
          (rank - static_cast<double>(cum) + 0.5) / static_cast<double>(counts[i]);
      return lo + (hi - lo) * std::min(within, 1.0);
    }
    cum += counts[i];
  }
  return bucket_hi(kBuckets - 1);  // unreachable: rank < total by construction
}

double Histogram::approx_mean() const {
  double sum = 0;
  std::uint64_t total = 0;
  for (int i = 0; i < kBuckets; ++i) {
    const std::uint64_t c = buckets_[i].load(std::memory_order_relaxed);
    if (c == 0) continue;
    sum += static_cast<double>(c) * 0.5 * (bucket_lo(i) + bucket_hi(i));
    total += c;
  }
  return total == 0 ? 0.0 : sum / static_cast<double>(total);
}

double Histogram::approx_max() const {
  for (int i = kBuckets - 1; i >= 0; --i) {
    if (buckets_[i].load(std::memory_order_relaxed) != 0) return bucket_hi(i);
  }
  return 0.0;
}

Counter& counter(std::string_view name) {
  Registry& r = registry();
  std::lock_guard lock(r.mu);
  return get_or_create(r.counters, name);
}

Gauge& gauge(std::string_view name) {
  Registry& r = registry();
  std::lock_guard lock(r.mu);
  return get_or_create(r.gauges, name);
}

Histogram& histogram(std::string_view name) {
  Registry& r = registry();
  std::lock_guard lock(r.mu);
  return get_or_create(r.histograms, name);
}

const CounterSnap* MetricsSnapshot::find_counter(std::string_view name) const {
  for (const auto& c : counters) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

const GaugeSnap* MetricsSnapshot::find_gauge(std::string_view name) const {
  for (const auto& g : gauges) {
    if (g.name == name) return &g;
  }
  return nullptr;
}

const HistogramSnap* MetricsSnapshot::find_histogram(std::string_view name) const {
  for (const auto& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

std::string MetricsSnapshot::to_text() const {
  std::string out;
  for (const auto& c : counters) {
    out += "counter " + c.name + " " + std::to_string(c.value) + "\n";
  }
  for (const auto& g : gauges) {
    out += "gauge " + g.name + " " + fmt_double(g.value) + "\n";
  }
  for (const auto& h : histograms) {
    out += "histogram " + h.name + " count=" + std::to_string(h.count) +
           " p50=" + fmt_double(h.p50) + " p90=" + fmt_double(h.p90) +
           " p99=" + fmt_double(h.p99) + " mean=" + fmt_double(h.mean) +
           " max=" + fmt_double(h.max) + "\n";
  }
  return out;
}

std::string MetricsSnapshot::to_json() const {
  std::string out = "{\n  \"counters\": {";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    out += (i ? ", " : "") + ("\"" + counters[i].name + "\": ") +
           std::to_string(counters[i].value);
  }
  out += "},\n  \"gauges\": {";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    out += (i ? ", " : "") + ("\"" + gauges[i].name + "\": ") +
           fmt_double(gauges[i].value);
  }
  out += "},\n  \"histograms\": {";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    const auto& h = histograms[i];
    out += (i ? ",\n    " : "\n    ") + ("\"" + h.name + "\": ") +
           "{\"count\": " + std::to_string(h.count) +
           ", \"p50\": " + fmt_double(h.p50) + ", \"p90\": " + fmt_double(h.p90) +
           ", \"p99\": " + fmt_double(h.p99) + ", \"mean\": " + fmt_double(h.mean) +
           ", \"max\": " + fmt_double(h.max) + "}";
  }
  out += histograms.empty() ? "}\n}\n" : "\n  }\n}\n";
  return out;
}

MetricsSnapshot snapshot() {
  // Process gauges, read at snapshot time so ADEPT_METRICS_FILE shows memory
  // churn without an outside wrapper.
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    gauge("proc.minor_faults").set(static_cast<double>(ru.ru_minflt));
    gauge("proc.major_faults").set(static_cast<double>(ru.ru_majflt));
    gauge("proc.max_rss_kb").set(static_cast<double>(ru.ru_maxrss));
  }
  MetricsSnapshot s;
  Registry& r = registry();
  std::lock_guard lock(r.mu);
  s.counters.reserve(r.counters.size());
  for (const auto& [name, c] : r.counters) {
    s.counters.push_back({name, c->value()});
  }
  s.gauges.reserve(r.gauges.size());
  for (const auto& [name, g] : r.gauges) {
    s.gauges.push_back({name, g->value()});
  }
  s.histograms.reserve(r.histograms.size());
  for (const auto& [name, h] : r.histograms) {
    HistogramSnap hs;
    hs.name = name;
    fill_hist(hs, *h);
    s.histograms.push_back(std::move(hs));
  }
  return s;
}

bool dump_metrics(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << snapshot().to_json();
  out.flush();
  return static_cast<bool>(out);
}

namespace {

// ADEPT_METRICS_FILE activation: registered from a namespace-scope static
// in this TU (kept by the linker because every instrumented module
// references the registry). The path is leaked so the atexit handler never
// races static destruction.
struct MetricsEnvInit {
  MetricsEnvInit() {
    std::string p = env_string("ADEPT_METRICS_FILE", "");
    if (p.empty()) return;
    static const std::string* path = new std::string(std::move(p));
    std::atexit([] {
      if (!dump_metrics(*path)) {
        std::fprintf(stderr, "adept::obs: cannot write ADEPT_METRICS_FILE=%s\n",
                     path->c_str());
      }
    });
  }
} g_metrics_env_init;

}  // namespace

}  // namespace adept::obs
