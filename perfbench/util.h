// Shared plumbing of the benchmark harness: clock, in-memory span recorder,
// a small JSON writer for the raw result, and process peak RSS.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Spans the benchmark records around its own calls into each layer. Kept in
// memory and written at the end as a Chrome trace_event file (the format
// tools/trace_summary.py reads). Disabled recorders ignore every call.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  void record(const char* name, Clock::time_point start, Clock::time_point end);
  bool write_chrome_trace(const std::string& path) const;
  std::size_t size() const;

 private:
  struct Event {
    const char* name;
    std::uint64_t tid;
    Clock::time_point start;
    Clock::time_point end;
  };
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Event> events_;  // guarded by mu_
};

// RAII span on a recorder; free when the recorder is disabled.
class Span {
 public:
  Span(SpanRecorder& rec, const char* name) : rec_(rec), name_(name) {
    if (rec_.enabled()) start_ = Clock::now();
  }
  ~Span() {
    if (rec_.enabled()) rec_.record(name_, start_, Clock::now());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecorder& rec_;
  const char* name_;
  Clock::time_point start_{};
};

// Builds one JSON object. Values are written with full precision; sample
// arrays are written with 7 significant digits.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v);
  JsonObject& str(const std::string& key, const std::string& v);
  JsonObject& arr(const std::string& key, const std::vector<double>& v);
  JsonObject& obj(const std::string& key, const JsonObject& v);
  JsonObject& objs(const std::string& key, const std::vector<JsonObject>& v);
  std::string dump() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

// Operation bookkeeping behind `attempted`/`failed`: every failure is
// counted under a short reason so the report can say what went wrong.
struct OpCounts {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::uint64_t> reasons;

  void ok() { ++attempted; }
  void fail(const std::string& reason) {
    ++attempted;
    ++failed;
    ++reasons[reason];
  }
  // A check on an operation already counted as attempted.
  void check(bool good, const std::string& reason) {
    if (!good) {
      ++failed;
      ++reasons[reason];
    }
  }
  void merge(const OpCounts& other) {
    attempted += other.attempted;
    failed += other.failed;
    for (const auto& [reason, n] : other.reasons) reasons[reason] += n;
  }
  JsonObject to_json() const;
};

double peak_rss_mb();

// Share of the machine's CPU time the hypervisor gave to other guests (the
// steal column of /proc/stat) between construction and share(); 0 where the
// kernel reports no steal. The metrics leave out timed units during which
// the host took a large share (perfbench/stats.py).
class StealMeter {
 public:
  StealMeter();
  double share() const;

 private:
  double steal_s_;
  Clock::time_point start_;
};

// Median of a copy (0 for an empty input).
double median(std::vector<double> v);

// splitmix64 finalizer: derives independent seeds from the run seed.
inline std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Raw inputs of one run, as parsed from the command line.
struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;  // time the set-up repetitions and stop
  std::string out_path;    // raw result JSON
  std::string trace_path;  // Chrome trace (traced runs)
  std::string work_dir;    // scratch files (checkpoints)
};

// The runner fingerprint every result carries.
JsonObject fingerprint(int ranks, int server_workers);

}  // namespace perfbench
