#include "util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <thread>

#include <sys/resource.h>
#include <unistd.h>

#include "backend/dispatch.h"
#include "backend/parallel.h"

namespace perfbench {

namespace {

std::string fmt_number(double v, int digits) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.*g", digits, v);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// Stolen CPU seconds summed over all CPUs since boot: the 8th number of the
// "cpu" line of /proc/stat, in clock ticks.
double steal_seconds() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  double field = 0;
  int fields = 0;
  while (fields < 8 && stat >> field) ++fields;
  const long ticks = sysconf(_SC_CLK_TCK);
  if (cpu != "cpu" || fields < 8 || ticks <= 0) return 0.0;
  return field / static_cast<double>(ticks);
}

}  // namespace

void SpanRecorder::record(const char* name, Clock::time_point start,
                          Clock::time_point end) {
  if (!enabled_) return;
  const auto tid = static_cast<std::uint64_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xffffff);
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back({name, tid, start, end});
}

std::size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

bool SpanRecorder::write_chrome_trace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  Clock::time_point t0 = events_.empty() ? Clock::time_point{} : events_[0].start;
  for (const auto& e : events_) t0 = std::min(t0, e.start);
  out << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const auto& e = events_[i];
    const double ts = std::chrono::duration<double, std::micro>(e.start - t0).count();
    const double dur = std::chrono::duration<double, std::micro>(e.end - e.start).count();
    out << "{\"name\": " << quote(e.name) << ", \"ph\": \"X\", \"pid\": 1, \"tid\": "
        << e.tid << ", \"ts\": " << fmt_number(ts, 15)
        << ", \"dur\": " << fmt_number(dur, 15) << "}"
        << (i + 1 < events_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  out.flush();
  return static_cast<bool>(out);
}

JsonObject& JsonObject::num(const std::string& key, double v) {
  fields_.emplace_back(key, fmt_number(v, 17));
  return *this;
}

JsonObject& JsonObject::str(const std::string& key, const std::string& v) {
  fields_.emplace_back(key, quote(v));
  return *this;
}

JsonObject& JsonObject::arr(const std::string& key, const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) s += ",";
    s += fmt_number(v[i], 7);
  }
  fields_.emplace_back(key, s + "]");
  return *this;
}

JsonObject& JsonObject::obj(const std::string& key, const JsonObject& v) {
  fields_.emplace_back(key, v.dump());
  return *this;
}

JsonObject& JsonObject::objs(const std::string& key,
                             const std::vector<JsonObject>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) s += ",\n";
    s += v[i].dump();
  }
  fields_.emplace_back(key, s + "]");
  return *this;
}

std::string JsonObject::dump() const {
  std::string s = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) s += ", ";
    s += quote(fields_[i].first) + ": " + fields_[i].second;
  }
  return s + "}";
}

JsonObject OpCounts::to_json() const {
  JsonObject why;
  for (const auto& [reason, n] : reasons) why.num(reason, static_cast<double>(n));
  JsonObject o;
  o.num("attempted", static_cast<double>(attempted))
      .num("failed", static_cast<double>(failed))
      .obj("reasons", why);
  return o;
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

StealMeter::StealMeter() : steal_s_(steal_seconds()), start_(Clock::now()) {}

double StealMeter::share() const {
  const double cpus = std::max(1u, std::thread::hardware_concurrency());
  const double elapsed = seconds_between(start_, Clock::now());
  return elapsed > 0 ? (steal_seconds() - steal_s_) / (elapsed * cpus) : 0.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

JsonObject fingerprint(int ranks, int server_workers) {
  namespace be = adept::backend;
  JsonObject o;
  o.num("cores", static_cast<double>(std::thread::hardware_concurrency()))
      .str("simd", be::simd_level_name(be::simd_level()))
      .num("kernel_threads", static_cast<double>(be::num_threads()))
      .num("ranks", static_cast<double>(ranks))
      .num("server_workers", static_cast<double>(server_workers))
      .str("build_type", PERFBENCH_BUILD_TYPE);
  return o;
}

}  // namespace perfbench
