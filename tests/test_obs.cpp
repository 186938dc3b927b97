// src/obs telemetry: metrics registry correctness (including the histogram
// quantile error bound against an exact sort), tracing well-formedness, and
// the two fast-path guarantees — recording is data-race-free (the Obs*
// suites run under the TSan CI leg) and a disarmed TraceSpan touches
// nothing but one atomic flag.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/mman.h>
#include <unistd.h>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace obs = adept::obs;

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::size_t count_occurrences(const std::string& hay, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

}  // namespace

TEST(ObsMetrics, CounterAndGaugeBasics) {
  obs::Counter& c = obs::counter("test.obs.basic_counter");
  const std::uint64_t before = c.value();
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), before + 42);
  // Same name -> same instrument; string_view lookup does not copy-confuse.
  EXPECT_EQ(&obs::counter("test.obs.basic_counter"), &c);

  obs::Gauge& g = obs::gauge("test.obs.basic_gauge");
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.set(-1.25);  // last write wins, negatives allowed
  EXPECT_DOUBLE_EQ(g.value(), -1.25);
}

TEST(ObsMetrics, HistogramSmallValuesAreExact) {
  obs::Histogram& h = obs::histogram("test.obs.hist_small");
  // Values below 16 land in unit-width buckets: quantiles are exact up to
  // the +/- 1 interpolation inside the unit bucket.
  for (int v = 0; v < 16; ++v) {
    for (int rep = 0; rep < 10; ++rep) h.record(v);
  }
  EXPECT_EQ(h.count(), 160u);
  EXPECT_NEAR(h.quantile(0.0), 0.0, 1.0);
  EXPECT_NEAR(h.quantile(0.5), 7.5, 1.0);
  EXPECT_NEAR(h.quantile(1.0), 15.0, 1.0);
  EXPECT_DOUBLE_EQ(h.approx_max(), 16.0);  // top occupied bucket's edge
}

TEST(ObsMetrics, HistogramQuantileErrorBoundVsExactSort) {
  obs::Histogram& h = obs::histogram("test.obs.hist_bound");
  // Samples spanning six decades, the shape of a latency distribution.
  std::mt19937_64 rng(7);
  std::lognormal_distribution<double> dist(/*m=*/8.0, /*s=*/2.0);
  std::vector<std::int64_t> exact;
  for (int i = 0; i < 20000; ++i) {
    const auto v = static_cast<std::int64_t>(dist(rng));
    exact.push_back(v);
    h.record(v);
  }
  std::sort(exact.begin(), exact.end());
  ASSERT_EQ(h.count(), exact.size());
  for (double q : {0.0, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    const double rank = q * static_cast<double>(exact.size() - 1);
    const double ref = static_cast<double>(
        exact[static_cast<std::size_t>(rank)]);  // nearest-rank sample
    const double est = h.quantile(q);
    // The nearest-rank sample lies inside the matched bucket, so the
    // interpolated estimate is within one bucket width: <= 1 for values
    // under 16, <= 2^-4 relative above (the documented 6.25% bound).
    EXPECT_NEAR(est, ref, std::max(1.0, 0.0625 * ref) + 1e-9)
        << "q=" << q;
  }
  // mean/max carry the same per-bucket bound.
  double sum = 0;
  for (std::int64_t v : exact) sum += static_cast<double>(v);
  const double exact_mean = sum / static_cast<double>(exact.size());
  EXPECT_NEAR(h.approx_mean(), exact_mean, 0.0625 * exact_mean + 1.0);
  const double exact_max = static_cast<double>(exact.back());
  EXPECT_GE(h.approx_max(), exact_max);
  EXPECT_LE(h.approx_max(), exact_max * 1.0626 + 1.0);
}

TEST(ObsMetrics, HistogramBucketGeometry) {
  // Every bucket index round-trips: a value maps to a bucket whose
  // [lo, hi) range contains it.
  for (std::int64_t v : {0LL, 1LL, 15LL, 16LL, 17LL, 255LL, 1000LL,
                         123456789LL, (1LL << 40) + 12345LL}) {
    const int idx = obs::Histogram::bucket_index(v);
    EXPECT_GE(static_cast<double>(v), obs::Histogram::bucket_lo(idx)) << v;
    EXPECT_LT(static_cast<double>(v), obs::Histogram::bucket_hi(idx)) << v;
  }
  EXPECT_EQ(obs::Histogram::bucket_index(-5), 0);  // negatives clamp to 0
}

TEST(ObsMetrics, MultiThreadRecordingIsExact) {
  obs::Counter& c = obs::counter("test.obs.mt_counter");
  obs::Histogram& h = obs::histogram("test.obs.mt_hist");
  const std::uint64_t c0 = c.value();
  const std::uint64_t h0 = h.count();
  constexpr int kThreads = 4;
  constexpr int kPer = 25000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPer; ++i) {
        c.inc();
        h.record(t * 1000 + i);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), c0 + kThreads * kPer);
  EXPECT_EQ(h.count(), h0 + kThreads * kPer);
}

TEST(ObsMetrics, SnapshotFindsAndRenders) {
  obs::counter("test.obs.snap_counter").inc(7);
  obs::gauge("test.obs.snap_gauge").set(0.5);
  obs::histogram("test.obs.snap_hist").record(100);

  const obs::MetricsSnapshot snap = obs::snapshot();
  const auto* c = snap.find_counter("test.obs.snap_counter");
  ASSERT_NE(c, nullptr);
  EXPECT_GE(c->value, 7u);
  const auto* g = snap.find_gauge("test.obs.snap_gauge");
  ASSERT_NE(g, nullptr);
  EXPECT_DOUBLE_EQ(g->value, 0.5);
  const auto* hs = snap.find_histogram("test.obs.snap_hist");
  ASSERT_NE(hs, nullptr);
  EXPECT_GE(hs->count, 1u);
  EXPECT_EQ(snap.find_counter("test.obs.does_not_exist"), nullptr);

  const std::string text = snap.to_text();
  EXPECT_NE(text.find("counter test.obs.snap_counter"), std::string::npos);
  EXPECT_NE(text.find("histogram test.obs.snap_hist count="), std::string::npos);
  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"test.obs.snap_gauge\": 0.5"), std::string::npos);
}

TEST(ObsMetrics, ProcessGaugesSeeFreshPageFaults) {
  const auto minor_faults = [] {
    const obs::MetricsSnapshot snap = obs::snapshot();
    const auto* g = snap.find_gauge("proc.minor_faults");
    EXPECT_NE(g, nullptr);
    EXPECT_NE(snap.find_gauge("proc.major_faults"), nullptr);
    const auto* rss = snap.find_gauge("proc.max_rss_kb");
    EXPECT_NE(rss, nullptr);
    if (rss != nullptr) EXPECT_GT(rss->value, 0.0);
    return g != nullptr ? g->value : 0.0;
  };
  // Fresh anonymous pages, kept at base page size, fault once each when
  // first written.
  constexpr std::size_t kBytes = 4u << 20;
  const double before = minor_faults();
  void* p = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                 -1, 0);
  ASSERT_NE(p, MAP_FAILED);
  madvise(p, kBytes, MADV_NOHUGEPAGE);
  std::memset(p, 1, kBytes);
  const double after = minor_faults();
  munmap(p, kBytes);
  const auto pages = kBytes / static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  EXPECT_GE(after - before, static_cast<double>(pages) / 2);
}

TEST(ObsMetrics, DumpMetricsWritesValidJsonShape) {
  obs::counter("test.obs.dump_counter").inc();
  const std::string path = ::testing::TempDir() + "adept_metrics_dump.json";
  ASSERT_TRUE(obs::dump_metrics(path));
  const std::string json = read_file(path);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"test.obs.dump_counter\""), std::string::npos);
  std::remove(path.c_str());
  EXPECT_FALSE(obs::dump_metrics("/nonexistent-dir/metrics.json"));
}

TEST(ObsTrace, DisarmedSpanTouchesNothing) {
  obs::trace_stop();
  // Force this thread's ring into existence first so the baseline below
  // measures only what the disarmed path creates.
  obs::trace_start();
  { obs::TraceSpan warm(obs::intern_name("test.obs.warm")); }
  obs::trace_stop();
  obs::trace_clear_for_testing();

  const std::size_t rings_before = obs::trace_thread_count();
  const std::size_t events_before = obs::trace_event_count();
  std::thread t([] {
    const obs::TraceId id = obs::intern_name("test.obs.disarmed");
    for (int i = 0; i < 1000; ++i) {
      obs::TraceSpan span(id);
    }
  });
  t.join();
  // Disarmed spans record nothing AND never create the thread's ring —
  // the entire fast path is the one relaxed load of the armed flag.
  EXPECT_EQ(obs::trace_thread_count(), rings_before);
  EXPECT_EQ(obs::trace_event_count(), events_before);
}

TEST(ObsTrace, WriteTraceEmitsWellFormedChromeJson) {
  obs::trace_clear_for_testing();
  obs::trace_start();
  const obs::TraceId outer = obs::intern_name("test.obs.outer");
  const obs::TraceId inner = obs::intern_name("test.obs.inner \"quoted\"");
  {
    obs::TraceSpan a(outer);
    {
      obs::TraceSpan b(inner);
    }
  }
  std::thread t([&] {
    obs::TraceSpan c(outer);
  });
  t.join();
  obs::trace_stop();

  const std::string path = ::testing::TempDir() + "adept_trace_test.json";
  ASSERT_TRUE(obs::write_trace(path));
  const std::string json = read_file(path);
  std::remove(path.c_str());

  EXPECT_NE(json.find("\"displayTimeUnit\": \"ns\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\": ["), std::string::npos);
  EXPECT_GE(count_occurrences(json, "\"ph\": \"X\""), 3u);
  EXPECT_EQ(count_occurrences(json, "\"name\": \"test.obs.outer\""), 2u);
  // Quotes in span names are escaped, never emitted raw.
  EXPECT_NE(json.find("test.obs.inner \\\"quoted\\\""), std::string::npos);
  // Two distinct tids: this thread and the helper thread.
  EXPECT_NE(json.find("\"tid\": "), std::string::npos);
  // Balanced object: ends with the closed array + object.
  EXPECT_NE(json.find("\n]}"), std::string::npos);
}

TEST(ObsTrace, EventCountAndRingWrap) {
  obs::trace_clear_for_testing();
  obs::trace_start();
  const obs::TraceId id = obs::intern_name("test.obs.wrap");
  const std::size_t before = obs::trace_event_count();
  const std::uint64_t now = obs::trace_now_ns();
  for (int i = 0; i < 100; ++i) obs::trace_event(id, now, 1);
  EXPECT_EQ(obs::trace_event_count(), before + 100);
  obs::trace_stop();
  // Recording while stopped is a no-op.
  obs::trace_event(id, now, 1);
  EXPECT_EQ(obs::trace_event_count(), before + 100);
  obs::trace_clear_for_testing();
  EXPECT_EQ(obs::trace_event_count(), 0u);
}

TEST(ObsTrace, BufferCapacityClampsEnv) {
  const int def = obs::trace_buffer_capacity();
  EXPECT_EQ(def, 65536);  // ADEPT_TRACE_BUF unset in the test environment
  ::setenv("ADEPT_TRACE_BUF", "1", 1);
  EXPECT_EQ(obs::trace_buffer_capacity(), 4096);
  ::setenv("ADEPT_TRACE_BUF", "999999999", 1);
  EXPECT_EQ(obs::trace_buffer_capacity(), 4194304);
  ::setenv("ADEPT_TRACE_BUF", "not-a-number", 1);
  EXPECT_EQ(obs::trace_buffer_capacity(), 65536);
  ::unsetenv("ADEPT_TRACE_BUF");
  EXPECT_EQ(obs::trace_buffer_capacity(), 65536);
}

TEST(ObsTrace, InternNameIsIdempotent) {
  const obs::TraceId a = obs::intern_name("test.obs.intern");
  const obs::TraceId b = obs::intern_name("test.obs.intern");
  const obs::TraceId c = obs::intern_name("test.obs.intern2");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, 0u);  // 0 is the reserved "(unnamed)" id
}
