// Tests for the src/obs/ observability subsystem: histogram bucket geometry
// and quantile accuracy vs an exact sort, counter/gauge concurrency, the
// registry's canonical keys / kind checks / JSON round-trip, trace JSON
// well-formedness and span nesting, kernel profiling counters, and the
// disabled-path overhead contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <numeric>
#include <random>
#include <thread>
#include <vector>

#include "ber.h"

namespace {

using namespace ber;
using obs::Histogram;

// Serialize-then-reparse exercises the exporter and the dump in one go.
std::string trace_json_text() { return obs::trace_json().dump(2); }

// ----------------------------------------------------- bucket geometry ---

TEST(ObsHistogram, BucketBoundariesConsistent) {
  // Every bucket's lower bound must map back to its own index, and the
  // value just below the (exclusive) upper bound must too.
  for (std::size_t idx = 0; idx < 1500; ++idx) {
    const std::uint64_t lo = Histogram::bucket_lower(idx);
    const std::uint64_t hi = Histogram::bucket_upper(idx);
    ASSERT_LT(lo, hi) << "idx=" << idx;
    EXPECT_EQ(Histogram::bucket_index(lo), idx) << "lo=" << lo;
    EXPECT_EQ(Histogram::bucket_index(hi - 1), idx) << "hi=" << hi;
  }
}

TEST(ObsHistogram, BucketIndexMonotone) {
  std::uint64_t prev_idx = 0;
  for (std::uint64_t v = 0; v < (1u << 14); ++v) {
    const std::size_t idx = Histogram::bucket_index(v);
    EXPECT_GE(idx, prev_idx) << "v=" << v;
    prev_idx = idx;
  }
  // Spot checks: values below kSub land in exact unit buckets.
  EXPECT_EQ(Histogram::bucket_index(0), 0u);
  EXPECT_EQ(Histogram::bucket_index(static_cast<std::uint64_t>(
                Histogram::kSub - 1)),
            static_cast<std::size_t>(Histogram::kSub - 1));
  // Relative bucket width above the linear range is at most 1/kSub.
  for (std::size_t idx = Histogram::kSub; idx < 1500; ++idx) {
    const double lo = static_cast<double>(Histogram::bucket_lower(idx));
    const double hi = static_cast<double>(Histogram::bucket_upper(idx));
    EXPECT_LE((hi - lo) / lo, 1.0 / Histogram::kSub + 1e-12) << "idx=" << idx;
  }
}

TEST(ObsHistogram, ExtremeValues) {
  Histogram h;
  h.record(0.0);
  h.record(-5.0);  // clamps to 0
  h.record(1e18);
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.max, 1e18);
  EXPECT_EQ(h.snapshot().quantile(0.0), 0.0);
}

// -------------------------------------------- quantiles vs exact sort ---

TEST(ObsHistogram, QuantileAccuracyVsExactSort) {
  std::mt19937 rng(7);
  std::lognormal_distribution<double> dist(6.0, 1.5);  // latency-shaped
  Histogram h;
  std::vector<double> samples;
  samples.reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    const double v = std::round(dist(rng));
    samples.push_back(v);
    h.record(v);
  }
  std::sort(samples.begin(), samples.end());
  const Histogram::Snapshot s = h.snapshot();
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    const double exact =
        samples[static_cast<std::size_t>(q * (samples.size() - 1))];
    const double approx = s.quantile(q);
    // Bucket width is <= ~3.2%; allow 5% for interpolation + rank effects.
    EXPECT_NEAR(approx, exact, 0.05 * exact) << "q=" << q;
  }
  EXPECT_NEAR(s.mean(),
              std::accumulate(samples.begin(), samples.end(), 0.0) /
                  static_cast<double>(samples.size()),
              1e-6);
}

TEST(ObsHistogram, SnapshotDeltaIsolatesWindow) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.record(10.0);
  const Histogram::Snapshot before = h.snapshot();
  for (int i = 0; i < 50; ++i) h.record(1000.0);
  const Histogram::Snapshot delta = h.snapshot() - before;
  EXPECT_EQ(delta.count, 50u);
  EXPECT_DOUBLE_EQ(delta.sum, 50 * 1000.0);
  // The window's p50 sees only the new samples.
  EXPECT_NEAR(delta.quantile(0.5), 1000.0, 0.05 * 1000.0);
}

// ----------------------------------------------------------- concurrency ---

TEST(ObsConcurrency, CountersAndGaugesExactUnderContention) {
  obs::Counter c;
  obs::Gauge g;
  Histogram h;
  constexpr int kThreads = 8, kPer = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPer; ++i) {
        c.add(1);
        g.add(1.0);
        g.set_max(static_cast<double>(t * kPer + i));
        h.record(static_cast<double>(i % 1024));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPer);
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, static_cast<std::uint64_t>(kThreads) * kPer);
}

TEST(ObsConcurrency, RegistrationRacesWithHeldHandles) {
  // Users each register one counter and then only touch the handle they
  // hold; registrars keep growing the registry afterwards, so its entry
  // table reallocates under them. Under TSan, any registry read that
  // escapes the lock races with those reallocations. The start gate is a
  // relaxed atomic on purpose: it orders the phases in time without
  // creating the happens-before edge that would hide such a race.
  obs::Registry reg;
  constexpr int kRegistrars = 4, kUsers = 4, kKeys = 300, kAdds = 20000;
  std::atomic<int> users_registered{0};
  std::vector<obs::Counter*> held(kUsers, nullptr);
  std::vector<std::thread> threads;
  for (int u = 0; u < kUsers; ++u) {
    threads.emplace_back([&, u] {
      obs::Counter& c = reg.counter("held", {{"user", std::to_string(u)}});
      held[static_cast<std::size_t>(u)] = &c;
      users_registered.fetch_add(1, std::memory_order_relaxed);
      for (int i = 0; i < kAdds; ++i) c.add(1);
    });
  }
  for (int r = 0; r < kRegistrars; ++r) {
    threads.emplace_back([&, r] {
      while (users_registered.load(std::memory_order_relaxed) < kUsers) {
        std::this_thread::yield();
      }
      for (int k = 0; k < kKeys; ++k) {
        const obs::Labels labels = {{"r", std::to_string(r)},
                                    {"k", std::to_string(k)}};
        switch (k % 3) {
          case 0: {
            obs::Counter& c = reg.counter("reg.counter", labels);
            c.add(1);
            EXPECT_EQ(&reg.counter("reg.counter", labels), &c);
            break;
          }
          case 1: {
            obs::Gauge& g = reg.gauge("reg.gauge", labels);
            g.set(static_cast<double>(k));
            EXPECT_EQ(&reg.gauge("reg.gauge", labels), &g);
            break;
          }
          default: {
            obs::Histogram& h = reg.histogram("reg.histogram", labels);
            h.record(static_cast<double>(k));
            EXPECT_EQ(&reg.histogram("reg.histogram", labels), &h);
            break;
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  for (int u = 0; u < kUsers; ++u) {
    EXPECT_EQ(held[static_cast<std::size_t>(u)],
              &reg.counter("held", {{"user", std::to_string(u)}}));
    EXPECT_EQ(held[static_cast<std::size_t>(u)]->value(),
              static_cast<std::uint64_t>(kAdds));
  }
  const Json snap = reg.to_json();
  EXPECT_EQ(snap.at("counters").size(),
            static_cast<std::size_t>(kUsers + kRegistrars * (kKeys / 3)));
  EXPECT_EQ(snap.at("gauges").size(),
            static_cast<std::size_t>(kRegistrars * (kKeys / 3)));
  EXPECT_EQ(snap.at("histograms").size(),
            static_cast<std::size_t>(kRegistrars * (kKeys / 3)));
}

TEST(ObsGauge, SetMaxIsMonotone) {
  obs::Gauge g;
  g.set_max(5.0);
  g.set_max(3.0);
  EXPECT_DOUBLE_EQ(g.value(), 5.0);
  g.set_max(9.0);
  EXPECT_DOUBLE_EQ(g.value(), 9.0);
  g.set(1.0);  // plain set is not monotone
  EXPECT_DOUBLE_EQ(g.value(), 1.0);
}

// -------------------------------------------------------------- registry ---

TEST(ObsRegistry, CanonicalKeysAndStableHandles) {
  EXPECT_EQ(obs::metric_key("m", {}), "m");
  // Labels sort by key regardless of call-site order.
  EXPECT_EQ(obs::metric_key("m", {{"b", "2"}, {"a", "1"}}),
            "m{a=\"1\",b=\"2\"}");
  obs::Counter& c1 =
      obs::registry().counter("test_obs.stable", {{"x", "1"}, {"y", "2"}});
  obs::Counter& c2 =
      obs::registry().counter("test_obs.stable", {{"y", "2"}, {"x", "1"}});
  EXPECT_EQ(&c1, &c2);
  // Same key as a different kind must throw, not alias.
  EXPECT_THROW(
      obs::registry().gauge("test_obs.stable", {{"x", "1"}, {"y", "2"}}),
      std::invalid_argument);
}

TEST(ObsRegistry, SnapshotRoundTripsThroughJson) {
  obs::registry().counter("test_obs.rt_counter").add(42);
  obs::registry().gauge("test_obs.rt_gauge").set(2.5);
  obs::Histogram& h =
      obs::registry().histogram("test_obs.rt_hist", {{"k", "v"}});
  for (int i = 1; i <= 100; ++i) h.record(static_cast<double>(i));

  const Json snap = obs::registry().to_json();
  ASSERT_TRUE(snap.is_object());
  const Json reparsed = Json::parse(snap.dump(2));
  EXPECT_EQ(reparsed, snap);

  EXPECT_EQ(snap.at("counters").at("test_obs.rt_counter").as_int(), 42);
  EXPECT_DOUBLE_EQ(snap.at("gauges").at("test_obs.rt_gauge").as_number(), 2.5);
  const Json& hj = snap.at("histograms").at("test_obs.rt_hist{k=\"v\"}");
  EXPECT_EQ(hj.at("count").as_int(), 100);
  EXPECT_GT(hj.at("p99").as_number(), hj.at("p50").as_number());

  // Prometheus exposition mentions the instruments too.
  const std::string prom = obs::registry().to_prometheus();
  EXPECT_NE(prom.find("test_obs_rt_counter"), std::string::npos);
  EXPECT_NE(prom.find("quantile=\"0.99\""), std::string::npos);
}

TEST(ObsRegistry, ResetZeroesValuesKeepsHandles) {
  obs::Counter& c = obs::registry().counter("test_obs.reset_me");
  c.add(7);
  obs::registry().reset();
  EXPECT_EQ(c.value(), 0u);
  c.add(3);  // handle still live
  EXPECT_EQ(c.value(), 3u);
}

// ---------------------------------------------------------------- tracing ---

TEST(ObsTrace, SpansNestAndExportWellFormedJson) {
  obs::start_tracing();
  obs::set_thread_name("test-main");
  {
    BER_TRACE_SCOPE_ARGS("testcat", "outer", {"n", 3});
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    {
      BER_TRACE_SCOPE("testcat", "inner");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    BER_TRACE_INSTANT("othercat", "marker", {"note", "hi"});
  }
  obs::stop_tracing();

  const Json trace = Json::parse(trace_json_text());
  ASSERT_TRUE(trace.is_object());
  const Json& events = trace.at("traceEvents");
  ASSERT_TRUE(events.is_array());

  const Json *outer = nullptr, *inner = nullptr, *marker = nullptr;
  int categories_seen = 0;
  std::vector<std::string> cats;
  for (const Json& ev : events.items()) {
    ASSERT_TRUE(ev.contains("ph"));
    ASSERT_TRUE(ev.contains("ts"));
    const std::string name = ev.at("name").as_string();
    if (name == "outer") outer = &ev;
    if (name == "inner") inner = &ev;
    if (name == "marker") marker = &ev;
    if (ev.contains("cat")) {
      const std::string c = ev.at("cat").as_string();
      if (std::find(cats.begin(), cats.end(), c) == cats.end()) {
        cats.push_back(c);
        ++categories_seen;
      }
    }
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(marker, nullptr);
  EXPECT_GE(categories_seen, 2);

  // Nesting: inner lies strictly within [outer.ts, outer.ts + outer.dur],
  // and both ran on the same (named) thread.
  EXPECT_EQ(outer->at("ph").as_string(), "X");
  EXPECT_EQ(inner->at("ph").as_string(), "X");
  EXPECT_EQ(marker->at("ph").as_string(), "i");
  const double o_ts = outer->at("ts").as_number();
  const double o_dur = outer->at("dur").as_number();
  const double i_ts = inner->at("ts").as_number();
  const double i_dur = inner->at("dur").as_number();
  EXPECT_GE(i_ts, o_ts);
  EXPECT_LE(i_ts + i_dur, o_ts + o_dur + 1.0);  // 1us serialization slack
  EXPECT_EQ(outer->at("tid").as_int(), inner->at("tid").as_int());
  EXPECT_EQ(outer->at("args").at("n").as_number(), 3.0);
  EXPECT_EQ(marker->at("args").at("note").as_string(), "hi");
}

TEST(ObsTrace, StartTracingClearsPriorEvents) {
  obs::start_tracing();
  { BER_TRACE_SCOPE("testcat", "stale"); }
  obs::start_tracing();  // re-base: the stale span must vanish
  { BER_TRACE_SCOPE("testcat", "fresh"); }
  obs::stop_tracing();
  const std::string text = trace_json_text();
  EXPECT_EQ(text.find("\"stale\""), std::string::npos);
  EXPECT_NE(text.find("\"fresh\""), std::string::npos);
}

TEST(ObsTrace, DisabledPathRecordsNothing) {
  ASSERT_FALSE(obs::tracing_enabled());
  { BER_TRACE_SCOPE("testcat", "ghost"); }
  obs::start_tracing();
  obs::stop_tracing();
  EXPECT_EQ(trace_json_text().find("ghost"), std::string::npos);
}

// Disabled tracing must cost ~a relaxed load per scope. This is a smoke
// bound, deliberately generous (3x a bare loop) to stay robust on loaded CI
// machines; the real contract is "no measurable overhead at call sites".
TEST(ObsTrace, DisabledPathOverheadSmoke) {
  ASSERT_FALSE(obs::tracing_enabled());
  constexpr int kIters = 2000000;
  volatile long sink = 0;

  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kIters; ++i) sink = sink + i;
  const auto t1 = std::chrono::steady_clock::now();
  for (int i = 0; i < kIters; ++i) {
    BER_TRACE_SCOPE("testcat", "off");
    sink = sink + i;
  }
  const auto t2 = std::chrono::steady_clock::now();

  const double plain = std::chrono::duration<double>(t1 - t0).count();
  const double traced = std::chrono::duration<double>(t2 - t1).count();
  EXPECT_LT(traced, std::max(3.0 * plain, plain + 0.05))
      << "plain=" << plain << "s traced=" << traced << "s";
}

// ------------------------------------------------------- kernel counters ---

TEST(ObsKernels, ReferenceGemmCountsCallsAndFlops) {
  const kernels::Backend& bk = kernels::backend("reference");
  obs::KernelStats& ks = bk.kstats();
  const std::uint64_t calls0 = ks.gemm_calls->value();
  const std::uint64_t flops0 = ks.gemm_flops->value();

  const long m = 4, n = 5, k = 3;
  Tensor a({m, k}), b({k, n}), c({m, n});
  a.fill(1.0f);
  b.fill(2.0f);
  c.fill(0.0f);
  bk.gemm(m, n, k, 1.0f, a.data(), b.data(), 0.0f, c.data());

  EXPECT_EQ(ks.gemm_calls->value(), calls0 + 1);
  EXPECT_EQ(ks.gemm_flops->value(),
            flops0 + 2ull * static_cast<std::uint64_t>(m * n * k));
  // Counters never touch the math.
  EXPECT_FLOAT_EQ(c.at(0, 0), 6.0f);
}

TEST(ObsKernels, ArenaHighWaterGaugeTracksCapacity) {
  obs::note_arena_capacity(1000);
  obs::Gauge& g = obs::registry().gauge("kernels.arena_hwm_bytes");
  const double before = g.value();
  EXPECT_GE(before, 1000.0);
  obs::note_arena_capacity(10);  // smaller: high-water must not regress
  EXPECT_DOUBLE_EQ(g.value(), before);
}

// ------------------------------------------------------- SLO primitives ---

TEST(ObsHistogram, FractionLeMatchesExactCounts) {
  // Empty snapshot: no traffic reads as no violations (attainment 1.0),
  // never as a breach.
  EXPECT_DOUBLE_EQ(Histogram().snapshot().fraction_le(100.0), 1.0);

  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i));
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_DOUBLE_EQ(s.fraction_le(0.0), 0.0);
  EXPECT_DOUBLE_EQ(s.fraction_le(1e12), 1.0);
  for (const double v : {10.0, 100.0, 500.0, 900.0}) {
    // Exact fraction is v/1000; bucket resolution is <= ~3.2% relative.
    EXPECT_NEAR(s.fraction_le(v), v / 1000.0, 0.04) << "v=" << v;
  }
  // Monotone in v.
  double prev = 0.0;
  for (double v = 0.0; v <= 1100.0; v += 7.0) {
    const double f = s.fraction_le(v);
    EXPECT_GE(f, prev) << "v=" << v;
    prev = f;
  }
}

// The satellite contract behind the SLO scoreboard's windowing: two
// consecutive snapshot deltas must sum — bucket by bucket — to the delta
// over the whole run, so no completion is counted twice or lost at a
// window boundary.
TEST(ObsHistogram, ConsecutiveWindowDeltasSumToFullRun) {
  std::mt19937 rng(11);
  std::lognormal_distribution<double> dist(5.0, 1.0);
  Histogram h;
  for (int i = 0; i < 500; ++i) h.record(std::round(dist(rng)));  // pre-run
  const Histogram::Snapshot t0 = h.snapshot();
  for (int i = 0; i < 2000; ++i) h.record(std::round(dist(rng)));
  const Histogram::Snapshot s1 = h.snapshot();
  for (int i = 0; i < 3000; ++i) h.record(std::round(dist(rng)));
  const Histogram::Snapshot s2 = h.snapshot();

  const Histogram::Snapshot w1 = s1 - t0;
  const Histogram::Snapshot w2 = s2 - s1;
  const Histogram::Snapshot full = s2 - t0;
  EXPECT_EQ(w1.count + w2.count, full.count);
  EXPECT_NEAR(w1.sum + w2.sum, full.sum, 1e-6 * full.sum);
  ASSERT_EQ(w1.buckets.size(), full.buckets.size());
  for (std::size_t i = 0; i < full.buckets.size(); ++i) {
    ASSERT_EQ(w1.buckets[i] + w2.buckets[i], full.buckets[i]) << "i=" << i;
  }
}

TEST(ObsSlo, ScoreboardWindowsAndBudgetMath) {
  Histogram lat;
  lat.record(1.0);  // pre-scoreboard sample must stay out of the timeline
  obs::SloScoreboard board({1000.0, 0.9}, lat);

  // Window 1: 10 fast requests, all within the 1000us bound.
  for (int i = 0; i < 10; ++i) lat.record(100.0);
  const obs::SloWindow& w1 = board.close_window("steady", 10, 0, 0);
  EXPECT_EQ(w1.completed, 10u);
  EXPECT_DOUBLE_EQ(w1.attainment, 1.0);
  EXPECT_TRUE(w1.slo_met);
  EXPECT_DOUBLE_EQ(w1.burn_rate, 0.0);
  EXPECT_DOUBLE_EQ(w1.budget_remaining, 1.0);

  // Window 2: half the requests blow the bound — attainment 0.5, burn rate
  // (1 - 0.5) / (1 - 0.9) = 5x.
  for (int i = 0; i < 5; ++i) lat.record(100.0);
  for (int i = 0; i < 5; ++i) lat.record(100000.0);
  const obs::SloWindow& w2 = board.close_window("burst", 10, 0, 3);
  EXPECT_EQ(w2.completed, 10u);
  EXPECT_NEAR(w2.attainment, 0.5, 0.05);
  EXPECT_FALSE(w2.slo_met);
  EXPECT_NEAR(w2.burn_rate, 5.0, 0.5);
  EXPECT_EQ(w2.queue_depth, 3);
  // Cumulative: ~5 violations vs a budget of 0.1 * 20 = 2 — overdrawn.
  EXPECT_LT(w2.budget_remaining, 0.0);

  // Shed counts as violation even with a healthy latency distribution.
  for (int i = 0; i < 10; ++i) lat.record(100.0);
  const obs::SloWindow& w3 = board.close_window("shedding", 12, 2, 0);
  EXPECT_FALSE(w3.slo_met);
  EXPECT_GT(w3.burn_rate, 1.0);

  const Json j = board.to_json();
  EXPECT_EQ(j.at("windows").size(), 3u);
  // The pre-scoreboard sample is excluded: 30 completions, not 31.
  EXPECT_EQ(j.at("summary").at("completed").as_int(), 30);
  EXPECT_EQ(j.at("summary").at("offered").as_int(), 32);
  EXPECT_EQ(j.at("summary").at("shed").as_int(), 2);
  EXPECT_EQ(j.at("summary").at("windows_violated").as_int(), 2);
  EXPECT_FALSE(j.at("summary").at("slo_met").as_bool());
}

TEST(ObsRegistry, PrometheusEscapesLabelValues) {
  obs::registry()
      .counter("test_obs.esc", {{"path", "say \"hi\"\\dir\nend"}})
      .add(1);
  const std::string prom = obs::registry().to_prometheus();
  EXPECT_NE(prom.find("path=\"say \\\"hi\\\"\\\\dir\\nend\""),
            std::string::npos)
      << prom;
  // The raw control characters must be gone from the exposition line.
  EXPECT_EQ(prom.find("say \"hi\""), std::string::npos);
}

TEST(ObsRegistry, PrometheusHistogramBucketsCumulativeWithInf) {
  obs::Histogram& h = obs::registry().histogram("test_obs.prom_buckets");
  h.record(1.0);
  h.record(1.0);
  h.record(10.0);
  h.record(1e6);
  const std::string prom = obs::registry().to_prometheus();
  // Unit buckets below kSub are exact and the le bound is inclusive, so the
  // two 1s land on le="1" and the 10 accumulates onto le="10".
  EXPECT_NE(prom.find("test_obs_prom_buckets_bucket{le=\"1\"} 2"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("test_obs_prom_buckets_bucket{le=\"10\"} 3"),
            std::string::npos)
      << prom;
  // The mandatory +Inf bucket closes the series at the total count.
  EXPECT_NE(prom.find("test_obs_prom_buckets_bucket{le=\"+Inf\"} 4"),
            std::string::npos)
      << prom;
  // The log-linear bucket holding 1e6 must carry an le bound that brackets
  // it: lower <= 1e6 <= le (one cumulative line with value 4 before +Inf).
  const std::size_t idx = Histogram::bucket_index(1000000);
  const std::string line = "test_obs_prom_buckets_bucket{le=\"" +
                           std::to_string(Histogram::bucket_upper(idx) - 1) +
                           "\"} 4";
  EXPECT_NE(prom.find(line), std::string::npos) << prom;
  EXPECT_LE(Histogram::bucket_lower(idx), 1000000u);
  EXPECT_GE(Histogram::bucket_upper(idx) - 1, 1000000u);
}

TEST(ObsTrace, BoundedBufferDropsAndCounts) {
  obs::start_tracing();
  const std::uint64_t ctr0 =
      obs::registry().counter("trace.events_dropped").value();
  const std::size_t cap = obs::trace_events_capacity();
  const std::size_t overflow = 100;
  for (std::size_t i = 0; i < cap + overflow; ++i) {
    BER_TRACE_INSTANT("testcat", "flood");
  }
  obs::stop_tracing();
  // start_tracing cleared this thread's buffer, so exactly the events past
  // capacity drop; the registry counter mirrors them.
  EXPECT_EQ(obs::trace_events_dropped(), overflow);
  EXPECT_EQ(obs::registry().counter("trace.events_dropped").value(),
            ctr0 + overflow);
  obs::start_tracing();  // re-base so later tests see an empty buffer
  obs::stop_tracing();
  EXPECT_EQ(obs::trace_events_dropped(), 0u);
}

}  // namespace
