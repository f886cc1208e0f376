// Process-wide metrics registry: the one place every subsystem reports its
// operating signals — serve latency/traffic, deploy churn, fault-injection
// volume, kernel FLOP tallies — addressable by name + label set.
//
// Three instrument kinds, all safe to hammer from worker threads:
//   Counter   — monotone relaxed-atomic add; the hot-path cost is one
//               fetch_add, so instruments stay enabled even on bit-exact
//               reference paths (counters never touch the math).
//   Gauge     — last-written value (or monotone max) as an atomic double.
//   Histogram — log-linear buckets (32 linear sub-buckets per power of two,
//               <= 3.2% relative bucket width), giving proper p50/p99/p999
//               without storing samples and without a sort per snapshot —
//               this replaces the serving pool's lossy latency ring buffer.
//
// registry() hands out stable references: call sites resolve an instrument
// once (mutex-guarded map lookup) and then update it lock-free forever.
// Snapshots serialize to core/json (embedded in api::Report, written by
// `ber_run --metrics-out`) and to Prometheus-style text exposition.
//
// Naming convention: dotted subsystem.metric names ("serve.requests",
// "kernels.gemm_flops"), snake_case, unit suffix where it matters (_us,
// _ms, _bytes). Labels are sorted into the canonical key
// `name{k="v",k2="v2"}` so the same (name, labels) always resolves to the
// same instrument regardless of the label order at the call site.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/json.h"

namespace ber::obs {

using Labels = std::vector<std::pair<std::string, std::string>>;

// Canonical instrument key: `name` alone, or `name{k="v",...}` with labels
// sorted by key. This is the key used in snapshot JSON (grep-able by CI).
std::string metric_key(const std::string& name, const Labels& labels);

class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  // CAS loops (not C++20 atomic-float fetch_add) so the instrument works on
  // every toolchain the library builds with.
  void add(double d);
  void set_max(double v);  // monotone high-water update
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

class Histogram {
 public:
  // Log-linear bucketing: values below kSub land in exact unit buckets;
  // above that, each power of two splits into kSub linear sub-buckets, so a
  // bucket's width is at most 1/kSub of its lower bound.
  static constexpr int kSubBits = 5;
  static constexpr long kSub = 1 << kSubBits;                 // 32
  static constexpr long kBuckets = (64 - kSubBits + 1) * kSub;  // 1920

  Histogram();
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  // Records a sample. Negative values clamp to 0; non-integral values round
  // to nearest (record in a unit fine enough that rounding is noise — us
  // for latencies).
  void record(double v);

  // A consistent-enough copy of the instrument (buckets are read relaxed;
  // concurrent recording may skew count vs sum by in-flight samples, which
  // is inherent to lock-free snapshots and irrelevant at reporting time).
  struct Snapshot {
    std::uint64_t count = 0;
    double sum = 0.0;
    double max = 0.0;
    std::vector<std::uint64_t> buckets;  // dense, kBuckets entries

    // Quantile by bucket walk + intra-bucket linear interpolation; exact
    // for values < kSub, within one bucket width (<= ~3.2% relative) above.
    double quantile(double q) const;
    // Fraction of samples <= v (bucket resolution, linear interpolation in
    // the straddling bucket). 1.0 on an empty snapshot — "no traffic" must
    // read as "no violations" for SLO attainment, not as a breach.
    double fraction_le(double v) const;
    double mean() const { return count == 0 ? 0.0 : sum / count; }
    // Windowed stats: the samples recorded since `earlier` was taken.
    Snapshot operator-(const Snapshot& earlier) const;
    Json to_json() const;  // {count,sum,mean,p50,p90,p99,p999,max}
  };
  Snapshot snapshot() const;
  void reset();

  // Bucket geometry (exposed for the boundary tests).
  static std::size_t bucket_index(std::uint64_t v);
  static std::uint64_t bucket_lower(std::size_t idx);
  static std::uint64_t bucket_upper(std::size_t idx);  // exclusive

 private:
  std::vector<std::atomic<std::uint64_t>> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> max_{0.0};
};

// The process-wide registry. Instruments live for the process once created;
// re-requesting the same (name, labels) returns the same instrument, and
// requesting an existing key as a different kind throws.
class Registry {
 public:
  Counter& counter(const std::string& name, const Labels& labels = {});
  Gauge& gauge(const std::string& name, const Labels& labels = {});
  Histogram& histogram(const std::string& name, const Labels& labels = {});

  // {"counters": {key: n}, "gauges": {key: x}, "histograms": {key: {...}}}
  // with keys sorted, so snapshots diff cleanly run over run.
  Json to_json() const;

  // Prometheus-style text exposition: counters/gauges as samples, histograms
  // as summaries (_count, _sum, {quantile="..."}). Dots become underscores.
  std::string to_prometheus() const;

  // Zeroes every value, keeping registrations (handles stay valid) — for
  // tests and benches that need a clean window.
  void reset();

  Registry() = default;
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

 private:
  struct Entry;
  // Registration order, guarded by mu_. Entries move when the vector grows;
  // the instruments they own do not (unique_ptr payloads), so handles stay
  // valid.
  std::vector<Entry>& entries() const;
  // Requires mu_ held.
  Entry& find_or_create(const std::string& name, const Labels& labels,
                        int kind);

  mutable std::mutex mu_;
  std::vector<Entry>* entries_ = nullptr;  // defined in metrics.cpp
};

Registry& registry();

// RAII timer recording elapsed microseconds (or milliseconds) into a
// histogram on destruction.
class ScopedTimerUs {
 public:
  explicit ScopedTimerUs(Histogram& h);
  ~ScopedTimerUs();
  ScopedTimerUs(const ScopedTimerUs&) = delete;
  ScopedTimerUs& operator=(const ScopedTimerUs&) = delete;

 private:
  Histogram& h_;
  std::uint64_t start_ns_;
};

// Monotonic nanoseconds (steady_clock) — the obs layer's shared clock.
std::uint64_t monotonic_ns();

}  // namespace ber::obs
