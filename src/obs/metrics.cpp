#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>

namespace ber::obs {

std::uint64_t monotonic_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::string metric_key(const std::string& name, const Labels& labels) {
  if (labels.empty()) return name;
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string key = name + "{";
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (i > 0) key += ",";
    key += sorted[i].first + "=\"" + sorted[i].second + "\"";
  }
  key += "}";
  return key;
}

// ------------------------------------------------------------------- Gauge --

void Gauge::add(double d) {
  double cur = v_.load(std::memory_order_relaxed);
  while (!v_.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
  }
}

void Gauge::set_max(double v) {
  double cur = v_.load(std::memory_order_relaxed);
  while (cur < v &&
         !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

// --------------------------------------------------------------- Histogram --

Histogram::Histogram() : buckets_(static_cast<std::size_t>(kBuckets)) {}

std::size_t Histogram::bucket_index(std::uint64_t v) {
  if (v < static_cast<std::uint64_t>(kSub)) return static_cast<std::size_t>(v);
  const int e = std::bit_width(v) - 1;  // v in [2^e, 2^(e+1)), e >= kSubBits
  const std::uint64_t sub = (v >> (e - kSubBits)) - kSub;
  return static_cast<std::size_t>((e - kSubBits + 1) * kSub + sub);
}

std::uint64_t Histogram::bucket_lower(std::size_t idx) {
  if (idx < static_cast<std::size_t>(kSub)) return idx;
  const std::size_t group = idx / kSub;  // >= 1
  const std::uint64_t sub = idx % kSub;
  return (static_cast<std::uint64_t>(kSub) + sub) << (group - 1);
}

std::uint64_t Histogram::bucket_upper(std::size_t idx) {
  if (idx + 1 >= static_cast<std::size_t>(kBuckets)) return ~0ull;
  return bucket_lower(idx + 1);
}

void Histogram::record(double v) {
  if (!(v > 0.0)) v = 0.0;  // negatives and NaN clamp to the zero bucket
  const std::uint64_t iv = static_cast<std::uint64_t>(std::llround(
      std::min(v, 9.2e18)));
  buckets_[bucket_index(iv)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v,
                                     std::memory_order_relaxed)) {
  }
  double mx = max_.load(std::memory_order_relaxed);
  while (mx < v &&
         !max_.compare_exchange_weak(mx, v, std::memory_order_relaxed)) {
  }
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot s;
  s.buckets.resize(static_cast<std::size_t>(kBuckets));
  for (std::size_t i = 0; i < s.buckets.size(); ++i) {
    s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  s.max = max_.load(std::memory_order_relaxed);
  return s;
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
}

double Histogram::Snapshot::quantile(double q) const {
  // Recompute the total from the buckets: under concurrent recording the
  // atomic count may run ahead of the bucket copies, and the walk must use
  // a rank consistent with what it will actually find.
  std::uint64_t total = 0;
  for (std::uint64_t b : buckets) total += b;
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(total - 1);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    const double lo_rank = static_cast<double>(cum);
    cum += buckets[i];
    if (rank < static_cast<double>(cum)) {
      const double lower = static_cast<double>(bucket_lower(i));
      // Linear-range buckets hold exactly one integer value each — the
      // lower bound is the value; interpolating would only add error.
      if (i < static_cast<std::size_t>(kSub)) return lower;
      const double upper = static_cast<double>(bucket_upper(i));
      const double frac =
          (rank - lo_rank + 0.5) / static_cast<double>(buckets[i]);
      return lower + (upper - lower) * std::min(1.0, frac);
    }
  }
  return static_cast<double>(bucket_upper(buckets.size() - 1));
}

double Histogram::Snapshot::fraction_le(double v) const {
  std::uint64_t total = 0;
  for (std::uint64_t b : buckets) total += b;
  if (total == 0) return 1.0;
  if (v < 0.0) return 0.0;
  const std::uint64_t iv = static_cast<std::uint64_t>(
      std::llround(std::min(v, 9.2e18)));
  const std::size_t idx = bucket_index(iv);
  std::uint64_t below = 0;
  for (std::size_t i = 0; i < idx; ++i) below += buckets[i];
  double in_bucket = static_cast<double>(buckets[idx]);
  if (idx >= static_cast<std::size_t>(kSub)) {
    // Wide bucket: count the straddling bucket's samples proportionally to
    // how much of it lies at or below v (linear buckets hold one integer
    // value each, so they are entirely <= v already).
    const double lo = static_cast<double>(bucket_lower(idx));
    const double hi = static_cast<double>(bucket_upper(idx));
    in_bucket *= std::clamp((static_cast<double>(iv) + 1.0 - lo) / (hi - lo),
                            0.0, 1.0);
  }
  return std::min(1.0, (static_cast<double>(below) + in_bucket) /
                           static_cast<double>(total));
}

Histogram::Snapshot Histogram::Snapshot::operator-(
    const Snapshot& earlier) const {
  Snapshot d;
  d.count = count - std::min(earlier.count, count);
  d.sum = sum - earlier.sum;
  d.max = max;  // max is not subtractable; keep the cumulative high-water
  d.buckets.resize(buckets.size());
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const std::uint64_t base =
        i < earlier.buckets.size() ? earlier.buckets[i] : 0;
    d.buckets[i] = buckets[i] - std::min(base, buckets[i]);
  }
  return d;
}

Json Histogram::Snapshot::to_json() const {
  Json j = Json::object();
  j.set("count", static_cast<std::uint64_t>(count));
  j.set("sum", sum);
  j.set("mean", mean());
  j.set("p50", quantile(0.50));
  j.set("p90", quantile(0.90));
  j.set("p99", quantile(0.99));
  j.set("p999", quantile(0.999));
  j.set("max", max);
  return j;
}

// ---------------------------------------------------------------- Registry --

namespace {
enum Kind { kCounter = 0, kGauge = 1, kHistogram = 2 };
const char* kind_name(int k) {
  return k == kCounter ? "counter" : k == kGauge ? "gauge" : "histogram";
}
}  // namespace

struct Registry::Entry {
  std::string key;
  std::string name;
  Labels labels;
  int kind;
  std::unique_ptr<Counter> counter;
  std::unique_ptr<Gauge> gauge;
  std::unique_ptr<Histogram> histogram;
};

Registry::~Registry() { delete entries_; }

std::vector<Registry::Entry>& Registry::entries() const {
  if (entries_ == nullptr) {
    const_cast<Registry*>(this)->entries_ = new std::vector<Entry>();
  }
  return *entries_;
}

// Callers hold mu_: the returned Entry lives in a vector another thread's
// push_back may reallocate, so only the (heap-stable) instrument pointer
// may be taken out of the critical section.
Registry::Entry& Registry::find_or_create(const std::string& name,
                                          const Labels& labels, int kind) {
  const std::string key = metric_key(name, labels);
  std::vector<Entry>& es = entries();
  for (Entry& e : es) {
    if (e.key == key) {
      if (e.kind != kind) {
        throw std::invalid_argument(
            "obs::Registry: \"" + key + "\" already registered as a " +
            kind_name(e.kind) + ", requested as a " + kind_name(kind));
      }
      return e;
    }
  }
  Entry e;
  e.key = key;
  e.name = name;
  e.labels = labels;
  e.kind = kind;
  switch (kind) {
    case kCounter: e.counter = std::make_unique<Counter>(); break;
    case kGauge: e.gauge = std::make_unique<Gauge>(); break;
    default: e.histogram = std::make_unique<Histogram>(); break;
  }
  es.push_back(std::move(e));
  return es.back();
}

Counter& Registry::counter(const std::string& name, const Labels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  return *find_or_create(name, labels, kCounter).counter;
}

Gauge& Registry::gauge(const std::string& name, const Labels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  return *find_or_create(name, labels, kGauge).gauge;
}

Histogram& Registry::histogram(const std::string& name, const Labels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  return *find_or_create(name, labels, kHistogram).histogram;
}

Json Registry::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const Entry*> sorted;
  for (const Entry& e : entries()) sorted.push_back(&e);
  std::sort(sorted.begin(), sorted.end(),
            [](const Entry* a, const Entry* b) { return a->key < b->key; });
  Json counters = Json::object(), gauges = Json::object(),
       histograms = Json::object();
  for (const Entry* e : sorted) {
    switch (e->kind) {
      case kCounter: counters.set(e->key, e->counter->value()); break;
      case kGauge: gauges.set(e->key, e->gauge->value()); break;
      default:
        histograms.set(e->key, e->histogram->snapshot().to_json());
        break;
    }
  }
  Json j = Json::object();
  j.set("counters", std::move(counters));
  j.set("gauges", std::move(gauges));
  j.set("histograms", std::move(histograms));
  return j;
}

namespace {

// Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*.
std::string prom_name(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  return out;
}

// Exposition-format label values escape backslash, double-quote and
// newline; anything else passes through verbatim.
std::string prom_escape(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (const char c : v) {
    if (c == '\\') out += "\\\\";
    else if (c == '"') out += "\\\"";
    else if (c == '\n') out += "\\n";
    else out += c;
  }
  return out;
}

std::string prom_labels(const Labels& labels, const char* extra_key = nullptr,
                        const std::string& extra_val = "") {
  if (labels.empty() && extra_key == nullptr) return "";
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : sorted) {
    if (!first) out += ",";
    first = false;
    out += prom_name(k) + "=\"" + prom_escape(v) + "\"";
  }
  if (extra_key) {
    if (!first) out += ",";
    out += std::string(extra_key) + "=\"" + prom_escape(extra_val) + "\"";
  }
  out += "}";
  return out;
}

void append_sample(std::string& out, const std::string& name,
                   const std::string& labels, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += name + labels + " " + buf + "\n";
}

}  // namespace

std::string Registry::to_prometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const Entry*> sorted;
  for (const Entry& e : entries()) sorted.push_back(&e);
  std::sort(sorted.begin(), sorted.end(),
            [](const Entry* a, const Entry* b) { return a->key < b->key; });
  std::string out;
  for (const Entry* e : sorted) {
    const std::string name = prom_name(e->name);
    const std::string labels = prom_labels(e->labels);
    switch (e->kind) {
      case kCounter:
        append_sample(out, name, labels,
                      static_cast<double>(e->counter->value()));
        break;
      case kGauge:
        append_sample(out, name, labels, e->gauge->value());
        break;
      default: {
        const Histogram::Snapshot s = e->histogram->snapshot();
        append_sample(out, name + "_count", labels,
                      static_cast<double>(s.count));
        append_sample(out, name + "_sum", labels, s.sum);
        const std::pair<double, const char*> quantiles[] = {
            {0.5, "0.5"}, {0.9, "0.9"}, {0.99, "0.99"}, {0.999, "0.999"}};
        for (const auto& [q, qname] : quantiles) {
          append_sample(out, name, prom_labels(e->labels, "quantile", qname),
                        s.quantile(q));
        }
        // Cumulative Prometheus buckets alongside the quantile summaries.
        // Recorded values round to integers, so the exclusive bucket upper
        // bound maps to an inclusive le of upper-1; only non-empty buckets
        // are emitted (1920 mostly-zero lines per histogram would dwarf the
        // exposition). The mandatory +Inf bucket takes max(cum, count):
        // under a relaxed snapshot the count can run ahead of the bucket
        // copies, and _bucket{+Inf} must stay >= every other bucket AND
        // match _count for scrape-side consistency.
        std::uint64_t cum = 0;
        for (std::size_t i = 0; i < s.buckets.size(); ++i) {
          if (s.buckets[i] == 0) continue;
          cum += s.buckets[i];
          const std::uint64_t upper = Histogram::bucket_upper(i);
          if (upper == ~0ull) continue;  // folds into +Inf below
          char le[24];
          std::snprintf(le, sizeof(le), "%llu",
                        static_cast<unsigned long long>(upper - 1));
          append_sample(out, name + "_bucket",
                        prom_labels(e->labels, "le", le),
                        static_cast<double>(cum));
        }
        append_sample(out, name + "_bucket",
                      prom_labels(e->labels, "le", "+Inf"),
                      static_cast<double>(std::max(cum, s.count)));
        break;
      }
    }
  }
  return out;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (Entry& e : entries()) {
    switch (e.kind) {
      case kCounter: e.counter->reset(); break;
      case kGauge: e.gauge->reset(); break;
      default: e.histogram->reset(); break;
    }
  }
}

Registry& registry() {
  static Registry* r = new Registry();  // never destroyed: instruments may
                                        // be touched by late-exiting threads
  return *r;
}

// ------------------------------------------------------------ ScopedTimer --

ScopedTimerUs::ScopedTimerUs(Histogram& h) : h_(h), start_ns_(monotonic_ns()) {}

ScopedTimerUs::~ScopedTimerUs() {
  h_.record(static_cast<double>(monotonic_ns() - start_ns_) * 1e-3);
}

}  // namespace ber::obs
