// The three workloads. Each one sets up several times (setup_s is the
// median), then repeats its unit of work until --seconds have passed, checks
// every unit against the first (results and work counts must repeat
// exactly), and reports medians over the units. A traced run measures 35% of
// the time untraced and as long again with tracing on (the difference is the
// tracing overhead), then replays each module's functions for the per-layer
// numbers.
//
// What --seed varies: the fault chips of every sweep, plan and fleet, and the
// open-loop arrival schedules. The training run and the evaluation images are
// fixed, because they set clean_err and rerr_mean: with a seed-dependent
// training run those spread across seeds by more than their regression bound.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <random>

#include "api/experiment.h"
#include "core/parallel.h"
#include "data/source.h"
#include "data/store.h"
#include "eval/metrics.h"
#include "faults/evaluator.h"
#include "faults/random_bit_error_model.h"
#include "kernels/backend.h"
#include "models/factory.h"
#include "obs/trace.h"
#include "perfbench.h"
#include "serve/checkpoint.h"
#include "serve/planner.h"
#include "serve/replica_pool.h"
#include "train/trainer.h"

namespace perfbench {

using ber::Json;

namespace {

// Share of --seconds each half of a traced run measures; the rest of a traced
// run is the per-layer replay.
constexpr double kTracedShare = 0.35;

// Data for one split of a synthetic c10 preset at `image_size`.
ber::data::SourceSpec c10_source(int image_size, int n_train, int n_test,
                                 std::uint64_t seed) {
  ber::data::SourceSpec src;
  src.synthetic = ber::SyntheticConfig::cifar10();
  src.synthetic.image_size = image_size;
  src.synthetic.n_train = n_train;
  src.synthetic.n_test = n_test;
  src.synthetic.seed = seed;
  return src;
}

// Spans of one name in a chrome trace, in seconds.
std::vector<double> span_seconds(const Json& trace, const char* cat,
                                 const char* name) {
  std::vector<double> out;
  for (const Json& e : trace.at("traceEvents").items()) {
    const Json* c = e.find("cat");
    const Json* d = e.find("dur");
    if (c != nullptr && d != nullptr && c->as_string() == cat &&
        e.at("name").as_string() == name) {
      out.push_back(d->as_number() * 1e-6);
    }
  }
  return out;
}

// Ends the traced phase and the replays that follow it, and writes the trace.
void finish_trace(const Options& opts) {
  ber::obs::stop_tracing();
  if (!opts.trace_out.empty()) ber::obs::write_trace(opts.trace_out);
}

// Repeats run_unit for --seconds, at least once. A traced run measures
// kTracedShare of that untraced, then as long again with tracing on, and
// leaves tracing on for the replays.
template <typename Unit, typename Fn>
void measure(const Options& opts, Fn&& run_unit, std::vector<Unit>& units,
             std::vector<Unit>& traced, Json& trace) {
  auto loop = [&](double seconds, std::vector<Unit>& out) {
    const auto t0 = Clock::now();
    while (out.empty() || since_s(t0) < seconds) out.push_back(run_unit());
  };
  loop(opts.trace ? opts.seconds * kTracedShare : opts.seconds, units);
  if (!opts.trace) return;
  ber::obs::start_tracing();
  loop(opts.seconds * kTracedShare, traced);
  trace = ber::obs::trace_json();
}

Json json_array(const std::vector<double>& v) {
  Json a = Json::array();
  for (double x : v) a.push_back(x);
  return a;
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

bool all_finite(const std::vector<double>& v) {
  for (double x : v) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

// Evaluator busy time recorded by the library's own per-trial timers.
double trial_busy_s(const CounterSnapshot& d) {
  return (d["faults.sweep_point_us.sum"] + d["faults.trial_us.sum"]) * 1e-6;
}

// Per-layer metrics taken from one unit of the workload's traced phase.
void counter_layers(const CounterSnapshot& d, double sweep_wall_s,
                    Json& pl) {
  pl.set("data.prefetch_stalls", d["data.prefetch_stalls"]);
  pl.set("data.batches_produced", d["data.batches_produced"]);
  pl.set("kernels.gemm_flops", d["kernels.gemm_flops"]);
  pl.set("kernels.qgemm_flops", d["kernels.qgemm_flops"]);
  pl.set("kernels.im2col_bytes", d["kernels.im2col_bytes"]);
  pl.set("kernels.gemm_calls", d["kernels.gemm_calls"]);
  pl.set("faults.words_patched", d["faults.words_patched"]);
  const double trials = d["faults.trials"];
  pl.set("faults.trials", trials);
  pl.set("faults.trial_ms", trials > 0 ? trial_busy_s(d) * 1e3 / trials : 0.0);
  pl.set("faults.pool_busy_frac",
         sweep_wall_s > 0 ? trial_busy_s(d) /
                                (sweep_wall_s * ber::default_threads())
                          : 0.0);
}

// The ones a workload that neither trains nor serves reports as zero work.
void zero_layers(Json& pl, std::initializer_list<const char*> names) {
  for (const char* n : names) pl.set(n, 0.0);
}

// ------------------------------------------------------------ train_randbet

// The quickstart recipe (c10 synthetic 12x12, SimpleNet w8 GroupNorm, 8-bit
// RQuant, wmax 0.15, p_train 0.01, batch 100, a warm-up of a tenth of the
// epochs), shortened in images and epochs so that one cold run takes about
// twelve seconds and still learns well clear of chance (clean error 0.708
// against 0.90). The model entry has no name, so the Runner never reads or
// writes the checkpoint cache. loss_threshold 100 opens RandBET's injection
// gate after the first epoch: the quickstart's 1.75 gate does not open
// within so few epochs, and a fixed gate keeps the work per run fixed.
constexpr int kTrainEpochs = 15;
constexpr int kTrainWarmupEpochs = 2;
constexpr int kTrainImages = 1000;
constexpr int kTrainTestImages = 500;

std::string train_spec_text(std::uint64_t seed) {
  char buf[1536];
  std::snprintf(
      buf, sizeof(buf),
      R"({"name": "perfbench_train_randbet", "kind": "robustness",
          "backend": "blocked",
          "model": {
            "dataset": {"name": "c10", "n_train": %d, "n_test": %d,
                        "seed": %llu},
            "model": {"arch": "simplenet", "norm": "groupnorm", "width": 8},
            "quant": {"scheme": "rquant", "bits": 8},
            "train": {"method": "randbet", "wmax": 0.15, "p_train": 0.01,
                      "epochs": %d, "batch_size": %d, "lr_warmup_epochs": %d,
                      "loss_threshold": 100, "seed": %llu}},
          "fault": {"model": "random", "seed_base": %llu},
          "eval": {"n_trials": 4, "split": "test", "clean_err": true,
                   "rate_grid": [0.001, 0.005, 0.01]}})",
      kTrainImages, kTrainTestImages, 7ULL, kTrainEpochs, kTrainBatch,
      kTrainWarmupEpochs, 1ULL,
      static_cast<unsigned long long>(1000 + 100 * seed));
  return buf;
}

}  // namespace

Result run_train_randbet(const Options& opts) {
  Result r;
  const std::string text = train_spec_text(opts.seed % 1000000);
  ber::api::ExperimentSpec spec;
  std::vector<double> setup_s, load_ms;
  for (int k = 0; k < 9; ++k) {
    const auto t0 = Clock::now();
    spec = ber::api::ExperimentSpec::from_json(Json::parse(text));
    const ber::api::ModelEntry& e = spec.models.front();
    const ber::data::SourceSpec src{e.dataset.source, e.dataset.path,
                                    e.dataset.config};
    const auto t1 = Clock::now();
    ber::Dataset train = ber::data::load_split(src, true);
    ber::Dataset test = ber::data::load_split(src, false);
    load_ms.push_back(since_s(t1) * 1e3);
    if (k == 0) {
      // The Runner looks its datasets up in the process-wide store: data
      // synthesis is set-up, not training.
      ber::data::dataset_store().get(ber::data::dataset_key(src, "train"),
                                     [&] { return std::move(train); });
      ber::data::dataset_store().get(ber::data::dataset_key(src, "test"),
                                     [&] { return std::move(test); });
    }
    setup_s.push_back(since_s(t0));
  }
  r.setup_s = median(setup_s);
  r.check("model entry bypasses the checkpoint cache",
          spec.models.front().name.empty() && !spec.models.front().is_zoo());

  const long steps_per_epoch = (kTrainImages + kTrainBatch - 1) / kTrainBatch;
  const double samples = static_cast<double>(kTrainEpochs) * kTrainImages;

  struct Unit {
    double wall_s;
    double clean_err;
    std::vector<double> rerr;
    CounterSnapshot delta;
    Json counts;
  };
  auto run_unit = [&]() {
    const CounterSnapshot before = CounterSnapshot::take();
    const auto t0 = Clock::now();
    const ber::api::Report rep = ber::api::Runner(spec).run();
    Unit u;
    u.wall_s = since_s(t0);
    u.delta = CounterSnapshot::take() - before;
    const ber::api::ModelReport& m = rep.models.front();
    u.clean_err = m.clean_err;
    for (const auto& pt : m.points) u.rerr.push_back(pt.result.mean_rerr);
    u.counts = count_json(u.delta);
    return u;
  };
  auto throughput = [&](const std::vector<Unit>& units) {
    std::vector<double> v;
    for (const Unit& u : units) v.push_back(samples / u.wall_s);
    return v;
  };
  std::vector<Unit> units, traced;
  Json trace;
  r.startup_s = since_s(kProcessStart);
  measure(opts, run_unit, units, traced, trace);

  // Every unit is the same cold training run: results and counts repeat.
  const Unit& ref = units.front();
  bool same = true;
  for (const auto* set : {&units, &traced}) {
    for (const Unit& u : *set) {
      same = same && u.clean_err == ref.clean_err && u.rerr == ref.rerr &&
             u.counts == ref.counts;
      r.check("trained the configured epochs",
              u.delta["data.batches_produced"] ==
                  static_cast<double>(kTrainEpochs * steps_per_epoch),
              u.delta["data.batches_produced"]);
    }
  }
  r.check("cold runs repeat results and counts exactly", same);
  r.check("clean_err and rerr finite",
          std::isfinite(ref.clean_err) && all_finite(ref.rerr));
  const std::string art = std::getenv("BER_ARTIFACTS") != nullptr
                              ? std::getenv("BER_ARTIFACTS")
                              : "";
  r.check("no checkpoint written or read",
          art.empty() || !std::filesystem::exists(art) ||
              std::filesystem::is_empty(art));

  r.clean_err = ref.clean_err;
  r.rerr_mean = mean(ref.rerr);
  const std::vector<double> tput = throughput(units);
  r.work_per_s = median(tput);
  r.metrics.set("setup_s", median_json(setup_s, "s"));
  r.metrics.set("train_samples_per_s", median_json(tput, "1/s"));

  r.counts.set("per_run", ref.counts);
  r.counts.set("rerr_per_point", json_array(ref.rerr));
  r.counts.set("clean_err", ref.clean_err);
  {
    ber::ModelConfig mc;
    mc.width = 8;
    auto model = ber::build_model(mc);
    r.counts.set("profile", profile_json(*model, {1, 3, 12, 12}));
  }

  if (opts.trace) {
    Json& pl = r.per_layer;
    const Unit& tu = traced.front();
    const std::vector<double> train_wall = span_seconds(trace, "runner", "train");
    const std::vector<double> sweep_wall =
        span_seconds(trace, "runner", "robustness");
    counter_layers(tu.delta, median(sweep_wall), pl);
    pl.set("data.load_ms", median(load_ms));
    // Training runs on whichever backend did most of the GEMM work.
    const std::string train_backend =
        tu.delta.labeled("kernels.gemm_flops", "backend=\"reference\"") >=
                tu.delta.labeled("kernels.gemm_flops", "backend=\"blocked\"")
            ? "reference"
            : "blocked";
    const double step_us = replay_layers(opts, train_backend, pl);
    finish_trace(opts);
    const double wall = median(train_wall);
    pl.set("train.wall_s", wall);
    // Every step runs one fake-quantized pass; with injection on (epochs
    // after the first) a second, perturbed pass follows.
    const double passes = static_cast<double>(
        steps_per_epoch + 2 * steps_per_epoch * (kTrainEpochs - 1));
    pl.set("train.accounted_frac",
           wall > 0 ? step_us * 1e-6 * passes / wall : 0.0);
    zero_layers(pl, {"serve.batch_mean", "serve.enqueue_p99_us"});
    pl.set("obs.trace_overhead_frac",
           median(throughput(units)) / median(throughput(traced)) - 1.0);
  }
  return r;
}

// -------------------------------------------------------------- sweep_codes

namespace {

// The paper-scale geometry (CIFAR-sized 32x32 inputs, width-32 SimpleNet):
// the conv GEMMs dominate here, whereas the 12x12 toy model is norm/pool
// bound.
const std::vector<double> kSweepRates = {0.0005, 0.001, 0.005, 0.01, 0.02};
constexpr int kSweepTrials = 4;
constexpr int kSweepImages = 300;

}  // namespace

Result run_sweep_codes(const Options& opts) {
  Result r;
  const std::uint64_t seed = opts.seed % 1000000;
  const ber::data::SourceSpec src =
      c10_source(kPaperModel.image_size, 0, kSweepImages, 11);
  const ber::kernels::ScopedBackend backend("blocked");

  std::unique_ptr<ber::Sequential> model;
  ber::QuantScheme scheme;
  ber::Dataset data;
  std::unique_ptr<ber::RobustnessEvaluator> ev;
  std::vector<double> setup_s, load_ms;
  for (int k = 0; k < 7; ++k) {
    const auto t0 = Clock::now();
    ev.reset();
    model = load_model(opts, kPaperModel, &scheme);
    const auto t1 = Clock::now();
    data = ber::data::load_split(src, false);
    load_ms.push_back(since_s(t1) * 1e3);
    ev = std::make_unique<ber::RobustnessEvaluator>(*model, scheme);
    ev->set_compute_on_codes(true);
    setup_s.push_back(since_s(t0));
  }
  r.setup_s = median(setup_s);
  r.check("checkpoint scheme is 8-bit RQuant",
          scheme == ber::QuantScheme::rquant(8));

  const ber::RandomBitErrorModel fault(
      ber::BitErrorConfig{kSweepRates.back()}, 2000 + 100 * seed);
  const double evals =
      static_cast<double>(kSweepTrials) * kSweepRates.size() * data.size();

  struct Unit {
    double wall_s;
    std::vector<double> rerr;
    CounterSnapshot delta;
    Json counts;
  };
  auto run_unit = [&]() {
    const CounterSnapshot before = CounterSnapshot::take();
    const auto t0 = Clock::now();
    const std::vector<ber::RobustResult> sweep = ev->run_rate_sweep(
        fault, kSweepRates, data, kSweepTrials, kSweepBatch);
    Unit u;
    u.wall_s = since_s(t0);
    u.delta = CounterSnapshot::take() - before;
    for (const ber::RobustResult& p : sweep) u.rerr.push_back(p.mean_rerr);
    u.counts = count_json(u.delta);
    return u;
  };
  auto throughput = [&](const std::vector<Unit>& units) {
    std::vector<double> v;
    for (const Unit& u : units) v.push_back(evals / u.wall_s);
    return v;
  };
  std::vector<Unit> units, traced;
  Json trace;
  r.startup_s = since_s(kProcessStart);
  measure(opts, run_unit, units, traced, trace);

  const Unit& ref = units.front();
  bool same = true;
  for (const auto* set : {&units, &traced}) {
    for (const Unit& u : *set) {
      same = same && u.rerr == ref.rerr && u.counts == ref.counts;
    }
  }
  r.check("sweeps repeat RErr per point and counts exactly", same);
  r.attempted += static_cast<long>(units.size() + traced.size());

  r.clean_err = ber::test_error(*model, data, &scheme, kSweepBatch);
  r.check("clean_err and rerr finite",
          std::isfinite(r.clean_err) && all_finite(ref.rerr));
  r.rerr_mean = mean(ref.rerr);
  const std::vector<double> tput = throughput(units);
  r.work_per_s = median(tput);
  r.metrics.set("setup_s", median_json(setup_s, "s"));
  r.metrics.set("sweep_evals_per_s", median_json(tput, "1/s"));

  r.counts.set("per_sweep", ref.counts);
  r.counts.set("rerr_per_point", json_array(ref.rerr));
  r.counts.set("profile", profile_json(*model, {1, 3, 32, 32}));

  if (opts.trace) {
    Json& pl = r.per_layer;
    counter_layers(traced.front().delta, traced.front().wall_s, pl);
    pl.set("data.load_ms", median(load_ms));
    replay_layers(opts, "reference", pl);
    finish_trace(opts);
    zero_layers(pl, {"train.wall_s", "train.accounted_frac",
                     "serve.batch_mean", "serve.enqueue_p99_us"});
    pl.set("obs.trace_overhead_frac",
           median(throughput(units)) / median(throughput(traced)) - 1.0);
  }
  return r;
}

// ----------------------------------------------------------- serve_openloop

namespace {

// Fixed open-loop rates, so that a faster or slower program meets the same
// offered load: about 22% and 55% of the closed-loop capacity (~18000 rps) of
// a shared 4-core AVX512 VM when the benchmark was defined. The high rate
// stays below 75% of the slowest capacity seen there (13500 rps), so a slow
// spell of the machine does not turn the run into an overload.
constexpr double kServeLowRps = 4000.0;
constexpr double kServeHighRps = 10000.0;
// Closed-loop capacity probe: this many requests kept outstanding.
constexpr int kCapacityOutstanding = 64;
// A run whose generator's median lag exceeds this is invalid: the generator
// could not keep its schedule, so its latencies would measure the generator,
// not the pool. The p99 lag is reported but not bounded: it also carries the
// shared VM's scheduling stalls (up to ~25 ms seen on a 4-vCPU VM), which
// every request's latency counts anyway because it runs from the due time.
constexpr double kMaxGenLagP50Ms = 1.0;
constexpr int kReplicas = 2;
constexpr int kServeImages = 1000;
constexpr int kCanaryImages = 300;
// Served-stream error vs the fleet's canary error on the same images
// (sampling noise on ~10^4 requests is well under 1%).
constexpr double kServedErrBound = 0.03;

struct PhaseOut {
  std::vector<double> lat_ms;
  std::vector<double> lag_ms;
  long offered = 0;
  long answered = 0;
  long shed = 0;
  long wrong = 0;
  long bad = 0;  // label out of range or wrong prediction count
  double mean_batch = 0.0;
  double enqueue_p99_us = 0.0;
  double rps = 0.0;  // completions per second (closed loop)
  CounterSnapshot delta;
};

struct Pending {
  Clock::time_point due;
  int label;
  std::future<std::vector<ber::Prediction>> fut;
};

void score(PhaseOut& out, std::vector<ber::Prediction> preds, int label,
           int classes) {
  if (preds.size() != 1 || preds[0].label < 0 || preds[0].label >= classes) {
    ++out.bad;
    return;
  }
  ++out.answered;
  if (preds[0].label != label) ++out.wrong;
}

// Open loop: a Poisson schedule precomputed from the seed. This thread both
// submits and harvests, spinning between due times instead of sleeping:
// a sleeping generator on a busy 4-core machine wakes late, and the pool's
// two workers plus this one thread leave a core to spare. Latency runs from
// each request's due time, so a late generator or a stalled pool both show.
PhaseOut open_loop(ber::ReplicaPool& pool, const std::vector<ber::Tensor>& images,
                   const std::vector<int>& labels, int classes, double rate,
                   double seconds, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(rate);
  std::uniform_int_distribution<std::size_t> pick(0, images.size() - 1);
  std::vector<std::pair<double, std::size_t>> schedule;
  for (double t = gap(rng); t < seconds; t += gap(rng)) {
    schedule.emplace_back(t, pick(rng));
  }

  PhaseOut out;
  out.offered = static_cast<long>(schedule.size());
  out.lag_ms.reserve(schedule.size());
  out.lat_ms.reserve(schedule.size());
  std::vector<Pending> pending;
  auto ms_since = [](Clock::time_point t0, Clock::time_point t1) {
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
  };

  const ber::ServingStats s0 = pool.stats();
  const auto h0 = pool.latency_histogram().snapshot();
  const CounterSnapshot c0 = CounterSnapshot::take();
  const auto start = Clock::now() + std::chrono::milliseconds(2);
  std::size_t next = 0;
  while (next < schedule.size() || !pending.empty()) {
    const auto now = Clock::now();
    if (next < schedule.size()) {
      const auto& [t, idx] = schedule[next];
      const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(t));
      if (now >= due) {
        out.lag_ms.push_back(ms_since(due, now));
        try {
          pending.push_back({due, labels[idx], pool.submit(images[idx])});
        } catch (const ber::QueueFullError&) {
          ++out.shed;
        }
        ++next;
        continue;
      }
    }
    for (std::size_t i = 0; i < pending.size();) {
      if (pending[i].fut.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++i;
        continue;
      }
      out.lat_ms.push_back(ms_since(pending[i].due, now));
      score(out, pending[i].fut.get(), pending[i].label, classes);
      pending[i] = std::move(pending.back());
      pending.pop_back();
    }
  }
  out.delta = CounterSnapshot::take() - c0;
  const ber::ServingStats s1 = pool.stats();
  const long batches = s1.batches - s0.batches;
  out.mean_batch = batches > 0
                       ? static_cast<double>(s1.images - s0.images) / batches
                       : 0.0;
  out.enqueue_p99_us =
      (pool.latency_histogram().snapshot() - h0).quantile(0.99);
  return out;
}

// Closed loop: keep `outstanding` requests in flight for `seconds`; the
// completion rate is the pool's capacity.
PhaseOut closed_loop(ber::ReplicaPool& pool, const std::vector<ber::Tensor>& images,
                     const std::vector<int>& labels, int classes,
                     int outstanding, double seconds) {
  PhaseOut out;
  std::deque<Pending> inflight;
  std::size_t next = 0;
  auto submit = [&] {
    const std::size_t idx = next++ % images.size();
    inflight.push_back({Clock::now(), labels[idx], pool.submit(images[idx])});
    ++out.offered;
  };
  const CounterSnapshot c0 = CounterSnapshot::take();
  const auto start = Clock::now();
  for (int i = 0; i < outstanding; ++i) submit();
  long completed = 0;
  double elapsed = 0.0;
  while ((elapsed = since_s(start)) < seconds) {
    Pending p = std::move(inflight.front());
    inflight.pop_front();
    score(out, p.fut.get(), p.label, classes);
    ++completed;
    submit();
  }
  out.rps = static_cast<double>(completed) / elapsed;
  for (Pending& p : inflight) score(out, p.fut.get(), p.label, classes);
  out.delta = CounterSnapshot::take() - c0;
  return out;
}

}  // namespace

Result run_serve_openloop(const Options& opts) {
  Result r;
  const std::uint64_t seed = opts.seed % 1000000;
  const ber::data::SourceSpec src =
      c10_source(kToyModel.image_size, 0, kServeImages, 13);
  const ber::kernels::ScopedBackend backend("blocked");
  const std::vector<double> voltages = {1.0, 0.95, 0.9, 0.85, 0.8};

  std::unique_ptr<ber::Sequential> model;
  ber::QuantScheme scheme;
  ber::Dataset data, canary;
  std::unique_ptr<ber::OperatingPointPlanner> planner;
  ber::OperatingPointPlan plan;
  ber::SloConfig slo;
  std::vector<ber::Replica> fleet;
  std::vector<double> setup_s, load_ms;
  std::vector<Json> plans;  // chosen voltage and RErr per grid point
  const ber::RandomBitErrorModel fault(ber::BitErrorConfig{0.01},
                                       3000 + 100 * seed);
  for (int k = 0; k < 5; ++k) {
    const auto t0 = Clock::now();
    fleet.clear();
    planner.reset();
    model = load_model(opts, kToyModel, &scheme);
    const auto t1 = Clock::now();
    data = ber::data::load_split(src, false);
    load_ms.push_back(since_s(t1) * 1e3);
    canary = data.head(kCanaryImages);
    planner = std::make_unique<ber::OperatingPointPlanner>(*model, scheme);
    planner->set_compute_on_codes(false);
    slo.max_rerr = ber::test_error(*model, canary, &scheme, 100) + 0.05;
    plan = planner->plan(fault, canary, voltages, slo, 4, 100);
    fleet = planner->deploy_fleet(fault, plan, kReplicas);
    setup_s.push_back(since_s(t0));
    Json grid = Json::array();
    for (const ber::GridPoint& g : plan.grid) grid.push_back(g.rerr.mean_rerr);
    plans.push_back(Json::object()
                        .set("chosen_v", plan.chosen_point().voltage)
                        .set("rerr", std::move(grid)));
  }
  r.setup_s = median(setup_s);
  r.check("plan is feasible", plan.feasible);
  r.check("every set-up plans the same operating point",
          std::all_of(plans.begin(), plans.end(),
                      [&](const Json& p) { return p == plans.front(); }));

  std::vector<ber::Tensor> images;
  std::vector<int> labels;
  {
    ber::Tensor batch;
    for (long i = 0; i < data.size(); ++i) {
      std::vector<int> l;
      data.batch(i, i + 1, batch, l);
      images.push_back(batch.reshaped({batch.shape(1), batch.shape(2),
                                       batch.shape(3)}));
      labels.push_back(l[0]);
    }
  }
  const int classes = data.num_classes;

  ber::BatchQueueConfig qc;
  qc.max_batch = 32;
  qc.max_wait_us = 500;
  qc.max_queue_images = 4096;
  ber::ReplicaPool pool(std::move(fleet), qc);
  // Warm the workers, arenas and caches before anything is timed.
  closed_loop(pool, images, labels, classes, kCapacityOutstanding, 0.3);

  struct Phases {
    PhaseOut low, high, cap;
  };
  auto run_phases = [&](double seconds) {
    Phases p;
    p.low = open_loop(pool, images, labels, classes, kServeLowRps,
                      seconds * 0.35, seed * 4 + 1);
    p.high = open_loop(pool, images, labels, classes, kServeHighRps,
                       seconds * 0.35, seed * 4 + 2);
    p.cap = closed_loop(pool, images, labels, classes, kCapacityOutstanding,
                        seconds * 0.3);
    return p;
  };
  r.startup_s = since_s(kProcessStart);
  Phases u = run_phases(opts.trace ? opts.seconds * kTracedShare : opts.seconds);
  Phases t;
  if (opts.trace) {
    ber::obs::start_tracing();
    t = run_phases(opts.seconds * kTracedShare);
  }
  pool.drain();

  // Correctness: every request answered or shed, labels in range, and the
  // served error consistent with what the fleet's canaries measure.
  double canary_sum = 0.0;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    canary_sum += pool.replica(i).canary(data).error;
  }
  const double canary_err = canary_sum / pool.size();
  long offered = 0, answered = 0, shed = 0, wrong = 0, bad = 0;
  double lag_p50 = 0.0, lag_p99 = 0.0;
  for (const PhaseOut* p : {&u.low, &u.high, &u.cap, &t.low, &t.high, &t.cap}) {
    offered += p->offered;
    answered += p->answered;
    shed += p->shed;
    wrong += p->wrong;
    bad += p->bad;
    if (p->lag_ms.empty()) continue;
    lag_p50 = std::max(lag_p50, median(p->lag_ms));
    lag_p99 = std::max(lag_p99, quantile(p->lag_ms, 0.99));
  }
  r.attempted += offered;
  r.failed += shed + bad;
  r.check("offered = answered + shed, labels in range",
          offered == answered + shed + bad && bad == 0,
          Json::object().set("offered", offered).set("answered", answered)
              .set("shed", shed));
  const double served_err =
      answered > 0 ? static_cast<double>(wrong) / answered : 1.0;
  r.check("served error within bound of canary error",
          std::abs(served_err - canary_err) <= kServedErrBound,
          Json::object().set("served", served_err).set("canary", canary_err));
  r.check("generator kept its schedule (median lag within bound)",
          lag_p50 <= kMaxGenLagP50Ms, lag_p50);

  // The forward work per served image does not depend on how the pool
  // batched it: every phase must do exactly per-image work x images.
  auto images_of = [](const PhaseOut& p) {
    return static_cast<double>(p.offered - p.shed);
  };
  Json per_image = Json::object();
  for (const char* n : {"kernels.gemm_flops", "kernels.im2col_bytes"}) {
    const double each = u.low.delta[n] / images_of(u.low);
    bool exact = each > 0 && each == std::floor(each);
    for (const PhaseOut* p : {&u.high, &u.cap, &t.low, &t.high, &t.cap}) {
      if (p->offered > 0) exact = exact && p->delta[n] == each * images_of(*p);
    }
    r.check(std::string(n) + " per served image repeats in every phase", exact,
            each);
    per_image.set(n, each);
  }

  r.clean_err = ber::test_error(*model, data, &scheme, 100);
  r.rerr_mean = canary_err;
  r.work_per_s = u.cap.rps;
  r.metrics.set("setup_s", median_json(setup_s, "s"));
  set_latency(r.metrics, "serve_low", u.low.lat_ms);
  set_latency(r.metrics, "serve_high", u.high.lat_ms);
  r.metrics.set("serve_capacity_rps",
                Json::object().set("value", u.cap.rps)
                    .set("outstanding", kCapacityOutstanding)
                    .set("unit", "1/s"));
  r.metrics.set("gen_lag_p99_ms", Json::object().set("value", lag_p99).set("unit", "ms"));
  r.metrics.set("gen_lag_p50_ms", Json::object().set("value", lag_p50).set("unit", "ms"));
  r.metrics.set("serve_low_mean_batch", u.low.mean_batch);
  r.metrics.set("serve_high_mean_batch", u.high.mean_batch);
  r.metrics.set("offered_rps",
                Json::object().set("serve_low", kServeLowRps)
                    .set("serve_high", kServeHighRps));

  r.counts.set("plan", plans.front());
  r.counts.set("per_served_image", std::move(per_image));
  r.counts.set("offered", Json::object()
                              .set("serve_low", u.low.offered)
                              .set("serve_high", u.high.offered));
  r.counts.set("profile", profile_json(*model, {1, 3, 12, 12}));

  if (opts.trace) {
    Json& pl = r.per_layer;
    counter_layers(t.high.delta, 0.0, pl);
    pl.set("data.load_ms", median(load_ms));
    replay_layers(opts, "reference", pl);
    finish_trace(opts);
    pl.set("serve.batch_mean", t.high.mean_batch);
    pl.set("serve.enqueue_p99_us", t.high.enqueue_p99_us);
    zero_layers(pl, {"train.wall_s", "train.accounted_frac"});
    pl.set("obs.trace_overhead_frac", u.cap.rps / t.cap.rps - 1.0);
  }
  return r;
}

// ------------------------------------------------------------- make_models

void make_models(const std::string& dir) {
  std::filesystem::create_directories(dir);
  struct Recipe {
    ModelFile mf;
    int n_train, epochs, warmup;
    float wmax;
    const char* backend;
  };
  // The toy model is the quickstart recipe in full; the paper-scale model is
  // shorter (its training is ~30x the work per image).
  for (const Recipe& rc : {Recipe{kToyModel, 1500, 30, 3, 0.15f, "reference"},
                           Recipe{kPaperModel, 2000, 8, 2, 0.1f, "blocked"}}) {
    const auto t0 = Clock::now();
    const ber::data::SourceSpec src =
        c10_source(rc.mf.image_size, rc.n_train, 500, 7);
    const ber::Dataset train = ber::data::load_split(src, true);
    const ber::Dataset test = ber::data::load_split(src, false);
    ber::ModelConfig mc;
    mc.image_size = rc.mf.image_size;
    mc.width = rc.mf.width;
    auto model = ber::build_model(mc);
    ber::TrainConfig tc;
    tc.method = ber::Method::kRandBET;
    tc.quant = ber::QuantScheme::rquant(8);
    tc.wmax = rc.wmax;
    tc.p_train = 0.01;
    tc.epochs = rc.epochs;
    tc.lr_warmup_epochs = rc.warmup;
    tc.backend = rc.backend;
    const ber::TrainStats st = ber::train(*model, train, test, tc);
    ber::save_checkpoint(dir + "/" + rc.mf.file, *model, tc.quant);
    std::fprintf(stderr, "%s: clean test err %.4f, injection from epoch %d, %.1f s\n",
                 rc.mf.file, st.final_test_err, st.bit_error_start_epoch,
                 since_s(t0));
  }
}

}  // namespace perfbench
