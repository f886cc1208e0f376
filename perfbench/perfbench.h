// Shared pieces of the measuring program: options, timing statistics, registry
// counter snapshots and the result record each workload fills in.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/json.h"
#include "nn/sequential.h"
#include "quant/quantizer.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double since_s(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// When the process started (static initialisation of the program).
extern const Clock::time_point kProcessStart;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string model_dir;  // the benchmark's checkpoints
  std::string trace_out;  // chrome://tracing file of the traced phase
};

// Median / linear-interpolated quantile of raw samples (copies; empty -> 0).
double median(std::vector<double> v);
double quantile(std::vector<double> v, double q);

// A latency distribution as the benchmark reports it, as <name>.p50_ms,
// <name>.p99_ms, <name>.tail_ms (the highest of p90/p99/p99.9/p99.99 that
// still has at least ten samples beyond it) and <name>.samples.
void set_latency(ber::Json& metrics, const std::string& name,
                 const std::vector<double>& samples_ms);

// A throughput or duration summarised over repeated units of work.
ber::Json median_json(const std::vector<double>& samples, const char* unit);

// Registry counters and histogram sums summed over label sets, by name.
struct CounterSnapshot {
  std::map<std::string, double> values;  // by name, summed over labels
  std::map<std::string, double> raw;     // by canonical registry key
  static CounterSnapshot take();
  double operator[](const std::string& name) const;
  // Per-label value, e.g. kernels.gemm_flops for backend="reference".
  double labeled(const std::string& name, const std::string& label) const;
  CounterSnapshot operator-(const CounterSnapshot& earlier) const;
};

// The deterministic count names compared between repeated units of work.
ber::Json count_json(const CounterSnapshot& delta);

// Per-layer MACs / weights / activations of one inference (accel profile).
ber::Json profile_json(ber::Sequential& model, const std::vector<long>& shape);

struct Result {
  ber::Json metrics = ber::Json::object();    // workload-specific metrics
  ber::Json per_layer = ber::Json::object();  // traced run only
  ber::Json counts = ber::Json::object();     // must repeat exactly
  ber::Json checks = ber::Json::array();
  double setup_s = 0.0;    // median of the repeated set-ups
  double startup_s = 0.0;  // process start to the first timed unit
  double work_per_s = 0.0;
  double clean_err = 0.0;
  double rerr_mean = 0.0;
  long attempted = 0;
  long failed = 0;

  // Records a correctness check; a failed check counts as a failed operation.
  void check(const std::string& name, bool ok, ber::Json detail = nullptr);
};

// The benchmark's models: a 12x12 width-8 SimpleNet trained with the
// quickstart recipe (serving), and the paper-scale 32x32 width-32 SimpleNet
// (int8 sweep). Both are RQuant 8-bit checkpoints.
struct ModelFile {
  const char* file;
  int image_size;
  int width;
};
inline constexpr ModelFile kToyModel{"serve_toy.ckpt", 12, 8};
inline constexpr ModelFile kPaperModel{"sweep_w32.ckpt", 32, 32};

// Batch sizes shared by the workloads and the per-layer replays. Training
// uses the trainer's default (and the quickstart recipe's) batch of 100.
inline constexpr int kTrainBatch = 100;
inline constexpr long kSweepBatch = 50;

std::unique_ptr<ber::Sequential> load_model(const Options& opts,
                                            const ModelFile& mf,
                                            ber::QuantScheme* scheme);

Result run_train_randbet(const Options& opts);
Result run_sweep_codes(const Options& opts);
Result run_serve_openloop(const Options& opts);

// Replays each module's public functions at the shapes the workloads use and
// fills the per-layer metrics that do not depend on the workload.
// `train_backend` is the backend training ran on. Returns the sum of the
// per-layer forward and backward times of one training batch, in us.
double replay_layers(const Options& opts, const std::string& train_backend,
                     ber::Json& per_layer);

// Trains and writes both checkpoints into `dir` (used once to create them).
void make_models(const std::string& dir);

}  // namespace perfbench
