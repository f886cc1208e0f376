// perfbench: the repository benchmark's measuring program.
//
//   perfbench --workload <train_randbet|sweep_codes|serve_openloop>
//             --seed <n> --seconds <s> --trace <0|1> --models <dir>
//             [--trace-out <file>]
//   perfbench --make-models <dir>
//
// Runs one workload through the library's public entry points and prints
// one JSON object on stdout: the workload's metrics, the deterministic
// counts, every correctness check, and (traced runs) the per-layer metrics.
// perfbench/run.py builds this program, isolates its environment and turns
// the object into the benchmark's result line.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <thread>

#include "accel/accelerator.h"
#include "core/parallel.h"
#include "models/factory.h"
#include "obs/metrics.h"
#include "perfbench.h"
#include "serve/checkpoint.h"

namespace perfbench {

using ber::Json;

const Clock::time_point kProcessStart = Clock::now();

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

void set_latency(Json& metrics, const std::string& name,
                 const std::vector<double>& samples_ms) {
  const double n = static_cast<double>(samples_ms.size());
  auto ms = [](double v) { return Json::object().set("value", v).set("unit", "ms"); };
  metrics.set(name + ".p50_ms", ms(median(samples_ms)));
  metrics.set(name + ".p99_ms", ms(quantile(samples_ms, 0.99)));
  // The highest percentile that still has ten samples beyond it.
  for (double q : {0.9999, 0.999, 0.99, 0.9}) {
    if (n * (1.0 - q) >= 10.0) {
      metrics.set(name + ".tail_ms", ms(quantile(samples_ms, q)).set("q", q));
      break;
    }
  }
  metrics.set(name + ".samples", static_cast<long>(samples_ms.size()));
}

Json median_json(const std::vector<double>& samples, const char* unit) {
  Json j = Json::object();
  j.set("value", median(samples));
  j.set("n", static_cast<long>(samples.size()));
  Json all = Json::array();
  for (double v : samples) all.push_back(v);
  j.set("samples", std::move(all));
  j.set("unit", unit);
  return j;
}

CounterSnapshot CounterSnapshot::take() {
  CounterSnapshot s;
  const Json reg = ber::obs::registry().to_json();
  auto base = [](const std::string& key) {
    return key.substr(0, key.find('{'));
  };
  for (const auto& [key, v] : reg.at("counters").members()) {
    s.raw[key] = v.as_number();
    s.values[base(key)] += v.as_number();
  }
  for (const auto& [key, h] : reg.at("histograms").members()) {
    s.raw[key + ".sum"] = h.at("sum").as_number();
    s.values[base(key) + ".sum"] += h.at("sum").as_number();
    s.values[base(key) + ".count"] += h.at("count").as_number();
  }
  return s;
}

double CounterSnapshot::operator[](const std::string& name) const {
  const auto it = values.find(name);
  return it == values.end() ? 0.0 : it->second;
}

double CounterSnapshot::labeled(const std::string& name,
                                const std::string& label) const {
  const auto it = raw.find(name + "{" + label + "}");
  return it == raw.end() ? 0.0 : it->second;
}

CounterSnapshot CounterSnapshot::operator-(const CounterSnapshot& earlier) const {
  CounterSnapshot d = *this;
  for (auto& [k, v] : d.values) v -= earlier[k];
  for (auto& [k, v] : d.raw) {
    const auto it = earlier.raw.find(k);
    if (it != earlier.raw.end()) v -= it->second;
  }
  return d;
}

Json count_json(const CounterSnapshot& delta) {
  // Work counts that depend only on the inputs, never on timing: GEMM call
  // counts under the serving pool depend on batching and stay out.
  static const char* kNames[] = {
      "kernels.gemm_flops", "kernels.qgemm_flops", "kernels.im2col_bytes",
      "kernels.conv_images", "kernels.qconv_images", "faults.words_patched",
      "faults.trials", "faults.fault_lists_built", "data.batches_produced"};
  Json j = Json::object();
  for (const char* n : kNames) j.set(n, delta[n]);
  return j;
}

Json profile_json(ber::Sequential& model, const std::vector<long>& shape) {
  Json layers = Json::array();
  for (const ber::LayerProfile& lp : ber::profile_model(model, shape)) {
    Json l = Json::object();
    l.set("name", lp.name);
    l.set("macs", lp.macs);
    l.set("weights", lp.weights);
    l.set("activations", lp.activations);
    layers.push_back(std::move(l));
  }
  return layers;
}

void Result::check(const std::string& name, bool ok, Json detail) {
  ++attempted;
  if (!ok) ++failed;
  Json c = Json::object();
  c.set("name", name);
  c.set("ok", ok);
  if (!detail.is_null()) c.set("detail", std::move(detail));
  checks.push_back(std::move(c));
}

std::unique_ptr<ber::Sequential> load_model(const Options& opts,
                                            const ModelFile& mf,
                                            ber::QuantScheme* scheme) {
  ber::ModelConfig mc;
  mc.image_size = mf.image_size;
  mc.width = mf.width;
  auto model = ber::build_model(mc);
  const ber::QuantScheme s =
      ber::load_checkpoint(opts.model_dir + "/" + mf.file, *model);
  if (scheme != nullptr) *scheme = s;
  return model;
}

namespace {

// Peak resident memory of the whole process. A run whose large blocks cross
// glibc's dynamic mmap threshold can take a one-time step of ~25 MB (seen
// with 50-image training batches).
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // kB -> MB
}

Json manifest() {
  Json m = Json::object();
  m.set("compiler", PERFBENCH_COMPILER);
  Json isa = Json::object();
  __builtin_cpu_init();
  isa.set("avx2", __builtin_cpu_supports("avx2") != 0);
  isa.set("avx512f", __builtin_cpu_supports("avx512f") != 0);
  isa.set("avx512vnni", __builtin_cpu_supports("avx512vnni") != 0);
  m.set("isa", std::move(isa));
  m.set("nproc", static_cast<long>(std::thread::hardware_concurrency()));
  m.set("threads", static_cast<long>(ber::default_threads()));
  return m;
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg);
  std::exit(2);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opts;
  std::string make_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") opts.workload = v;
    else if (a == "--seed") opts.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (a == "--seconds") opts.seconds = std::atof(v.c_str());
    else if (a == "--trace") opts.trace = v == "1";
    else if (a == "--models") opts.model_dir = v;
    else if (a == "--trace-out") opts.trace_out = v;
    else if (a == "--make-models") make_dir = v;
    else usage(("unknown argument " + a).c_str());
  }
  try {
    if (!make_dir.empty()) {
      make_models(make_dir);
      return 0;
    }
    if (opts.model_dir.empty()) usage("--models is required");
    if (!(opts.seconds > 0.0)) usage("--seconds must be positive");
    Result r;
    if (opts.workload == "train_randbet") r = run_train_randbet(opts);
    else if (opts.workload == "sweep_codes") r = run_sweep_codes(opts);
    else if (opts.workload == "serve_openloop") r = run_serve_openloop(opts);
    else usage(("unknown workload " + opts.workload).c_str());

    Json out = Json::object();
    out.set("workload", opts.workload);
    out.set("seed", static_cast<std::uint64_t>(opts.seed));
    out.set("trace", opts.trace);
    out.set("manifest", manifest());
    Json uni = Json::object();
    uni.set("setup_s", r.setup_s);
    uni.set("work_per_s", r.work_per_s);
    uni.set("clean_err", r.clean_err);
    uni.set("rerr_mean", r.rerr_mean);
    uni.set("peak_rss_mb", peak_rss_mb());
    out.set("end_to_end", std::move(uni));
    r.metrics.set("startup_s",
                  Json::object().set("value", r.startup_s).set("unit", "s"));
    out.set("metrics", std::move(r.metrics));
    out.set("counts", std::move(r.counts));
    out.set("checks", std::move(r.checks));
    out.set("attempted", r.attempted);
    out.set("failed", r.failed);
    if (opts.trace) out.set("per_layer", std::move(r.per_layer));
    std::printf("%s\n", out.dump().c_str());
    std::fflush(stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
