#include "bench_util.h"

#include <algorithm>
#include <cstdio>

namespace ber::bench {

void banner(const std::string& paper_ref, const std::string& what) {
  // Determinism guard: paper benches pin the reference backend so a
  // BER_BACKEND override (or a future default flip) can never let blocked-
  // kernel FP reassociation silently shift published numbers.
  kernels::set_default_backend("reference");
  std::printf("=== %s — %s ===\n", paper_ref.c_str(), what.c_str());
  std::printf(
      "(reproduction on synthetic data/scaled models; compare SHAPE, not "
      "absolute values — see EXPERIMENTS.md)\n\n");
}

double clean_err_pct(const std::string& name) {
  const zoo::Spec& s = zoo::spec(name);
  Sequential& model = zoo::get(name);
  const QuantScheme scheme = s.train_cfg.quant;
  return 100.0 * test_error(model, zoo::test_set(s.dataset), &scheme);
}

RobustResult rerr(const std::string& name, double p) {
  return rerr_with_scheme(name, zoo::scheme_of(name), p);
}

RobustResult rerr_with_scheme(const std::string& name,
                              const QuantScheme& scheme, double p) {
  // One-point declarative experiment: zoo model, "random" fault at rate p,
  // the historical seed base. Identical numbers to a standalone
  // RobustnessEvaluator run (regression-pinned in tests/test_api.cpp).
  Json params = Json::object();
  params.set("p", p);
  params.set("seed_base", 1000);
  const api::Report report = api::Experiment("bench_rerr")
                                 .zoo(name)
                                 .fault("random", std::move(params))
                                 .trials(zoo::default_chips())
                                 .clean_err(false)
                                 .eval_quant(scheme)
                                 .run();
  return report.models.front().points.front().result;
}

std::vector<RobustResult> rerr_sweep(const std::string& name,
                                     const std::vector<double>& grid) {
  // The whole p grid in one declarative experiment: the Runner quantizes
  // once and builds each chip's fault list once at max(grid)
  // (RobustnessEvaluator::run_rate_sweep); element i is bit-identical to
  // rerr(name, grid[i]).
  const api::Report report = api::Experiment("bench_rerr_sweep")
                                 .zoo(name)
                                 .fault("random", Json::object())
                                 .rate_grid(grid)
                                 .trials(zoo::default_chips())
                                 .clean_err(false)
                                 .run();
  std::vector<RobustResult> out;
  out.reserve(report.models.front().points.size());
  for (const api::ReportPoint& pt : report.models.front().points) {
    out.push_back(pt.result);
  }
  return out;
}

std::string fmt_rerr(const RobustResult& r) {
  return TablePrinter::fmt_pm(100.0 * r.mean_rerr, 100.0 * r.std_rerr);
}

const std::vector<double>& c10_p_grid() {
  static const std::vector<double> g{0.0001, 0.0005, 0.001, 0.005,
                                     0.01,   0.015,  0.025};
  return g;
}

const std::vector<double>& c100_p_grid() {
  static const std::vector<double> g{0.00001, 0.0001, 0.0005, 0.001, 0.005,
                                     0.01};
  return g;
}

const std::vector<double>& mnist_p_grid() {
  static const std::vector<double> g{0.01, 0.05, 0.10, 0.15, 0.20};
  return g;
}

}  // namespace ber::bench
