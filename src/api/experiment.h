// The experiment engine: a fluent builder over ExperimentSpec, a Runner that
// owns the two lifecycles behind every number in the repo —
//
//   robustness:  resolve model (zoo / train / checkpoint cache) ->
//                quantize once -> construct the fault model by registry
//                name -> sweep (rate grid / voltage grid / generic param
//                grid / single point) -> aggregate
//   serve:       resolve model -> checkpoint -> plan the operating point
//                (voltage sweep + SRAM energy + SLO) -> deploy a fleet ->
//                canary + optional traffic drive through the ReplicaPool
//
// — and a structured Report (JSON-ready via core/json) carrying both the
// machine-readable results and the RobustResults benches format tables
// from. bench_util's rerr/rerr_sweep helpers and the ber_run CLI are thin
// shells over this; a Runner run of a spec is bit-identical to the legacy
// hand-wired paths for a fixed seed (pinned in tests/test_api.cpp).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/spec.h"
#include "core/json.h"
#include "faults/evaluator.h"
#include "serve/planner.h"

namespace ber::api {

// One sweep point of one model: x is the point's position on the sweep axis
// (rate, voltage or the generic grid parameter; 0 for single-point runs).
struct ReportPoint {
  double x = 0.0;
  RobustResult result;
};

struct ModelReport {
  std::string name;       // zoo name or inline entry name
  std::string label;      // table row label
  std::string axis;       // "p" | "v" | grid param | "" (single point)
  double clean_err = -1.0;  // fraction; -1 = not requested
  std::string fault;      // FaultModel::describe() of the last point
  std::vector<ReportPoint> points;
  // ForensicsCollector::to_json() when eval.forensics was enabled for this
  // model (flip ledger totals, bit-position attribution, probe summaries);
  // null otherwise.
  Json forensics;
};

// Deterministic serving-lifecycle results (plus traffic counters when the
// spec drives open-loop traffic through the pool).
struct ServeReport {
  double clean_err = 0.0;
  SloConfig slo;
  OperatingPointPlan plan;
  std::vector<double> canary_errs;  // per replica, deployed at plan.chosen
  double fleet_energy = 1.0;        // mean energy/access vs Vmin
  long requests = 0;                // offered by the traffic generator
  long answered = 0;
  long rejected = 0;                // shed at admission (queue full)
  double mean_batch = 0.0;
  // Windowed SLO timeline (SloScoreboard::to_json()) when the spec drives
  // open-loop traffic; null otherwise.
  Json timeline;
};

struct Report {
  ExperimentSpec spec;
  std::vector<ModelReport> models;  // robustness kind
  ServeReport serve;                // serve kind
  // Snapshot of the obs metrics registry taken when the run finished
  // (cumulative for the process — a second run's snapshot includes the
  // first's counts). Null if the Report was built by hand.
  Json metrics;
  Json to_json() const;
};

// Executes a validated spec. The Runner owns inline-trained models and any
// datasets it builds; zoo models stay in the zoo cache.
class Runner {
 public:
  explicit Runner(ExperimentSpec spec);  // validates
  Report run();

 private:
  struct ResolvedModel {
    Sequential* model = nullptr;
    QuantScheme scheme;
    std::string name;
    std::string label;
    const Dataset* train_set = nullptr;
    const Dataset* test_set = nullptr;
    const Dataset* eval_set = nullptr;  // split/subset applied
  };

  ResolvedModel resolve(const ModelEntry& entry);
  const Dataset& dataset(const DatasetSection& section, bool train);
  const Dataset& subset(const Dataset& full, long n);
  int n_trials() const;

  Report run_robustness();
  Report run_serve();

  ExperimentSpec spec_;
  std::vector<std::unique_ptr<Sequential>> owned_models_;
  // Eval subsets deduped by (parent dataset, n): a grid of models sharing
  // one eval set materializes its head exactly once. Full datasets live in
  // the process-wide data::dataset_store(), shared with the zoo.
  std::map<std::pair<const Dataset*, long>, std::unique_ptr<Dataset>>
      subsets_;
};

// Fluent builder: mirrors the spec sections for C++ callers (benches,
// examples, tests). Every setter returns *this; run() validates and
// executes.
//
//   Report r = Experiment("tab4")
//                  .zoo("c10_rquant").zoo("c10_randbet015_p1")
//                  .fault("random", params)
//                  .rate_grid({0.005, 0.01, 0.015})
//                  .run();
class Experiment {
 public:
  explicit Experiment(std::string name);

  Experiment& description(std::string text);
  Experiment& backend(std::string name);
  Experiment& compute_on_codes(bool on = true);
  Experiment& zoo(const std::string& zoo_name);
  Experiment& model(ModelEntry entry);
  // Fault params as a Json object (or omit for defaults).
  Experiment& fault(std::string model, Json params = Json::object());
  Experiment& rate_grid(std::vector<double> grid);
  Experiment& voltage_grid(std::vector<double> grid);
  Experiment& param_grid(std::string param, std::vector<double> values);
  Experiment& trials(int n);
  Experiment& split(std::string split);       // "rerr" | "test"
  Experiment& subset(long n);
  Experiment& batch(long n);
  Experiment& clean_err(bool enabled);
  Experiment& eval_quant(const QuantScheme& scheme);
  // Opt-in fault forensics (obs/forensics.h): flip ledger + attribution,
  // propagation probes on `probe_images` examples, and — for adversarial
  // faults — a budget-matched random control pass when `control` is set.
  Experiment& forensics(int probe_images = 0, bool control = false,
                        double threshold = 1e-4);
  Experiment& serve(ServeSection section);    // switches kind to "serve"

  // The validated spec (throws on inconsistencies).
  ExperimentSpec spec() const;
  Report run() const;

 private:
  ExperimentSpec spec_;
};

}  // namespace ber::api
