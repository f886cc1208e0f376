#include "api/experiment.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <utility>

#include "api/registry.h"
#include "api/zoo.h"
#include "core/env.h"
#include "data/source.h"
#include "data/store.h"
#include "eval/metrics.h"
#include "faults/profiled_chip_model.h"
#include "faults/random_bit_error_model.h"
#include "kernels/backend.h"
#include "obs/forensics.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/checkpoint.h"
#include "serve/replica_pool.h"
#include "tensor/ops.h"

namespace ber::api {

namespace {

// FNV-1a fingerprint of an inline model entry's normalized JSON — the
// checkpoint cache key, so editing any part of the recipe retrains instead
// of silently loading a stale artifact. Display-only fields are excluded:
// relabeling a report row must not invalidate the cache.
std::string fingerprint(const ModelEntry& entry) {
  ModelEntry hashed = entry;
  hashed.label.clear();
  const std::string text = model_entry_to_json(hashed).dump();
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

Json robust_result_json(double x, const std::string& axis,
                        const RobustResult& r) {
  Json j = Json::object();
  if (!axis.empty()) j.set(axis, x);
  j.set("rerr_mean", static_cast<double>(r.mean_rerr));
  j.set("rerr_std", static_cast<double>(r.std_rerr));
  j.set("confidence", static_cast<double>(r.mean_confidence));
  return j;
}

}  // namespace

// ------------------------------------------------------------------ Report --

Json Report::to_json() const {
  Json j = Json::object();
  j.set("experiment", spec.name);
  j.set("kind", spec.kind);
  j.set("backend", spec.backend);
  j.set("spec", spec.to_json());
  if (spec.kind == "serve") {
    const ServeReport& s = serve;
    Json sj = Json::object();
    sj.set("clean_err", s.clean_err);
    Json slo = Json::object();
    slo.set("max_rerr", s.slo.max_rerr);
    slo.set("z", s.slo.z);
    sj.set("slo", slo);
    sj.set("planner", plan_to_json(s.plan, s.slo));
    Json fleet = Json::object();
    fleet.set("replicas", static_cast<long>(s.canary_errs.size()));
    Json errs = Json::array();
    double mean_err = 0.0;
    for (double e : s.canary_errs) {
      errs.push_back(e);
      mean_err += e;
    }
    if (!s.canary_errs.empty()) {
      mean_err /= static_cast<double>(s.canary_errs.size());
    }
    fleet.set("canary_errs", std::move(errs));
    fleet.set("mean_canary_err", mean_err);
    fleet.set("slo_ok", mean_err <= s.slo.max_rerr);
    fleet.set("energy_per_access", s.fleet_energy);
    fleet.set("energy_saving", 1.0 - s.fleet_energy);
    sj.set("fleet", std::move(fleet));
    if (s.requests > 0) {
      Json t = Json::object();
      t.set("requests", s.requests);
      t.set("answered", s.answered);
      t.set("rejected", s.rejected);
      t.set("mean_batch", s.mean_batch);
      sj.set("traffic", std::move(t));
    }
    if (!s.timeline.is_null()) sj.set("timeline", s.timeline);
    j.set("serve", std::move(sj));
    if (!metrics.is_null()) j.set("metrics", metrics);
    return j;
  }
  Json ms = Json::array();
  for (const ModelReport& m : models) {
    Json mj = Json::object();
    mj.set("name", m.name);
    mj.set("label", m.label);
    if (m.clean_err >= 0.0) mj.set("clean_err", m.clean_err);
    mj.set("fault", m.fault);
    Json points = Json::array();
    for (const ReportPoint& pt : m.points) {
      points.push_back(robust_result_json(pt.x, m.axis, pt.result));
    }
    mj.set("points", std::move(points));
    if (!m.forensics.is_null()) mj.set("forensics", m.forensics);
    ms.push_back(std::move(mj));
  }
  j.set("models", std::move(ms));
  if (!metrics.is_null()) j.set("metrics", metrics);
  return j;
}

// ------------------------------------------------------------------ Runner --

Runner::Runner(ExperimentSpec spec) : spec_(std::move(spec)) {
  spec_.validate();
}

const Dataset& Runner::dataset(const DatasetSection& section, bool train) {
  // One keyed store for the whole process (data/store.h): an inline spec
  // model and a zoo model naming the same data share a materialization, and
  // file-backed sources stream through the prefetch pipeline in load_split.
  data::SourceSpec src{section.source, section.path, section.config};
  return data::dataset_store().get(
      data::dataset_key(src, train ? "train" : "test"),
      [&] { return data::load_split(src, train); });
}

const Dataset& Runner::subset(const Dataset& full, long n) {
  n = std::min(n, full.size());
  std::unique_ptr<Dataset>& slot = subsets_[{&full, n}];
  if (slot == nullptr) slot = std::make_unique<Dataset>(full.head(n));
  return *slot;
}

int Runner::n_trials() const {
  return spec_.eval.n_trials > 0 ? spec_.eval.n_trials : zoo::default_chips();
}

Runner::ResolvedModel Runner::resolve(const ModelEntry& entry) {
  BER_TRACE_SCOPE("runner", "resolve");
  ResolvedModel rm;
  if (entry.is_zoo()) {
    const zoo::Spec& zs = zoo::spec(entry.zoo);
    rm.model = &zoo::get(entry.zoo);
    rm.scheme = zoo::scheme_of(entry.zoo);
    rm.name = entry.zoo;
    rm.label = entry.label.empty() ? zs.label : entry.label;
    rm.train_set = &zoo::train_set(zs.dataset);
    rm.test_set = &zoo::test_set(zs.dataset);
    rm.eval_set = spec_.eval.split == "rerr" ? &zoo::rerr_set(zs.dataset)
                                             : rm.test_set;
  } else {
    const Dataset& train_data = dataset(entry.dataset, /*train=*/true);
    const Dataset& test_data = dataset(entry.dataset, /*train=*/false);
    if (entry.dataset.source != "synthetic") {
      // File-backed geometry is only known once the files are read (shard
      // headers especially); a mismatch against the model section would
      // otherwise surface as a shape error deep inside the first forward.
      for (const Dataset* d : {&train_data, &test_data}) {
        if (d->channels() != entry.model.in_channels ||
            d->height() != entry.model.image_size ||
            d->width() != entry.model.image_size ||
            d->num_classes != entry.model.num_classes) {
          throw std::invalid_argument(
              "experiment \"" + spec_.name + "\": dataset at \"" +
              entry.dataset.path + "\" is [" + std::to_string(d->channels()) +
              "x" + std::to_string(d->height()) + "x" +
              std::to_string(d->width()) + "], " +
              std::to_string(d->num_classes) + " classes, but the model "
              "section says in_channels=" +
              std::to_string(entry.model.in_channels) + " image_size=" +
              std::to_string(entry.model.image_size) + " num_classes=" +
              std::to_string(entry.model.num_classes));
        }
      }
    }
    auto model = build_model(entry.model);
    const std::string ckpt =
        entry.name.empty()
            ? ""
            : artifacts_dir() + "/api_" + entry.name + "_" +
                  fingerprint(entry) + ".ckpt";
    bool loaded = false;
    if (!ckpt.empty() && file_exists(ckpt)) {
      // The fingerprint covers the recipe, but stay defensive about stale /
      // hand-edited artifacts: a mismatched stored scheme, or a truncated /
      // corrupt file, forces a retrain (train() re-initializes the weights,
      // so a partial load leaves no trace).
      try {
        loaded = load_checkpoint(ckpt, *model) == entry.quant;
      } catch (const std::exception&) {
        loaded = false;
      }
    }
    if (!loaded) {
      // The training scheme is ALWAYS the entry's quant section — the JSON
      // parse path mirrors it, and enforcing it here covers builder-made
      // entries where train.quant was left at its default.
      TrainConfig tc = entry.train;
      tc.quant = entry.quant;
      // Training pins the reference backend (like the zoo) so a cached
      // artifact never depends on which backend the surrounding run uses.
      const kernels::ScopedBackend guard(kernels::backend("reference"));
      BER_TRACE_SCOPE("runner", "train");
      train(*model, train_data, test_data, tc);
      if (!ckpt.empty()) {
        ensure_dir(artifacts_dir());
        save_checkpoint(ckpt, *model, entry.quant);
      }
    }
    rm.scheme = entry.quant;
    rm.name = entry.name.empty() ? "inline" : entry.name;
    rm.label = entry.label.empty() ? rm.name : entry.label;
    rm.train_set = &train_data;
    rm.test_set = &test_data;
    if (spec_.eval.split == "rerr") {
      rm.eval_set =
          &subset(test_data, fast_mode() ? 200 : 500);
    } else {
      rm.eval_set = &test_data;
    }
    owned_models_.push_back(std::move(model));
    rm.model = owned_models_.back().get();
  }
  if (spec_.eval.has_quant_override) rm.scheme = spec_.eval.quant_override;
  if (spec_.eval.subset > 0) {
    rm.eval_set = &subset(*rm.eval_set, spec_.eval.subset);
  }
  return rm;
}

Report Runner::run_robustness() {
  Report report;
  report.spec = spec_;
  const EvalSection& e = spec_.eval;
  const int n = n_trials();
  for (const ModelEntry& entry : spec_.models) {
    ResolvedModel rm = resolve(entry);
    BER_TRACE_SCOPE("runner", "robustness");
    ModelReport mr;
    mr.name = rm.name;
    mr.label = rm.label;
    if (e.clean_err) {
      mr.clean_err = test_error(*rm.model, *rm.test_set, &rm.scheme, e.batch);
    }

    const bool float_space = spec_.fault.model == "linf";
    std::optional<RobustnessEvaluator> evaluator;
    if (float_space) {
      evaluator.emplace(*rm.model);
    } else {
      evaluator.emplace(*rm.model, rm.scheme);
      // Spec opt-in only adds to the environment default (set via the
      // evaluator's own member initializer) — it never forces it off.
      if (spec_.compute_on_codes) evaluator->set_compute_on_codes(true);
    }
    FaultContext ctx;
    ctx.model = rm.model;
    ctx.scheme = &rm.scheme;
    ctx.attack_set = rm.train_set;
    ctx.n_trials = n;
    if (!float_space) ctx.layout = &evaluator->snapshot();

    // Opt-in fault forensics: a fresh ledger per model (sweeps accumulate
    // across points, models don't mix), probes prepared against the same
    // deployment mode the trials use, and the words_patched counter
    // bracketed so the report can reconcile ledger totals against it.
    // validate() already rejects forensics for float-space faults.
    const ForensicsSection& fx = e.forensics;
    const bool do_forensics = fx.enabled && !float_space;
    std::unique_ptr<obs::ForensicsCollector> collector;
    std::uint64_t words_before = 0;
    if (do_forensics) {
      obs::fault_ledger().clear();
      obs::fault_ledger().set_enabled(true);
      obs::ForensicsOptions fo;
      fo.probe_images = fx.probe_images;
      fo.divergence_threshold = fx.threshold;
      collector = std::make_unique<obs::ForensicsCollector>(fo);
      collector->prepare_probes(*rm.model, evaluator->snapshot(),
                                evaluator->compute_on_codes(), *rm.eval_set);
      evaluator->set_forensics(collector.get(), "eval");
      words_before = obs::registry().counter("faults.words_patched").value();
    }

    if (!e.rate_grid.empty()) {
      auto fault = make_fault_model(spec_.fault.model,
                                    resolved_fault_params(spec_, nullptr), ctx);
      const auto* random = dynamic_cast<const RandomBitErrorModel*>(fault.get());
      if (random == nullptr) {
        throw std::invalid_argument(
            "rate_grid sweeps need a RandomBitErrorModel-backed fault");
      }
      mr.axis = "p";
      mr.fault = fault->describe();
      const std::vector<RobustResult> sweep = evaluator->run_rate_sweep(
          *random, e.rate_grid, *rm.eval_set, n, e.batch);
      for (std::size_t i = 0; i < sweep.size(); ++i) {
        mr.points.push_back({e.rate_grid[i], sweep[i]});
      }
    } else if (!e.voltage_grid.empty()) {
      auto fault = make_fault_model(spec_.fault.model,
                                    resolved_fault_params(spec_, nullptr), ctx);
      const auto* profiled = dynamic_cast<const ProfiledChipModel*>(fault.get());
      if (profiled == nullptr) {
        throw std::invalid_argument(
            "voltage_grid sweeps need a ProfiledChipModel-backed fault");
      }
      mr.axis = "v";
      mr.fault = fault->describe();
      const std::vector<RobustResult> sweep = evaluator->run_voltage_sweep(
          *profiled, e.voltage_grid, *rm.eval_set, n, e.batch);
      for (std::size_t i = 0; i < sweep.size(); ++i) {
        mr.points.push_back({e.voltage_grid[i], sweep[i]});
      }
    } else if (!e.grid.empty()) {
      mr.axis = e.grid.param;
      for (const double value : e.grid.values) {
        auto fault = make_fault_model(spec_.fault.model,
                                      resolved_fault_params(spec_, &value), ctx);
        mr.fault = fault->describe();
        mr.points.push_back(
            {value, evaluator->run(*fault, *rm.eval_set, n, e.batch)});
      }
    } else {
      auto fault = make_fault_model(spec_.fault.model,
                                    resolved_fault_params(spec_, nullptr), ctx);
      mr.fault = fault->describe();
      mr.points.push_back(
          {0.0, evaluator->run(*fault, *rm.eval_set, n, e.batch)});
    }
    if (do_forensics) {
      if (fx.control) {
        // Budget-matched random control: the same flip budget on
        // hash-random cells, landing in the ledger under profile "control"
        // so the attack's bit-position profile has a baseline to stand
        // against in the same report.
        BER_TRACE_SCOPE("runner", "forensics_control");
        Json cparams = resolved_fault_params(spec_, nullptr);
        cparams.set("control", true);
        auto control = make_fault_model(spec_.fault.model, cparams, ctx);
        evaluator->set_forensics(collector.get(), "control");
        (void)evaluator->run(*control, *rm.eval_set, n, e.batch);
      }
      const std::uint64_t words_delta =
          obs::registry().counter("faults.words_patched").value() -
          words_before;
      mr.forensics = collector->to_json(words_delta);
      evaluator->set_forensics(nullptr);
      obs::fault_ledger().set_enabled(false);
    }
    report.models.push_back(std::move(mr));
  }
  return report;
}

Report Runner::run_serve() {
  Report report;
  report.spec = spec_;
  ServeReport& s = report.serve;
  const ServeSection& sv = spec_.serve;
  // Registered up front so the key exists (at zero) in every serve
  // snapshot — CI gates on it without a presence check.
  obs::registry().counter("serve.requests_shed");
  ResolvedModel rm = resolve(spec_.models.front());

  s.clean_err = test_error(*rm.model, *rm.test_set, &rm.scheme, spec_.eval.batch);
  s.slo.max_rerr = sv.slo.clean_plus >= 0.0 ? s.clean_err + sv.slo.clean_plus
                                            : sv.slo.max_rerr;
  s.slo.z = sv.slo.z;

  OperatingPointPlanner planner(*rm.model, rm.scheme);
  if (spec_.compute_on_codes) planner.set_compute_on_codes(true);
  FaultContext ctx;
  ctx.model = rm.model;
  ctx.scheme = &rm.scheme;
  ctx.n_trials = sv.n_chips;
  ctx.layout = &planner.evaluator().snapshot();
  auto fault = make_fault_model(spec_.fault.model,
                                resolved_fault_params(spec_, nullptr), ctx);

  std::vector<Replica> fleet;
  if (const auto* random = dynamic_cast<const RandomBitErrorModel*>(fault.get())) {
    {
      BER_TRACE_SCOPE("runner", "plan");
      s.plan = planner.plan(*random, *rm.eval_set, sv.voltages, s.slo,
                            sv.n_chips, spec_.eval.batch);
    }
    BER_TRACE_SCOPE("runner", "deploy_fleet");
    fleet = planner.deploy_fleet(*random, s.plan, sv.replicas);
  } else {
    const auto& profiled = dynamic_cast<const ProfiledChipModel&>(*fault);
    {
      BER_TRACE_SCOPE("runner", "plan");
      s.plan = planner.plan_profiled(profiled, *rm.eval_set, sv.voltages,
                                     s.slo, sv.n_chips, spec_.eval.batch);
    }
    BER_TRACE_SCOPE("runner", "deploy_fleet");
    fleet = planner.deploy_fleet_profiled(profiled, s.plan, sv.replicas);
  }

  const Dataset& canary_set = sv.canary_subset > 0
                                  ? subset(*rm.test_set, sv.canary_subset)
                                  : *rm.test_set;
  s.fleet_energy = planner.fleet_energy_per_access(fleet);

  if (sv.traffic.enabled()) {
    // Open-loop load: arrival-process schedules drive the pool on their own
    // clock (serve/traffic_gen.h); queueing delay and shed are properties
    // of the pool, not of a request-and-wait client. The scoreboard's
    // windowed timeline lands in the report.
    ReplicaPool pool(std::move(fleet), sv.queue);
    TrafficGenerator gen(pool, *rm.test_set, sv.traffic);
    TrafficResult tr;
    {
      BER_TRACE_SCOPE_ARGS("runner", "traffic_open_loop",
                           {"phases", sv.traffic.phases.size()});
      tr = gen.run();
      pool.drain();
    }
    s.requests = static_cast<long>(tr.offered);
    s.answered = static_cast<long>(tr.answered);
    s.rejected = static_cast<long>(tr.shed);
    s.timeline = std::move(tr.timeline);
    s.mean_batch = pool.stats().mean_batch_images;
    BER_TRACE_SCOPE("runner", "canary");
    for (std::size_t i = 0; i < pool.size(); ++i) {
      s.canary_errs.push_back(pool.replica(i).canary(canary_set).error);
    }
  } else {
    BER_TRACE_SCOPE("runner", "canary");
    for (Replica& r : fleet) {
      s.canary_errs.push_back(r.canary(canary_set).error);
    }
  }
  return report;
}

Report Runner::run() {
  const kernels::ScopedBackend guard(kernels::backend(spec_.backend));
  BER_TRACE_SCOPE_ARGS("runner", "run", {"kind", spec_.kind.c_str()});
  Report report = spec_.kind == "serve" ? run_serve() : run_robustness();
  report.metrics = obs::registry().to_json();
  return report;
}

// -------------------------------------------------------------- Experiment --

Experiment::Experiment(std::string name) { spec_.name = std::move(name); }

Experiment& Experiment::description(std::string text) {
  spec_.description = std::move(text);
  return *this;
}

Experiment& Experiment::backend(std::string name) {
  spec_.backend = std::move(name);
  return *this;
}

Experiment& Experiment::compute_on_codes(bool on) {
  spec_.compute_on_codes = on;
  return *this;
}

Experiment& Experiment::zoo(const std::string& zoo_name) {
  ModelEntry e;
  e.zoo = zoo_name;
  spec_.models.push_back(std::move(e));
  return *this;
}

Experiment& Experiment::model(ModelEntry entry) {
  spec_.models.push_back(std::move(entry));
  return *this;
}

Experiment& Experiment::fault(std::string model, Json params) {
  spec_.fault.model = std::move(model);
  spec_.fault.params = std::move(params);
  return *this;
}

Experiment& Experiment::rate_grid(std::vector<double> grid) {
  spec_.eval.rate_grid = std::move(grid);
  return *this;
}

Experiment& Experiment::voltage_grid(std::vector<double> grid) {
  spec_.eval.voltage_grid = std::move(grid);
  return *this;
}

Experiment& Experiment::param_grid(std::string param,
                                   std::vector<double> values) {
  spec_.eval.grid.param = std::move(param);
  spec_.eval.grid.values = std::move(values);
  return *this;
}

Experiment& Experiment::trials(int n) {
  spec_.eval.n_trials = n;
  return *this;
}

Experiment& Experiment::split(std::string split) {
  spec_.eval.split = std::move(split);
  return *this;
}

Experiment& Experiment::subset(long n) {
  spec_.eval.subset = n;
  return *this;
}

Experiment& Experiment::batch(long n) {
  spec_.eval.batch = n;
  return *this;
}

Experiment& Experiment::clean_err(bool enabled) {
  spec_.eval.clean_err = enabled;
  return *this;
}

Experiment& Experiment::eval_quant(const QuantScheme& scheme) {
  spec_.eval.has_quant_override = true;
  spec_.eval.quant_override = scheme;
  return *this;
}

Experiment& Experiment::forensics(int probe_images, bool control,
                                  double threshold) {
  spec_.eval.forensics.enabled = true;
  spec_.eval.forensics.probe_images = probe_images;
  spec_.eval.forensics.threshold = threshold;
  spec_.eval.forensics.control = control;
  return *this;
}

Experiment& Experiment::serve(ServeSection section) {
  spec_.kind = "serve";
  spec_.serve = std::move(section);
  return *this;
}

ExperimentSpec Experiment::spec() const {
  ExperimentSpec s = spec_;
  s.validate();
  return s;
}

// Runner's constructor validates, so don't pay spec()'s extra pass.
Report Experiment::run() const { return Runner(spec_).run(); }

}  // namespace ber::api
