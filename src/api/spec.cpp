#include "api/spec.h"

#include <algorithm>
#include <stdexcept>

#include "api/registry.h"
#include "api/zoo.h"
#include "data/source.h"
#include "kernels/backend.h"

namespace ber::api {

namespace {

// ------------------------------------------------------------ model entry ---

DatasetSection dataset_from_json(const Json& j, const std::string& where) {
  ParamReader p(where, j);
  DatasetSection d;
  d.source = p.str("source", d.source);
  if (!data::known_dataset_source(d.source)) {
    std::string msg = "unknown dataset source \"" + d.source + "\" (known:";
    for (const std::string& n : data::dataset_source_names()) msg += " " + n;
    p.fail(msg + ")");
  }
  if (d.source == "synthetic") {
    d.name = p.str("name", d.name);
    d.config = dataset_by_name(d.name);
    d.config.n_train =
        static_cast<int>(p.integer("n_train", d.config.n_train));
    d.config.n_test = static_cast<int>(p.integer("n_test", d.config.n_test));
    d.config.seed = static_cast<std::uint64_t>(
        p.integer("seed", static_cast<long>(d.config.seed)));
    p.finish();
    if (d.config.n_train < 1 || d.config.n_test < 1) {
      p.fail("n_train / n_test must be >= 1");
    }
    return d;
  }
  // File-backed source: `path` is the dataset root directory; n_train/
  // n_test are per-split record caps (0 = every record on disk). Geometry
  // defaults come from the source (shard geometry lives in the header and
  // is checked at run time — configs must parse without data files).
  d.path = p.str("path", "");
  d.name = p.str("name", d.source);
  d.config = data::source_geometry(d.source);
  d.config.n_train = static_cast<int>(p.integer("n_train", 0));
  d.config.n_test = static_cast<int>(p.integer("n_test", 0));
  p.finish();
  if (d.path.empty()) {
    p.fail("source \"" + d.source +
           "\" needs a \"path\" (dataset root directory)");
  }
  if (d.config.n_train < 0 || d.config.n_test < 0) {
    p.fail("n_train / n_test caps must be >= 0 (0 = all records)");
  }
  return d;
}

Json dataset_to_json(const DatasetSection& d) {
  Json j = Json::object();
  if (d.source != "synthetic") {
    j.set("source", d.source);
    j.set("path", d.path);
    if (d.name != d.source) j.set("name", d.name);
    if (d.config.n_train > 0) j.set("n_train", d.config.n_train);
    if (d.config.n_test > 0) j.set("n_test", d.config.n_test);
    return j;
  }
  // The synthetic form is frozen: it feeds the inline-model fingerprint
  // (api/experiment.cpp), so emitting new keys here would invalidate every
  // cached checkpoint.
  j.set("name", d.name);
  j.set("n_train", d.config.n_train);
  j.set("n_test", d.config.n_test);
  j.set("seed", d.config.seed);
  return j;
}

ModelConfig model_config_from_json(const Json& j, const DatasetSection& data,
                                   const std::string& where) {
  ParamReader p(where, j);
  ModelConfig mc;
  mc.arch = arch_by_name(p.str("arch", "simplenet"));
  mc.norm = norm_by_name(p.str("norm", "groupnorm"));
  // Input geometry follows the dataset; explicit overrides allowed (and
  // emitted by to_json, so round-trips are exact).
  mc.in_channels = static_cast<int>(p.integer("in_channels", data.config.channels));
  mc.image_size = static_cast<int>(p.integer("image_size", data.config.image_size));
  mc.num_classes = static_cast<int>(p.integer("num_classes", data.config.num_classes));
  mc.width = static_cast<int>(p.integer("width", mc.width));
  p.finish();
  if (mc.width < 1) p.fail("\"width\" must be >= 1");
  if (mc.in_channels < 1 || mc.image_size < 1 || mc.num_classes < 2) {
    // Shard-backed datasets carry geometry in the shard header, which is
    // not read at parse time — those model sections must spell it out.
    p.fail(std::string("model geometry must be positive (\"in_channels\"/"
                       "\"image_size\" >= 1, \"num_classes\" >= 2)") +
           (data.source == "shard"
                ? " — source \"shard\" provides no parse-time defaults, so "
                  "set them explicitly in the model section"
                : ""));
  }
  return mc;
}

Json model_config_to_json(const ModelConfig& mc) {
  Json j = Json::object();
  j.set("arch", arch_to_name(mc.arch));
  j.set("norm", norm_to_name(mc.norm));
  j.set("in_channels", mc.in_channels);
  j.set("image_size", mc.image_size);
  j.set("num_classes", mc.num_classes);
  j.set("width", mc.width);
  return j;
}

TrainConfig train_from_json(const Json& j, const std::string& where) {
  ParamReader p(where, j);
  TrainConfig tc;
  tc.method = method_by_name(p.str("method", "normal"));
  tc.quant_aware = p.boolean("quant_aware", tc.quant_aware);
  tc.wmax = static_cast<float>(p.number("wmax", tc.wmax));
  tc.p_train = p.number("p_train", tc.p_train);
  tc.label_smoothing =
      static_cast<float>(p.number("label_smoothing", tc.label_smoothing));
  tc.bit_error_loss_threshold = static_cast<float>(
      p.number("loss_threshold", tc.bit_error_loss_threshold));
  tc.curricular = p.boolean("curricular", tc.curricular);
  tc.alternating = p.boolean("alternating", tc.alternating);
  tc.epochs = static_cast<int>(p.integer("epochs", tc.epochs));
  tc.batch_size = static_cast<int>(p.integer("batch_size", tc.batch_size));
  tc.lr_warmup_epochs =
      static_cast<int>(p.integer("lr_warmup_epochs", tc.lr_warmup_epochs));
  tc.sgd.lr = static_cast<float>(p.number("lr", tc.sgd.lr));
  tc.sgd.momentum = static_cast<float>(p.number("momentum", tc.sgd.momentum));
  tc.sgd.weight_decay =
      static_cast<float>(p.number("weight_decay", tc.sgd.weight_decay));
  tc.seed = static_cast<std::uint64_t>(
      p.integer("seed", static_cast<long>(tc.seed)));
  p.finish();
  if (tc.epochs < 0 || tc.batch_size < 1) {
    p.fail("\"epochs\" must be >= 0 and \"batch_size\" >= 1");
  }
  if (tc.p_train < 0.0 || tc.p_train > 1.0) {
    p.fail("\"p_train\" must be a fraction in [0, 1]");
  }
  return tc;
}

Json train_to_json(const TrainConfig& tc) {
  Json j = Json::object();
  j.set("method", method_to_name(tc.method));
  j.set("quant_aware", tc.quant_aware);
  j.set("wmax", static_cast<double>(tc.wmax));
  j.set("p_train", tc.p_train);
  j.set("label_smoothing", static_cast<double>(tc.label_smoothing));
  j.set("loss_threshold", static_cast<double>(tc.bit_error_loss_threshold));
  j.set("curricular", tc.curricular);
  j.set("alternating", tc.alternating);
  j.set("epochs", tc.epochs);
  j.set("batch_size", tc.batch_size);
  j.set("lr_warmup_epochs", tc.lr_warmup_epochs);
  j.set("lr", static_cast<double>(tc.sgd.lr));
  j.set("momentum", static_cast<double>(tc.sgd.momentum));
  j.set("weight_decay", static_cast<double>(tc.sgd.weight_decay));
  j.set("seed", tc.seed);
  return j;
}

// ----------------------------------------------------------- eval / serve ---

EvalSection eval_from_json(const Json& j) {
  ParamReader p("eval", j);
  EvalSection e;
  e.n_trials = static_cast<int>(p.integer("n_trials", e.n_trials));
  e.split = p.str("split", e.split);
  e.subset = p.integer("subset", e.subset);
  e.batch = p.integer("batch", e.batch);
  e.clean_err = p.boolean("clean_err", e.clean_err);
  e.rate_grid = p.numbers("rate_grid");
  e.voltage_grid = p.numbers("voltage_grid");
  const Json& grid = p.raw("grid");
  if (!grid.is_null()) {
    ParamReader g("eval.grid", grid);
    e.grid.param = g.require_str("param");
    e.grid.values = g.numbers("values");
    g.finish();
    if (e.grid.values.empty()) g.fail("\"values\" must be non-empty");
  }
  const Json& quant = p.raw("quant");
  if (!quant.is_null()) {
    e.has_quant_override = true;
    e.quant_override = quant_from_json(quant, "eval.quant");
  }
  const Json& forensics = p.raw("forensics");
  if (!forensics.is_null()) {
    ParamReader f("eval.forensics", forensics);
    // Writing the section opts in; "enabled": false keeps a config around
    // with forensics parked.
    e.forensics.enabled = f.boolean("enabled", true);
    e.forensics.probe_images =
        static_cast<int>(f.integer("probe_images", e.forensics.probe_images));
    e.forensics.threshold = f.number("threshold", e.forensics.threshold);
    e.forensics.control = f.boolean("control", e.forensics.control);
    f.finish();
    if (e.forensics.probe_images < 0) f.fail("\"probe_images\" must be >= 0");
    if (!(e.forensics.threshold > 0.0)) f.fail("\"threshold\" must be > 0");
  }
  p.finish();
  if (e.split != "rerr" && e.split != "test") {
    p.fail("\"split\" must be \"rerr\" or \"test\"");
  }
  if (e.n_trials < 0 || e.subset < 0 || e.batch < 1) {
    p.fail("\"n_trials\"/\"subset\" must be >= 0 and \"batch\" >= 1");
  }
  return e;
}

Json eval_to_json(const EvalSection& e) {
  Json j = Json::object();
  j.set("n_trials", e.n_trials);
  j.set("split", e.split);
  if (e.subset > 0) j.set("subset", e.subset);
  j.set("batch", e.batch);
  j.set("clean_err", e.clean_err);
  const auto grid_json = [](const std::vector<double>& g) {
    Json a = Json::array();
    for (double v : g) a.push_back(v);
    return a;
  };
  if (!e.rate_grid.empty()) j.set("rate_grid", grid_json(e.rate_grid));
  if (!e.voltage_grid.empty()) j.set("voltage_grid", grid_json(e.voltage_grid));
  if (!e.grid.empty()) {
    Json g = Json::object();
    g.set("param", e.grid.param);
    g.set("values", grid_json(e.grid.values));
    j.set("grid", g);
  }
  if (e.has_quant_override) j.set("quant", quant_to_json(e.quant_override));
  if (e.forensics.enabled) {
    Json f = Json::object();
    f.set("enabled", true);
    f.set("probe_images", e.forensics.probe_images);
    f.set("threshold", e.forensics.threshold);
    if (e.forensics.control) f.set("control", true);
    j.set("forensics", f);
  }
  return j;
}

ArrivalPhase phase_from_json(const Json& j, const std::string& where) {
  ParamReader p(where, j);
  ArrivalPhase a;
  a.process = p.str("process", a.process);
  a.rate_rps = p.number("rate_rps", a.rate_rps);
  a.duration_s = p.number("duration_s", a.duration_s);
  a.period_s = p.number("period_s", a.period_s);
  a.amplitude = p.number("amplitude", a.amplitude);
  a.mean_on_s = p.number("mean_on_s", a.mean_on_s);
  a.mean_off_s = p.number("mean_off_s", a.mean_off_s);
  p.finish();
  if (a.process != "poisson" && a.process != "diurnal" &&
      a.process != "bursty") {
    p.fail("\"process\" must be poisson, diurnal or bursty (got \"" +
           a.process + "\")");
  }
  if (a.rate_rps <= 0.0 || a.duration_s <= 0.0) {
    p.fail("\"rate_rps\" and \"duration_s\" must be > 0");
  }
  if (a.process == "diurnal" &&
      (a.period_s <= 0.0 || a.amplitude < 0.0 || a.amplitude >= 1.0)) {
    p.fail("diurnal needs \"period_s\" > 0 and \"amplitude\" in [0, 1)");
  }
  if (a.process == "bursty" && (a.mean_on_s <= 0.0 || a.mean_off_s <= 0.0)) {
    p.fail("bursty needs \"mean_on_s\" and \"mean_off_s\" > 0");
  }
  return a;
}

Json phase_to_json(const ArrivalPhase& a) {
  Json j = Json::object();
  j.set("process", a.process);
  j.set("rate_rps", a.rate_rps);
  j.set("duration_s", a.duration_s);
  // Only the parameters the process actually reads — the normalized form
  // must not carry dead knobs.
  if (a.process == "diurnal") {
    j.set("period_s", a.period_s);
    j.set("amplitude", a.amplitude);
  } else if (a.process == "bursty") {
    j.set("mean_on_s", a.mean_on_s);
    j.set("mean_off_s", a.mean_off_s);
  }
  return j;
}

TrafficConfig traffic_from_json(const Json& j) {
  ParamReader p("serve.traffic", j);
  TrafficConfig t;
  t.seed = static_cast<std::uint64_t>(
      p.integer("seed", static_cast<long>(t.seed)));
  t.window_ms = p.integer("window_ms", t.window_ms);
  const Json& slo = p.raw("slo");
  if (!slo.is_null()) {
    ParamReader q("serve.traffic.slo", slo);
    t.slo.latency_us = q.number("latency_us", t.slo.latency_us);
    t.slo.attainment = q.number("attainment", t.slo.attainment);
    q.finish();
  }
  const Json& phases = p.raw("phases");
  if (!phases.is_array() || phases.size() == 0) {
    p.fail("\"phases\" must be a non-empty array of arrival phases");
  }
  for (std::size_t i = 0; i < phases.size(); ++i) {
    t.phases.push_back(phase_from_json(
        phases[i], "serve.traffic.phases[" + std::to_string(i) + "]"));
  }
  p.finish();
  if (t.window_ms < 1) p.fail("\"window_ms\" must be >= 1");
  if (t.slo.latency_us <= 0.0) p.fail("slo \"latency_us\" must be > 0");
  if (t.slo.attainment <= 0.0 || t.slo.attainment >= 1.0) {
    p.fail("slo \"attainment\" must be in (0, 1) — 1.0 makes the error "
           "budget zero and every burn rate infinite");
  }
  return t;
}

Json traffic_to_json(const TrafficConfig& t) {
  Json j = Json::object();
  j.set("seed", t.seed);
  j.set("window_ms", t.window_ms);
  Json slo = Json::object();
  slo.set("latency_us", t.slo.latency_us);
  slo.set("attainment", t.slo.attainment);
  j.set("slo", std::move(slo));
  Json phases = Json::array();
  for (const ArrivalPhase& a : t.phases) phases.push_back(phase_to_json(a));
  j.set("phases", std::move(phases));
  return j;
}

ServeSection serve_from_json(const Json& j) {
  ParamReader p("serve", j);
  ServeSection s;
  s.voltages = p.numbers("voltages");
  const Json& slo = p.raw("slo");
  if (!slo.is_null()) {
    ParamReader q("serve.slo", slo);
    s.slo.max_rerr = q.number("max_rerr", s.slo.max_rerr);
    s.slo.clean_plus = q.number("clean_plus", s.slo.clean_plus);
    s.slo.z = q.number("z", s.slo.z);
    q.finish();
  }
  s.n_chips = static_cast<int>(p.integer("n_chips", s.n_chips));
  s.replicas = static_cast<int>(p.integer("replicas", s.replicas));
  s.canary_subset = p.integer("canary_subset", s.canary_subset);
  const Json& queue = p.raw("queue");
  if (!queue.is_null()) {
    ParamReader q("serve.queue", queue);
    s.queue.max_batch = q.integer("max_batch", s.queue.max_batch);
    s.queue.max_wait_us = q.integer("max_wait_us", s.queue.max_wait_us);
    s.queue.max_queue_images =
        q.integer("max_queue_images", s.queue.max_queue_images);
    q.finish();
  }
  const Json& traffic = p.raw("traffic");
  if (!traffic.is_null()) s.traffic = traffic_from_json(traffic);
  p.finish();
  if (s.n_chips < 1 || s.replicas < 1) {
    p.fail("\"n_chips\" and \"replicas\" must be >= 1");
  }
  if (s.canary_subset < 0) p.fail("\"canary_subset\" must be >= 0");
  return s;
}

Json serve_to_json(const ServeSection& s) {
  Json j = Json::object();
  Json v = Json::array();
  for (double x : s.voltages) v.push_back(x);
  j.set("voltages", v);
  Json slo = Json::object();
  if (s.slo.clean_plus >= 0.0) slo.set("clean_plus", s.slo.clean_plus);
  else slo.set("max_rerr", s.slo.max_rerr);
  slo.set("z", s.slo.z);
  j.set("slo", slo);
  j.set("n_chips", s.n_chips);
  j.set("replicas", s.replicas);
  if (s.canary_subset > 0) j.set("canary_subset", s.canary_subset);
  Json q = Json::object();
  q.set("max_batch", s.queue.max_batch);
  q.set("max_wait_us", s.queue.max_wait_us);
  if (s.queue.max_queue_images > 0) {
    q.set("max_queue_images", s.queue.max_queue_images);
  }
  j.set("queue", q);
  if (s.traffic.enabled()) j.set("traffic", traffic_to_json(s.traffic));
  return j;
}

}  // namespace

// -------------------------------------------------------------- ModelEntry --

ModelEntry model_entry_from_json(const Json& j, const std::string& where) {
  ParamReader p(where, j);
  ModelEntry e;
  if (p.has("zoo")) {
    e.zoo = p.str("zoo", "");
    if (e.zoo.empty()) {
      // An empty reference would silently fall through to a default inline
      // model — the wrong experiment, run without complaint.
      p.fail("\"zoo\" must name a zoo model (got an empty string)");
    }
    e.label = p.str("label", "");
    p.finish();
    return e;
  }
  e.name = p.str("name", "");
  e.label = p.str("label", e.name);
  e.dataset = dataset_from_json(p.raw("dataset"), where + ".dataset");
  e.model = model_config_from_json(p.raw("model"), e.dataset, where + ".model");
  e.quant = quant_from_json(p.raw("quant"), where + ".quant");
  e.train = train_from_json(p.raw("train"), where + ".train");
  e.train.quant = e.quant;
  p.finish();
  return e;
}

Json model_entry_to_json(const ModelEntry& entry) {
  Json j = Json::object();
  if (entry.is_zoo()) {
    j.set("zoo", entry.zoo);
    if (!entry.label.empty()) j.set("label", entry.label);
    return j;
  }
  if (!entry.name.empty()) j.set("name", entry.name);
  if (!entry.label.empty() && entry.label != entry.name) {
    j.set("label", entry.label);
  }
  j.set("dataset", dataset_to_json(entry.dataset));
  j.set("model", model_config_to_json(entry.model));
  j.set("quant", quant_to_json(entry.quant));
  j.set("train", train_to_json(entry.train));
  return j;
}

// ---------------------------------------------------------- ExperimentSpec --

ExperimentSpec ExperimentSpec::from_json(const Json& j) {
  ParamReader p("experiment", j);
  ExperimentSpec spec;
  spec.name = p.require_str("name");
  spec.description = p.str("description", "");
  spec.kind = p.str("kind", spec.kind);
  spec.backend = p.str("backend", spec.backend);
  spec.compute_on_codes =
      p.boolean("compute_on_codes", spec.compute_on_codes);

  const Json& models = p.raw("models");
  if (models.is_array()) {
    for (std::size_t i = 0; i < models.size(); ++i) {
      spec.models.push_back(model_entry_from_json(
          models[i], "models[" + std::to_string(i) + "]"));
    }
  } else if (!models.is_null()) {
    p.fail("\"models\" must be an array of model entries");
  }
  // Singular "model" convenience for one-model specs.
  const Json& model = p.raw("model");
  if (!model.is_null()) {
    if (!spec.models.empty()) p.fail("give \"models\" or \"model\", not both");
    spec.models.push_back(model_entry_from_json(model, "model"));
  }

  const Json& fault = p.raw("fault");
  if (!fault.is_null()) {
    if (!fault.is_object()) p.fail("\"fault\" must be an object");
    Json params = Json::object();
    bool has_model = false;
    for (const auto& [key, value] : fault.members()) {
      if (key == "model") {
        if (!value.is_string()) p.fail("fault \"model\" must be a string");
        spec.fault.model = value.as_string();
        has_model = true;
      } else {
        params.set(key, value);
      }
    }
    if (!has_model) p.fail("fault section needs a \"model\" name");
    spec.fault.params = std::move(params);
  }

  const Json& eval = p.raw("eval");
  if (!eval.is_null()) spec.eval = eval_from_json(eval);
  const Json& serve = p.raw("serve");
  if (!serve.is_null()) spec.serve = serve_from_json(serve);
  p.finish();
  spec.validate();
  return spec;
}

ExperimentSpec ExperimentSpec::load(const std::string& path) {
  return from_json(Json::parse_file(path));
}

Json ExperimentSpec::to_json() const {
  Json j = Json::object();
  j.set("name", name);
  if (!description.empty()) j.set("description", description);
  j.set("kind", kind);
  j.set("backend", backend);
  if (compute_on_codes) j.set("compute_on_codes", true);
  Json ms = Json::array();
  for (const ModelEntry& e : models) ms.push_back(model_entry_to_json(e));
  j.set("models", ms);
  Json f = Json::object();
  f.set("model", fault.model);
  for (const auto& [key, value] : fault.params.members()) f.set(key, value);
  j.set("fault", f);
  j.set("eval", eval_to_json(eval));
  if (kind == "serve") j.set("serve", serve_to_json(serve));
  return j;
}

Json resolved_fault_params(const ExperimentSpec& spec,
                           const double* grid_value) {
  Json params = spec.fault.params;
  const EvalSection& e = spec.eval;
  if (!e.rate_grid.empty() && !params.contains("p")) {
    params.set("p", *std::max_element(e.rate_grid.begin(), e.rate_grid.end()));
  }
  if (!e.voltage_grid.empty() && !params.contains("voltage")) {
    params.set("voltage", *std::min_element(e.voltage_grid.begin(),
                                            e.voltage_grid.end()));
  }
  if (!e.grid.empty()) {
    params.set(e.grid.param,
               grid_value != nullptr ? *grid_value : e.grid.values.front());
  }
  if (spec.kind == "serve") {
    // The planner maps its voltage grid to rates itself; the fault model
    // only contributes the chip / type mix, so give the required axis keys
    // harmless defaults.
    if (spec.fault.model == "random" && !params.contains("p")) {
      params.set("p", 0.01);
    }
    if (spec.fault.model == "profiled" && !params.contains("voltage")) {
      params.set("voltage",
                 spec.serve.voltages.empty() ? 1.0 : spec.serve.voltages.back());
    }
  }
  return params;
}

void ExperimentSpec::validate() const {
  const auto fail = [this](const std::string& why) {
    throw std::invalid_argument("experiment \"" + name + "\": " + why);
  };
  if (name.empty()) fail("\"name\" must be non-empty");
  if (kind != "robustness" && kind != "serve") {
    fail("\"kind\" must be \"robustness\" or \"serve\", got \"" + kind + "\"");
  }
  // Backend and fault-model names resolve against their registries (both
  // throw listing the known names).
  (void)kernels::backend(backend);
  if (!fault_models().contains(fault.model)) {
    // Reuse the registry's message (lists known names).
    (void)fault_models().make(fault.model, Json::object(), FaultContext{});
  }
  if (models.empty()) fail("at least one model entry is required");
  // Dry-construct context-free fault models so parameter typos fail here
  // with the factory's message instead of mid-run ("adversarial" needs a
  // model + data context and is validated by the Runner).
  if (fault.model != "adversarial") {
    (void)make_fault_model(fault.model, resolved_fault_params(*this, nullptr),
                           FaultContext{});
  }
  for (const ModelEntry& e : models) {
    if (e.is_zoo()) {
      (void)zoo::spec(e.zoo);  // throws on unknown zoo names
      continue;
    }
    // Builder-made entries skip the JSON readers; re-check the dataset
    // source shape here so Experiment::model() failures are actionable.
    data::check_dataset_source(e.dataset.source, "experiment \"" + name + "\"");
    if (e.dataset.source != "synthetic" && e.dataset.path.empty()) {
      fail("dataset source \"" + e.dataset.source +
           "\" needs a path (dataset root directory)");
    }
    if (e.model.in_channels < 1 || e.model.image_size < 1 ||
        e.model.num_classes < 2) {
      fail("model geometry must be positive (in_channels/image_size >= 1, "
           "num_classes >= 2)");
    }
  }

  int grids = 0;
  grids += eval.rate_grid.empty() ? 0 : 1;
  grids += eval.voltage_grid.empty() ? 0 : 1;
  grids += eval.grid.empty() ? 0 : 1;
  if (grids > 1) {
    fail("give at most one of eval.rate_grid / eval.voltage_grid / eval.grid");
  }
  if (!eval.rate_grid.empty() && fault.model != "random") {
    fail("eval.rate_grid needs fault model \"random\" (got \"" + fault.model +
         "\"); use eval.grid for other models");
  }
  if (!eval.voltage_grid.empty() && fault.model != "profiled") {
    fail("eval.voltage_grid needs fault model \"profiled\" (got \"" +
         fault.model + "\")");
  }
  for (double p : eval.rate_grid) {
    if (p < 0.0 || p > 1.0) fail("rate_grid entries must be fractions in [0, 1]");
  }
  if (eval.forensics.enabled) {
    // The ledger records code-space flips: "linf" perturbs float weights and
    // "ecc" injects into the SECDED codeword space, neither of which maps to
    // weight cells.
    if (fault.model == "linf" || fault.model == "ecc") {
      fail("eval.forensics needs a code-space fault model (random, profiled "
           "or adversarial), got \"" + fault.model + "\"");
    }
    if (eval.forensics.control && fault.model != "adversarial") {
      fail("eval.forensics.control rate-matches an adversarial attack and "
           "needs fault \"adversarial\", got \"" + fault.model + "\"");
    }
    if (eval.forensics.probe_images < 0) {
      fail("eval.forensics.probe_images must be >= 0");
    }
    if (!(eval.forensics.threshold > 0.0)) {
      fail("eval.forensics.threshold must be > 0");
    }
  }

  if (kind == "serve") {
    if (models.size() != 1) fail("kind \"serve\" takes exactly one model");
    if (fault.model != "random" && fault.model != "profiled") {
      fail("serving plans support fault \"random\" or \"profiled\"");
    }
    if (serve.voltages.size() < 2) {
      fail("serve.voltages needs at least two grid points");
    }
    for (std::size_t i = 1; i < serve.voltages.size(); ++i) {
      if (serve.voltages[i] >= serve.voltages[i - 1]) {
        fail("serve.voltages must be strictly descending");
      }
    }
    // Builder-made specs skip the JSON readers; re-check the open-loop
    // traffic shape here so Experiment::serve() failures are actionable.
    const TrafficConfig& t = serve.traffic;
    if (t.enabled()) {
      if (t.window_ms < 1) fail("serve.traffic.window_ms must be >= 1");
      if (t.slo.latency_us <= 0.0 || t.slo.attainment <= 0.0 ||
          t.slo.attainment >= 1.0) {
        fail("serve.traffic.slo needs latency_us > 0 and attainment in "
             "(0, 1)");
      }
      for (const ArrivalPhase& a : t.phases) {
        if (a.process != "poisson" && a.process != "diurnal" &&
            a.process != "bursty") {
          fail("serve.traffic phase process \"" + a.process +
               "\" unknown (poisson, diurnal, bursty)");
        }
        if (a.rate_rps <= 0.0 || a.duration_s <= 0.0) {
          fail("serve.traffic phases need rate_rps and duration_s > 0");
        }
        if (a.process == "diurnal" &&
            (a.period_s <= 0.0 || a.amplitude < 0.0 || a.amplitude >= 1.0)) {
          fail("diurnal phase needs period_s > 0 and amplitude in [0, 1)");
        }
        if (a.process == "bursty" &&
            (a.mean_on_s <= 0.0 || a.mean_off_s <= 0.0)) {
          fail("bursty phase needs mean_on_s and mean_off_s > 0");
        }
      }
    }
  }
}

}  // namespace ber::api
