// Tests for the declarative experiment API: core/json round-trips, spec
// parse/emit identity, registry construction of every fault model by name,
// unknown-key / invalid-value rejection, and fixed-seed bit-exactness of
// the Runner against the legacy hand-wired evaluation paths.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ber.h"

namespace ber {
namespace {

// ----------------------------------------------------------------- json ---

TEST(Json, ParseScalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("true").as_bool(), true);
  EXPECT_EQ(Json::parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(Json::parse("-12.5e2").as_number(), -1250.0);
  EXPECT_EQ(Json::parse("42").as_int(), 42);
  EXPECT_EQ(Json::parse("\"a\\nb\\\"c\\u0041\"").as_string(), "a\nb\"cA");
}

TEST(Json, ParseContainersAndComments) {
  const Json j = Json::parse(R"(
    // a commented spec fragment
    {
      "name": "x",       // trailing comment
      "grid": [1, 2.5, 3],
      "nested": {"ok": true}
    })");
  EXPECT_EQ(j.at("name").as_string(), "x");
  EXPECT_EQ(j.at("grid").size(), 3u);
  EXPECT_DOUBLE_EQ(j.at("grid")[1].as_number(), 2.5);
  EXPECT_TRUE(j.at("nested").at("ok").as_bool());
}

TEST(Json, ParseErrorsCarryLocationAndHint) {
  try {
    Json::parse("{\"a\": 1,\n  \"a\": 2}");
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate object key"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
  EXPECT_THROW(Json::parse("{\"a\": }"), JsonError);
  EXPECT_THROW(Json::parse("[1, 2"), JsonError);
  EXPECT_THROW(Json::parse("{} trailing"), JsonError);
}

TEST(Json, DumpParseRoundTripIsExact) {
  // Doubles survive dump -> parse bit-exactly (shortest-round-trip emit).
  const std::vector<double> values{0.005, 1.0 / 3.0, 6.02e23, -0.0001,
                                   0.1 + 0.2, 1e-300};
  for (double v : values) {
    EXPECT_EQ(Json::parse(Json(v).dump()).as_number(), v) << v;
  }
  Json obj = Json::object();
  obj.set("b", 2);  // insertion order preserved, not sorted
  obj.set("a", Json::array({Json(1), Json("x"), Json()}));
  const Json reparsed = Json::parse(obj.dump());
  EXPECT_EQ(reparsed, obj);
  EXPECT_EQ(reparsed.members()[0].first, "b");
  // Pretty and compact forms parse to the same value.
  EXPECT_EQ(Json::parse(obj.dump(2)), obj);
}

// ------------------------------------------------------------- registry ---

// A tiny quantized net + context shared by the registry tests.
struct RegistryFixture {
  RegistryFixture() {
    SyntheticConfig dc = SyntheticConfig::mnist();
    dc.n_train = 64;
    dc.n_test = 32;
    train_set = make_synthetic(dc, true);
    test_set = make_synthetic(dc, false);
    ModelConfig mc;
    mc.arch = Arch::kMlp;
    mc.in_channels = 1;
    mc.width = 6;
    model = build_model(mc);
    Rng rng(3);
    he_init(*model, rng);
    scheme = QuantScheme::rquant(8);
    evaluator.emplace(*model, scheme);
  }

  api::FaultContext context() {
    api::FaultContext ctx;
    ctx.model = model.get();
    ctx.scheme = &scheme;
    ctx.layout = &evaluator->snapshot();
    ctx.attack_set = &train_set;
    ctx.n_trials = 2;
    return ctx;
  }

  Dataset train_set, test_set;
  std::unique_ptr<Sequential> model;
  QuantScheme scheme;
  std::optional<RobustnessEvaluator> evaluator;
};

TEST(Registry, AllFiveFaultModelsConstructibleByName) {
  RegistryFixture fx;
  const api::FaultContext ctx = fx.context();

  Json random = Json::object();
  random.set("p", 0.01);
  random.set("set1_fraction", 0.2);
  random.set("flip_fraction", 0.8);
  random.set("seed_base", 1234);
  auto rm = api::make_fault_model("random", random, ctx);
  ASSERT_NE(dynamic_cast<RandomBitErrorModel*>(rm.get()), nullptr);
  EXPECT_EQ(dynamic_cast<RandomBitErrorModel*>(rm.get())->seed_base(), 1234u);

  Json profiled = Json::object();
  profiled.set("chip", "chip2");
  profiled.set("voltage", 0.86);
  profiled.set("seed", 7);
  auto pm = api::make_fault_model("profiled", profiled, ctx);
  auto* pmc = dynamic_cast<ProfiledChipModel*>(pm.get());
  ASSERT_NE(pmc, nullptr);
  EXPECT_DOUBLE_EQ(pmc->voltage(), 0.86);
  EXPECT_EQ(pmc->chip().config().seed, 7u);
  EXPECT_GT(pmc->chip().config().vulnerable_column_fraction, 0.0);  // chip2

  Json ecc = Json::object();
  ecc.set("p", 0.01);
  ecc.set("persistent", true);
  auto em = api::make_fault_model("ecc", ecc, ctx);
  ASSERT_NE(dynamic_cast<EccProtectedModel*>(em.get()), nullptr);

  Json linf = Json::object();
  linf.set("rel_eps", 0.02);
  auto lm = api::make_fault_model("linf", linf, ctx);
  auto* lmc = dynamic_cast<LinfNoiseModel*>(lm.get());
  ASSERT_NE(lmc, nullptr);
  EXPECT_EQ(lmc->space(), FaultSpace::kFloatWeights);
  EXPECT_DOUBLE_EQ(lmc->rel_eps(), 0.02);

  Json adv = Json::object();
  adv.set("budget", 4);
  adv.set("rounds", 2);
  adv.set("attack_examples", 32);
  auto am = api::make_fault_model("adversarial", adv, ctx);
  auto* amc = dynamic_cast<AdversarialBitErrorModel*>(am.get());
  ASSERT_NE(amc, nullptr);
  EXPECT_EQ(amc->trials().size(), 2u);  // ctx.n_trials attack trials

  Json control = Json::object();
  control.set("budget", 4);
  control.set("control", true);
  control.set("rounds", 2);  // attack-shaping keys are ignored, not rejected
  control.set("seed", 1);
  auto cm = api::make_fault_model("adversarial", control, ctx);
  auto* cmc = dynamic_cast<AdversarialBitErrorModel*>(cm.get());
  ASSERT_NE(cmc, nullptr);
  EXPECT_EQ(cmc->trials()[0].size(), 4u);  // budget-matched flips
}

TEST(Registry, RejectionsAreActionable) {
  RegistryFixture fx;
  const api::FaultContext ctx = fx.context();
  // Unknown registry name lists the known ones.
  try {
    api::make_fault_model("cosmic_rays", Json::object(), ctx);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("cosmic_rays"), std::string::npos);
    EXPECT_NE(what.find("random"), std::string::npos);
    EXPECT_NE(what.find("adversarial"), std::string::npos);
  }
  // Unknown parameter key names the key and the accepted ones.
  Json typo = Json::object();
  typo.set("p", 0.01);
  typo.set("seed_bass", 1);
  try {
    api::make_fault_model("random", typo, ctx);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("seed_bass"), std::string::npos);
    EXPECT_NE(what.find("seed_base"), std::string::npos);
  }
  // Invalid values surface the factory's validation.
  Json bad = Json::object();
  bad.set("p", 1.5);
  EXPECT_THROW(api::make_fault_model("random", bad, ctx),
               std::invalid_argument);
  Json missing = Json::object();
  EXPECT_THROW(api::make_fault_model("linf", missing, ctx),
               std::invalid_argument);
}

// ----------------------------------------------------------------- spec ---

const char* kSpecText = R"({
  // comment survives parsing (not emission)
  "name": "round_trip",
  "kind": "robustness",
  "backend": "reference",
  "models": [
    {"zoo": "c10_rquant"},
    {
      "name": "tiny",
      "dataset": {"name": "mnist", "n_train": 100, "n_test": 50},
      "model": {"arch": "mlp", "width": 6},
      "quant": {"scheme": "rquant", "bits": 4},
      "train": {"method": "clipping", "wmax": 0.2, "epochs": 3}
    }
  ],
  "fault": {"model": "random", "p": 0.01, "seed_base": 77},
  "eval": {"n_trials": 2, "split": "test", "rate_grid": [0.001, 0.01]}
})";

TEST(Spec, ParseEmitParseIdentity) {
  const api::ExperimentSpec spec =
      api::ExperimentSpec::from_json(Json::parse(kSpecText));
  const Json emitted = spec.to_json();
  const api::ExperimentSpec reparsed = api::ExperimentSpec::from_json(emitted);
  EXPECT_EQ(reparsed.to_json(), emitted);  // normalization is idempotent

  // Spot-check the normalized fields.
  EXPECT_EQ(spec.models.size(), 2u);
  EXPECT_EQ(spec.models[0].zoo, "c10_rquant");
  EXPECT_EQ(spec.models[1].quant.bits, 4);
  EXPECT_EQ(spec.models[1].train.method, Method::kClipping);
  EXPECT_EQ(spec.models[1].train.quant, spec.models[1].quant);
  EXPECT_EQ(spec.fault.model, "random");
  EXPECT_EQ(spec.fault.params.at("seed_base").as_int(), 77);
  EXPECT_EQ(spec.eval.rate_grid.size(), 2u);
}

TEST(Spec, BuilderSpecSurvivesJsonRoundTrip) {
  Json params = Json::object();
  params.set("seed_base", 1000);
  const api::ExperimentSpec spec = api::Experiment("builder")
                                       .zoo("c10_rquant")
                                       .fault("random", std::move(params))
                                       .rate_grid({0.005, 0.01})
                                       .trials(3)
                                       .split("rerr")
                                       .spec();
  const api::ExperimentSpec reparsed =
      api::ExperimentSpec::from_json(spec.to_json());
  EXPECT_EQ(reparsed.to_json(), spec.to_json());
  EXPECT_EQ(reparsed.eval.n_trials, 3);
}

TEST(Spec, RejectsUnknownKeysAndInvalidValues) {
  const auto parse = [](const std::string& text) {
    return api::ExperimentSpec::from_json(Json::parse(text));
  };
  // Unknown top-level key.
  EXPECT_THROW(parse(R"({"name": "x", "modles": []})"), std::invalid_argument);
  // Unknown eval key, with the known keys in the message.
  try {
    parse(R"({"name": "x", "models": [{"zoo": "c10_rquant"}],
              "fault": {"model": "random", "p": 0.01},
              "eval": {"n_trails": 2}})");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("n_trails"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("n_trials"), std::string::npos);
  }
  // Unknown zoo model / arch / quant scheme / kind / split.
  EXPECT_THROW(parse(R"({"name": "x", "models": [{"zoo": "c10_nope"}],
                         "fault": {"model": "random", "p": 0.01}})"),
               std::invalid_argument);
  // An empty zoo reference must not fall through to a default inline model.
  EXPECT_THROW(parse(R"({"name": "x", "models": [{"zoo": ""}],
                         "fault": {"model": "random", "p": 0.01}})"),
               std::invalid_argument);
  EXPECT_THROW(parse(R"({"name": "x", "models": [
                         {"model": {"arch": "transformer"}}],
                         "fault": {"model": "random", "p": 0.01}})"),
               std::invalid_argument);
  EXPECT_THROW(parse(R"({"name": "x", "models": [
                         {"quant": {"scheme": "fp8"}}],
                         "fault": {"model": "random", "p": 0.01}})"),
               std::invalid_argument);
  EXPECT_THROW(parse(R"({"name": "x", "kind": "sorve",
                         "models": [{"zoo": "c10_rquant"}],
                         "fault": {"model": "random", "p": 0.01}})"),
               std::invalid_argument);
  EXPECT_THROW(parse(R"({"name": "x", "models": [{"zoo": "c10_rquant"}],
                         "fault": {"model": "random", "p": 0.01},
                         "eval": {"split": "validation"}})"),
               std::invalid_argument);
  // Grid / fault-model compatibility.
  EXPECT_THROW(parse(R"({"name": "x", "models": [{"zoo": "c10_rquant"}],
                         "fault": {"model": "ecc", "p": 0.01},
                         "eval": {"rate_grid": [0.01]}})"),
               std::invalid_argument);
  EXPECT_THROW(parse(R"({"name": "x", "models": [{"zoo": "c10_rquant"}],
                         "fault": {"model": "random", "p": 0.01},
                         "eval": {"rate_grid": [0.01],
                                  "grid": {"param": "p", "values": [0.1]}}})"),
               std::invalid_argument);
  // Fault parameter typos are caught at parse time (dry construction).
  EXPECT_THROW(parse(R"({"name": "x", "models": [{"zoo": "c10_rquant"}],
                         "fault": {"model": "random", "pp": 0.01}})"),
               std::invalid_argument);
  // Serve shape: ascending voltages rejected.
  EXPECT_THROW(parse(R"({"name": "x", "kind": "serve",
                         "models": [{"zoo": "c10_rquant"}],
                         "fault": {"model": "random"},
                         "serve": {"voltages": [0.9, 1.0]}})"),
               std::invalid_argument);
  // "requests" is not a serve key: load is declared under serve.traffic.
  EXPECT_THROW(parse(R"({"name": "x", "kind": "serve",
                         "models": [{"zoo": "c10_rquant"}],
                         "fault": {"model": "random"},
                         "serve": {"voltages": [1.0, 0.9],
                                   "requests": 256}})"),
               std::invalid_argument);
}

TEST(Spec, ShippedConfigFilesParseValidateAndRoundTrip) {
  const std::filesystem::path dir =
      std::filesystem::path(BER_SOURCE_DIR) / "configs";
  ASSERT_TRUE(std::filesystem::is_directory(dir));
  int n = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".json") continue;
    SCOPED_TRACE(entry.path().string());
    const api::ExperimentSpec spec =
        api::ExperimentSpec::load(entry.path().string());
    const Json emitted = spec.to_json();
    EXPECT_EQ(api::ExperimentSpec::from_json(emitted).to_json(), emitted);
    ++n;
  }
  EXPECT_GE(n, 8);  // the seeded scenario library
}

// --------------------------------------------------------------- runner ---

// Shared tiny recipe: must be cheap enough to train twice in-test.
api::ModelEntry tiny_entry() {
  api::ModelEntry e;
  e.dataset.name = "mnist";
  e.dataset.config = SyntheticConfig::mnist();
  e.dataset.config.n_train = 300;
  e.dataset.config.n_test = 150;
  e.model.arch = Arch::kMlp;
  e.model.in_channels = 1;
  e.model.image_size = e.dataset.config.image_size;
  e.model.num_classes = e.dataset.config.num_classes;
  e.model.width = 8;
  e.quant = QuantScheme::rquant(8);
  e.train.quant = e.quant;
  e.train.method = Method::kClipping;
  e.train.wmax = 0.2f;
  e.train.epochs = 2;
  e.train.batch_size = 50;
  return e;
}

// The legacy hand-wired pipeline for the same recipe. Training pins the
// reference backend exactly like Runner::resolve does — otherwise a
// BER_BACKEND override would train a (slightly) different model here than
// the Runner evaluates, and the bit-exactness comparisons below would be
// comparing two models instead of two pipelines.
struct LegacyRun {
  LegacyRun() {
    const api::ModelEntry e = tiny_entry();
    train_set = make_synthetic(e.dataset.config, true);
    test_set = make_synthetic(e.dataset.config, false);
    model = build_model(e.model);
    const kernels::ScopedBackend guard(kernels::backend("reference"));
    train(*model, train_set, test_set, e.train);
    scheme = e.quant;
  }
  Dataset train_set, test_set;
  std::unique_ptr<Sequential> model;
  QuantScheme scheme;
};

TEST(Runner, RateSweepBitExactVsLegacyPaths) {
  // The spec pins its backend (default "reference") for the whole run, so
  // the hand-wired legacy side must evaluate under that same backend — not
  // the ambient BER_BACKEND — for bit-exactness to be well-defined.
  const kernels::ScopedBackend guard(kernels::backend("reference"));
  const std::vector<double> grid{0.004, 0.02};
  LegacyRun legacy;
  const float legacy_clean =
      test_error(*legacy.model, legacy.test_set, &legacy.scheme);
  // Legacy multi-rate path (what rerr_sweep historically wired by hand).
  BitErrorConfig cfg;
  cfg.p = 0.02;
  const RandomBitErrorModel fault(cfg, /*seed_base=*/1000);
  const std::vector<RobustResult> legacy_sweep =
      RobustnessEvaluator(*legacy.model, legacy.scheme)
          .run_rate_sweep(fault, grid, legacy.test_set, /*n_chips=*/2);
  // Legacy single-point path (one evaluator run at the top rate).
  BitErrorConfig single;
  single.p = grid[1];
  const RobustResult legacy_single =
      RobustnessEvaluator(*legacy.model, legacy.scheme)
          .run(RandomBitErrorModel(single, 1000), legacy.test_set, 2);

  const api::Report report = api::Experiment("bitexact")
                                 .model(tiny_entry())
                                 .fault("random", Json::object())
                                 .rate_grid(grid)
                                 .trials(2)
                                 .split("test")
                                 .run();
  const api::ModelReport& m = report.models.front();
  ASSERT_EQ(m.points.size(), grid.size());
  EXPECT_EQ(static_cast<float>(m.clean_err), legacy_clean);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(m.points[i].result.mean_rerr, legacy_sweep[i].mean_rerr) << i;
    EXPECT_EQ(m.points[i].result.std_rerr, legacy_sweep[i].std_rerr) << i;
    EXPECT_EQ(m.points[i].result.per_chip, legacy_sweep[i].per_chip) << i;
  }
  // The sweep's top rate equals a standalone single-point run bit-exactly.
  EXPECT_EQ(m.points[1].result.mean_rerr, legacy_single.mean_rerr);
}

TEST(Runner, GenericGridMatchesLegacySinglePoints) {
  // Evaluate the legacy side under the spec's pinned backend (see
  // RateSweepBitExactVsLegacyPaths).
  const kernels::ScopedBackend guard(kernels::backend("reference"));
  LegacyRun legacy;
  // ECC persistent sweep over p through the generic grid.
  const std::vector<double> ps{0.002, 0.01};
  Json params = Json::object();
  params.set("persistent", true);
  const api::Report report = api::Experiment("ecc_grid")
                                 .model(tiny_entry())
                                 .fault("ecc", std::move(params))
                                 .param_grid("p", ps)
                                 .trials(2)
                                 .split("test")
                                 .clean_err(false)
                                 .run();
  const RobustnessEvaluator evaluator(*legacy.model, legacy.scheme);
  for (std::size_t i = 0; i < ps.size(); ++i) {
    BitErrorConfig cfg;
    cfg.p = ps[i];
    const EccProtectedModel fault(
        std::make_unique<RandomBitErrorModel>(cfg));
    const RobustResult r = evaluator.run(fault, legacy.test_set, 2);
    EXPECT_EQ(report.models[0].points[i].result.mean_rerr, r.mean_rerr) << i;
  }
}

TEST(Runner, ReportJsonCarriesResults) {
  const api::Report report = api::Experiment("json_report")
                                 .model(tiny_entry())
                                 .fault("random", Json::object())
                                 .rate_grid({0.01})
                                 .trials(2)
                                 .split("test")
                                 .run();
  const Json j = report.to_json();
  EXPECT_EQ(j.at("experiment").as_string(), "json_report");
  EXPECT_EQ(j.at("models")[0].at("points")[0].at("p").as_number(), 0.01);
  EXPECT_EQ(static_cast<float>(
                j.at("models")[0].at("points")[0].at("rerr_mean").as_number()),
            report.models[0].points[0].result.mean_rerr);
  // The report embeds the normalized spec for provenance.
  EXPECT_EQ(api::ExperimentSpec::from_json(j.at("spec")).to_json(),
            j.at("spec"));
}

TEST(Runner, ServeDrivesOpenLoopTrafficThroughTheFleet) {
  api::ServeSection sv;
  sv.voltages = {1.0, 0.9};
  sv.n_chips = 2;
  sv.replicas = 2;
  sv.canary_subset = 50;
  ArrivalPhase phase;
  phase.rate_rps = 200.0;
  phase.duration_s = 0.25;
  sv.traffic.phases.push_back(phase);
  const api::Report report = api::Experiment("serve_smoke")
                                 .model(tiny_entry())
                                 .fault("random", Json::object())
                                 .split("test")
                                 .serve(sv)
                                 .run();
  const api::ServeReport& s = report.serve;
  EXPECT_GT(s.requests, 0);
  EXPECT_EQ(s.requests, s.answered + s.rejected);
  EXPECT_EQ(s.canary_errs.size(), static_cast<std::size_t>(sv.replicas));
  const Json j = report.to_json();
  const Json& traffic = j.at("serve").at("traffic");
  EXPECT_EQ(traffic.at("requests").as_int(), s.requests);
  EXPECT_EQ(traffic.at("answered").as_int(), s.answered);
  EXPECT_EQ(traffic.at("rejected").as_int(), s.rejected);
  EXPECT_TRUE(j.at("serve").at("timeline").contains("summary"));
}

}  // namespace
}  // namespace ber
