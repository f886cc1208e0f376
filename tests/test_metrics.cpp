// Evaluation metric tests: Err, RErr (incl. p=0 degenerate case and
// monotone growth), profiled-chip evaluation, L-inf noise and logit stats.
#include <gtest/gtest.h>

#include <cmath>

#include "core/rng.h"
#include "data/shapes.h"
#include "eval/metrics.h"
#include "faults/evaluator.h"
#include "faults/linf_noise_model.h"
#include "faults/profiled_chip_model.h"
#include "faults/random_bit_error_model.h"
#include "models/factory.h"
#include "nn/init.h"
#include "nn/linear.h"

namespace ber {
namespace {

struct Fixture {
  Dataset data;
  std::unique_ptr<Sequential> model;

  explicit Fixture(int n = 200) {
    auto cfg = SyntheticConfig::mnist();
    cfg.n_test = n;
    data = make_synthetic(cfg, false);
    ModelConfig mc;
    mc.arch = Arch::kMlp;
    mc.in_channels = 1;
    mc.width = 8;
    model = build_model(mc);
    Rng rng(5);
    he_init(*model, rng);
  }
};

TEST(Metrics, RandomModelNearChance) {
  Fixture f(400);
  const EvalResult r = evaluate(*f.model, f.data);
  EXPECT_GT(r.error, 0.6f);  // chance is 0.9 for 10 classes
  EXPECT_LE(r.error, 1.0f);
  EXPECT_GT(r.confidence, 0.0f);
}

TEST(Metrics, ConstantLogitsTieBreaksToArgmax) {
  // A model with zero weights outputs identical logits; argmax picks class 0
  // so error = 1 - 1/K on a balanced set.
  Fixture f(200);
  for (Param* p : f.model->params()) p->value.zero();
  const EvalResult r = evaluate(*f.model, f.data);
  EXPECT_NEAR(r.error, 0.9f, 1e-6f);
  EXPECT_NEAR(r.confidence, 0.1f, 1e-4f);
}

TEST(Metrics, TestErrorWithQuantMatchesManualQuantization) {
  Fixture f(200);
  const QuantScheme scheme = QuantScheme::rquant(8);
  const float direct = test_error(*f.model, f.data, &scheme);
  // Quantization at 8 bits barely moves a random model's predictions.
  const float plain = test_error(*f.model, f.data);
  EXPECT_NEAR(direct, plain, 0.08f);
  // The model's weights are restored afterwards (exactly).
  const float plain2 = test_error(*f.model, f.data);
  EXPECT_EQ(plain, plain2);
}

TEST(Metrics, RobustErrorZeroRateEqualsQuantizedError) {
  Fixture f(200);
  const QuantScheme scheme = QuantScheme::rquant(8);
  BitErrorConfig cfg;
  cfg.p = 0.0;
  const RobustResult r = RobustnessEvaluator(*f.model, scheme)
                             .run(RandomBitErrorModel(cfg), f.data, 3);
  const float qerr = test_error(*f.model, f.data, &scheme);
  EXPECT_EQ(r.per_chip.size(), 3u);
  for (float e : r.per_chip) EXPECT_EQ(e, qerr);
  EXPECT_EQ(r.std_rerr, 0.0f);
}

TEST(Metrics, RobustErrorDeterministicInSeeds) {
  Fixture f(150);
  const QuantScheme scheme = QuantScheme::rquant(8);
  BitErrorConfig cfg;
  cfg.p = 0.01;
  const RobustnessEvaluator evaluator(*f.model, scheme);
  const RobustResult a =
      evaluator.run(RandomBitErrorModel(cfg, 500), f.data, 4);
  const RobustResult b =
      evaluator.run(RandomBitErrorModel(cfg, 500), f.data, 4);
  EXPECT_EQ(a.per_chip, b.per_chip);
  const RobustResult c =
      evaluator.run(RandomBitErrorModel(cfg, 501), f.data, 4);
  EXPECT_NE(a.per_chip, c.per_chip);
}

TEST(Metrics, RobustErrorLeavesModelUntouched) {
  Fixture f(100);
  const float before = f.model->params()[0]->value[0];
  BitErrorConfig cfg;
  cfg.p = 0.05;
  RobustnessEvaluator(*f.model, QuantScheme::rquant(8))
      .run(RandomBitErrorModel(cfg), f.data, 2);
  EXPECT_EQ(f.model->params()[0]->value[0], before);
}

TEST(Metrics, TrainedModelDegradesWithMassiveErrors) {
  // Train nothing — instead use a hand-built perfect-ish classifier on a
  // linearly-separable toy: one Linear layer reading one pixel per class is
  // hard to arrange here, so rely on the statistical property instead:
  // massive bit error rates drive ANY model toward chance.
  Fixture f(200);
  BitErrorConfig heavy;
  heavy.p = 0.3;
  const RobustResult r = RobustnessEvaluator(*f.model, QuantScheme::rquant(8))
                             .run(RandomBitErrorModel(heavy), f.data, 3);
  EXPECT_GT(r.mean_rerr, 0.7f);
}

TEST(Metrics, ProfiledChipEvaluation) {
  Fixture f(100);
  ProfiledChipConfig cc = ProfiledChipConfig::chip1();
  cc.rows = 512;
  ProfiledChip chip(cc);
  const RobustResult at_vmin =
      RobustnessEvaluator(*f.model, QuantScheme::rquant(8))
          .run(ProfiledChipModel(chip, 1.0), f.data, 2);
  const float qerr = test_error(*f.model, f.data, nullptr);
  EXPECT_NEAR(at_vmin.mean_rerr, qerr, 0.1f);
  EXPECT_EQ(at_vmin.per_chip.size(), 2u);
}

TEST(Metrics, LinfNoiseZeroEpsIsClean) {
  Fixture f(100);
  const float clean = test_error(*f.model, f.data);
  const RobustResult r =
      RobustnessEvaluator(*f.model).run(LinfNoiseModel(0.0), f.data, 3);
  for (float e : r.per_chip) EXPECT_EQ(e, clean);
}

TEST(Metrics, LinfNoiseLargeEpsDegrades) {
  Fixture f(150);
  const RobustResult r =
      RobustnessEvaluator(*f.model).run(LinfNoiseModel(1.0), f.data, 3);
  EXPECT_GT(r.mean_rerr, 0.5f);
}

TEST(Metrics, LogitStatsConsistentWithEvaluate) {
  Fixture f(150);
  const LogitStats ls = logit_stats(*f.model, f.data);
  const EvalResult ev = evaluate(*f.model, f.data);
  EXPECT_NEAR(ls.mean_confidence, ev.confidence, 1e-5f);
  EXPECT_GE(ls.mean_logit_gap, 0.0f);
}

TEST(Metrics, SummaryStatsMeanStd) {
  // Hand-check mean/std aggregation through the p=0 + distinct-seed path.
  Fixture f(100);
  BitErrorConfig cfg;
  cfg.p = 0.02;
  const RobustResult r = RobustnessEvaluator(*f.model, QuantScheme::rquant(8))
                             .run(RandomBitErrorModel(cfg), f.data, 5);
  double mean = 0.0;
  for (float e : r.per_chip) mean += e;
  mean /= 5.0;
  EXPECT_NEAR(r.mean_rerr, mean, 1e-6);
  double var = 0.0;
  for (float e : r.per_chip) var += (e - mean) * (e - mean);
  var /= 4.0;  // sample variance
  EXPECT_NEAR(r.std_rerr, std::sqrt(var), 1e-5);
}

}  // namespace
}  // namespace ber
