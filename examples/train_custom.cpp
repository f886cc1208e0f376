// CLI training driver: train any (dataset, method, scheme) combination and
// write a checkpoint — the building block for custom experiments.
//
//   ./example_train_custom [dataset] [method] [bits] [wmax] [p_train%] [out]
//     dataset: c10 | mnist | c100        (default c10)
//     method:  normal | clip | randbet | pattbet   (default randbet)
//     bits:    2..16                     (default 8)
//     wmax:    weight clipping bound     (default 0.1; 0 disables)
//     p_train: bit error rate in %       (default 1)
//     out:     checkpoint path           (default ./custom.model)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "ber.h"

int main(int argc, char** argv) {
  using namespace ber;
  const std::string dataset = argc > 1 ? argv[1] : "c10";
  const std::string method = argc > 2 ? argv[2] : "randbet";
  const int bits = argc > 3 ? std::atoi(argv[3]) : 8;
  const float wmax = argc > 4 ? static_cast<float>(std::atof(argv[4])) : 0.1f;
  const double p_train = (argc > 5 ? std::atof(argv[5]) : 1.0) / 100.0;
  const std::string out = argc > 6 ? argv[6] : "custom.model";

  SyntheticConfig data_cfg;
  if (dataset == "c10") {
    data_cfg = SyntheticConfig::cifar10();
  } else if (dataset == "mnist") {
    data_cfg = SyntheticConfig::mnist();
  } else if (dataset == "c100") {
    data_cfg = SyntheticConfig::cifar100();
  } else {
    std::fprintf(stderr, "unknown dataset '%s'\n", dataset.c_str());
    return 1;
  }
  const Dataset train_set = make_synthetic(data_cfg, true);
  const Dataset test_set = make_synthetic(data_cfg, false);

  ModelConfig mc;
  mc.in_channels = data_cfg.channels;
  mc.image_size = data_cfg.image_size;
  mc.num_classes = data_cfg.num_classes;
  auto model = build_model(mc);

  TrainConfig tc;
  tc.quant = QuantScheme::rquant(bits);
  tc.wmax = wmax;
  tc.p_train = p_train;
  tc.epochs = dataset == "mnist" ? 12 : 25;
  tc.lr_warmup_epochs = 3;
  if (dataset == "c100") tc.bit_error_loss_threshold = 3.0f;
  if (method == "normal") {
    tc.method = Method::kNormal;
  } else if (method == "clip") {
    tc.method = Method::kClipping;
  } else if (method == "randbet") {
    tc.method = Method::kRandBET;
  } else if (method == "pattbet") {
    tc.method = Method::kPattBET;
  } else {
    std::fprintf(stderr, "unknown method '%s'\n", method.c_str());
    return 1;
  }

  std::printf("training %s / %s, m=%d, wmax=%.3f, p_train=%.2f%% (%d epochs, "
              "W=%ld)\n",
              dataset.c_str(), method.c_str(), bits, wmax, 100 * p_train,
              tc.epochs, model->num_weights());
  const TrainStats stats = train(*model, train_set, test_set, tc);
  std::printf("clean Err %.2f%%\n", 100.0 * stats.final_test_err);

  const RobustnessEvaluator evaluator(*model, tc.quant);
  for (double p : {0.001, 0.01}) {
    BitErrorConfig bits_cfg;
    bits_cfg.p = p;
    const RobustResult r =
        evaluator.run(RandomBitErrorModel(bits_cfg), test_set, 5);
    std::printf("RErr p=%.1f%%: %.2f%% +-%.2f\n", 100 * p, 100 * r.mean_rerr,
                100 * r.std_rerr);
  }

  model->save(out);
  std::printf("checkpoint written to %s\n", out.c_str());
  return 0;
}
