// Per-layer replays: each module's public functions called directly from the
// benchmark, at the shapes the workloads use, each call timed on its own
// (median over repetitions) and wrapped in a trace span. Layer labels are
// L<i>_<kind>, i the position in the model's Sequential.
#include <cctype>
#include <memory>

#include "accel/accelerator.h"
#include "biterror/injector.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "kernels/backend.h"
#include "nn/code_compute.h"
#include "obs/trace.h"
#include "perfbench.h"
#include "quant/net_quantizer.h"
#include "serve/replica.h"

namespace perfbench {

using ber::Json;
using ber::Tensor;

namespace {

std::string layer_label(std::size_t i, const ber::Layer& l) {
  std::string kind;
  for (char c : l.name()) {
    if (c == '(' || c == '[') break;
    if (std::isalnum(static_cast<unsigned char>(c))) {
      kind += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
  }
  std::string label = "L";
  label.append(std::to_string(i)).append("_").append(kind);
  return label;
}

bool is_gemm_layer(const ber::Layer& l) {
  const std::string n = l.name();
  return n.rfind("Conv2d", 0) == 0 || n.rfind("Linear", 0) == 0;
}

// Median microseconds of `reps` calls of fn (after one untimed warm-up).
template <typename Fn>
double median_us(int reps, Fn&& fn) {
  fn();
  std::vector<double> t;
  t.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    t.push_back(since_s(t0) * 1e6);
  }
  return median(std::move(t));
}

double flops_of(const char* counter, const std::string& backend,
                const CounterSnapshot& d) {
  return d.labeled(counter, "backend=\"" + backend + "\"");
}

}  // namespace

double replay_layers(const Options& opts, const std::string& train_backend,
                     Json& pl) {
  BER_TRACE_SCOPE("perfbench", "replay");
  double train_step_us = 0.0;
  ber::Rng rng(5);

  {
    BER_TRACE_SCOPE("perfbench", "core.default_threads");
    constexpr int kCalls = 20000;
    volatile int sink = 0;
    const auto t0 = Clock::now();
    for (int i = 0; i < kCalls; ++i) sink = ber::default_threads();
    pl.set("core.default_threads_ns", since_s(t0) * 1e9 / kCalls);
    (void)sink;
  }

  ber::QuantScheme toy_scheme;
  auto toy = load_model(opts, kToyModel, &toy_scheme);

  // Training shape: fake-quantized forward/backward of one batch on the
  // backend training runs on, in the calling thread (as the trainer does).
  {
    BER_TRACE_SCOPE("perfbench", "nn.train_shape");
    const ber::kernels::ScopedBackend bk(train_backend);
    constexpr int kReps = 10;
    Tensor x = Tensor::randn({kTrainBatch, 3, 12, 12}, rng);
    double gemm_flops = 0.0, gemm_us = 0.0;
    for (std::size_t i = 0; i < toy->size(); ++i) {
      ber::Layer& l = toy->layer(i);
      const std::string label = layer_label(i, l);
      Tensor y = l.forward(x, true);
      const Tensor gy = Tensor::randn(y.shape(), rng);
      const CounterSnapshot c0 = CounterSnapshot::take();
      const double fwd = median_us(kReps, [&] { y = l.forward(x, true); });
      const double bwd = median_us(kReps, [&] { l.backward(gy); });
      const CounterSnapshot d = CounterSnapshot::take() - c0;
      pl.set("nn.fwd_us." + label, fwd);
      pl.set("nn.bwd_us." + label, bwd);
      train_step_us += fwd + bwd;
      if (is_gemm_layer(l)) {
        gemm_flops += flops_of("kernels.gemm_flops", train_backend, d) /
                      (2 * (kReps + 1));
        gemm_us += fwd + bwd;
      }
      x = std::move(y);
    }
    // Per fwd+bwd pair: the counters saw (kReps + 1) forwards and backwards.
    pl.set("kernels.gemm_gflops.train", gemm_flops * 2 / (gemm_us * 1e3));
  }

  // Serving shape: batch-1 inference on the blocked backend inside a worker
  // thread marker, as a replica worker runs it.
  {
    BER_TRACE_SCOPE("perfbench", "nn.infer_b1");
    const ber::kernels::ScopedBackend bk("blocked");
    const ber::ParallelWorkerScope worker;
    constexpr int kReps = 200;
    Tensor x = Tensor::randn({1, 3, 12, 12}, rng);
    double gemm_flops = 0.0, gemm_us = 0.0;
    for (std::size_t i = 0; i < toy->size(); ++i) {
      ber::Layer& l = toy->layer(i);
      Tensor y;
      const CounterSnapshot c0 = CounterSnapshot::take();
      const double us = median_us(kReps, [&] { y = l.forward(x, false); });
      const CounterSnapshot d = CounterSnapshot::take() - c0;
      pl.set("nn.infer_us." + layer_label(i, l), us);
      if (is_gemm_layer(l)) {
        gemm_flops += flops_of("kernels.gemm_flops", "blocked", d) / (kReps + 1);
        gemm_us += us;
      }
      x = std::move(y);
    }
    pl.set("kernels.gemm_gflops.serve_b1", gemm_flops / (gemm_us * 1e3));
  }

  // Replica: full deploy and forward at the pool's batch sizes.
  {
    BER_TRACE_SCOPE("perfbench", "serve.replica");
    const ber::kernels::ScopedBackend bk("blocked");
    const ber::ParallelWorkerScope worker;
    const ber::NetQuantizer q(toy_scheme);
    auto base = std::make_shared<const ber::NetSnapshot>(q.quantize(toy->params()));
    ber::ChipFaultList faults(*base, ber::BitErrorConfig{0.01}, 7, 0.01);
    ber::Replica rep(0, *toy, q, base, std::move(faults), {1.0, 0.9},
                     {0.001, 0.01}, 1, /*on_codes=*/false);
    pl.set("serve.deploy_ms", median_us(5, [&] { rep.deploy_full(1); }) / 1e3);
    for (long b : {1L, 8L, 32L}) {
      const Tensor x = Tensor::randn({b, 3, 12, 12}, rng);
      pl.set("serve.replica_fwd_us.b" + std::to_string(b),
             median_us(b == 1 ? 200 : 50, [&] { rep.forward(x); }));
    }
  }

  // Paper-scale model: quantize, deploy on codes, fault lists, and the int8
  // per-layer forward each sweep trial runs (one thread per trial).
  {
    BER_TRACE_SCOPE("perfbench", "quant_biterror_codes");
    ber::QuantScheme scheme;
    auto paper = load_model(opts, kPaperModel, &scheme);
    const ber::NetQuantizer q(scheme);
    const auto params = paper->params();
    ber::NetSnapshot snap;
    pl.set("quant.quantize_ms",
           median_us(5, [&] { snap = q.quantize(params); }) / 1e3);
    const std::vector<ber::ParamSlot> slots = ber::param_slots(*paper);
    pl.set("quant.deploy_ms",
           median_us(5, [&] { ber::deploy_snapshot(snap, slots, true); }) / 1e3);
    constexpr double kP = 0.02;  // the sweep's largest rate
    std::unique_ptr<ber::ChipFaultList> list;
    pl.set("biterror.build_ms", median_us(5, [&] {
             list = std::make_unique<ber::ChipFaultList>(
                 snap, ber::BitErrorConfig{kP}, 7, kP);
           }) / 1e3);
    std::vector<double> apply_us;
    for (int i = 0; i < 6; ++i) {
      ber::NetSnapshot s = snap;
      const auto t0 = Clock::now();
      list->apply(s, kP);
      if (i > 0) apply_us.push_back(since_s(t0) * 1e6);
    }
    pl.set("biterror.apply_ms", median(apply_us) / 1e3);

    const ber::kernels::ScopedBackend bk("blocked");
    const ber::ParallelWorkerScope worker;
    constexpr int kReps = 3;
    Tensor x = Tensor::randn({kSweepBatch, 3, 32, 32}, rng);
    // The registry's qgemm tally leaves out the fused conv lowering, so the
    // int8 rate is taken from the profile's MACs.
    const std::vector<ber::LayerProfile> prof =
        ber::profile_model(*paper, {1, 3, 32, 32});
    double qops = 0.0, q_us = 0.0;
    for (std::size_t i = 0; i < paper->size(); ++i) {
      ber::Layer& l = paper->layer(i);
      const std::string label = layer_label(i, l);
      auto* cc = dynamic_cast<ber::CodeComputeLayer*>(&l);
      Tensor y;
      if (cc != nullptr && cc->code_compute_active()) {
        const double us =
            median_us(kReps, [&] { y = cc->forward_on_codes(x, false); });
        pl.set("nn.codes_us." + label, us);
        qops += 2.0 * static_cast<double>(prof[i].macs) * x.shape(0);
        q_us += us;
      } else {
        pl.set("nn.codes_us." + label,
               median_us(kReps, [&] { y = l.forward(x, false); }));
      }
      x = std::move(y);
    }
    pl.set("kernels.qgemm_gops.sweep", qops / (q_us * 1e3));
  }
  return train_step_us;
}

}  // namespace perfbench
