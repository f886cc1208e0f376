// Compute-backend microbenchmark: reference vs blocked kernels.
//
// Emits a single JSON object (core/json) on stdout so future PRs can track
// the compute hot path. Sections:
//   * gemm        — GFLOP/s grid over square sizes (plus a conv-shaped
//                   rectangular case) for each backend, single-threaded, and
//                   the blocked backend with intra-GEMM sharding. The
//                   acceptance number is speedup_128 (blocked vs reference
//                   at 128^3, one core): >= 3x; no CI step reads it. The
//                   reference kernels are register-blocked too (bit-exact
//                   with the seed loops), so the ratio measures cache
//                   blocking, packing and wider vectors, not a naive loop.
//   * gemm_variants — gemm_at / gemm_bt parity of the win at 128^3.
//   * train_shapes — the 15 per-image GEMMs of SimpleNet w8 training on
//                   12x12 inputs: for each conv, the forward gemm [out_c,
//                   spatial, in*k*k], the weight-gradient gemm_bt and the
//                   input-gradient gemm_at, reference vs blocked, one core.
//   * conv        — forward latency at batch 8 on one core: reference
//                   per-image lowering vs blocked per-image (same GEMM, old
//                   lowering) vs blocked batch-coalesced (one im2col + one
//                   GEMM across the batch). coalesced_speedup_vs_reference
//                   is the acceptance number (>= 1.5x); the per-image
//                   blocked column isolates how much of it is coalescing
//                   rather than the faster GEMM.
//   * conv_1x1    — pointwise-conv im2col elision: inference runs a plain
//                   GEMM on the input, vs the lowered (cache-filling) path.
//   * end_to_end  — clean-evaluation throughput (images/s) of the paper's
//                   default model under each backend.
//   * int8        — compute-on-codes datapath at 8 bits: quantized-vs-float
//                   Linear GEMM, end-to-end eval throughput on the
//                   paper-scale width-32 model (acceptance:
//                   int8_end_to_end_speedup >= 1.5x), and delta-redeploy
//                   weight-memory traffic vs a full deploy.
//
// Timings are wall-clock medians-of-one (~0.3s windows); the JSON also
// carries the tile sizes and thread count so regressions are attributable.
#include <chrono>
#include <cstdio>
#include <functional>
#include <vector>

#include "ber.h"

namespace {

using namespace ber;
using Clock = std::chrono::steady_clock;

// Runs fn repeatedly until ~0.3s elapsed (at least twice); returns seconds
// per call.
template <typename Fn>
double seconds_per_call(const Fn& fn) {
  fn();  // warm-up (also converges the scratch arena)
  int iters = 0;
  const auto start = Clock::now();
  double elapsed = 0.0;
  do {
    fn();
    ++iters;
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  } while (elapsed < 0.3 || iters < 2);
  return elapsed / iters;
}

double gflops(long m, long n, long k, double sec) {
  return 2.0 * static_cast<double>(m) * n * k / sec / 1e9;
}

struct GemmCase {
  long m, n, k;
};

}  // namespace

int main() {
  using kernels::BlockedBackend;
  const kernels::Backend& ref = kernels::backend("reference");
  const BlockedBackend blocked1(/*threads=*/1);  // the single-core story
  const kernels::Backend& blocked_mt = kernels::backend("blocked");
  const int threads = default_threads();
  Rng rng(1);

  Json report = Json::object();
  report.set("bench", "kernels");
  report.set("threads", threads);
  report.set("mr", BlockedBackend::mr());
  report.set("nr", BlockedBackend::nr());

  // ------------------------------------------------------------- gemm ---
  const std::vector<GemmCase> cases{
      {32, 32, 32}, {64, 64, 64}, {128, 128, 128}, {256, 256, 256},
      {32, 1152, 144}};  // conv-shaped: [out_c, N*OH*OW, in*k*k] at batch 8
  double speedup_128 = 0.0;
  Json gemm_rows = Json::array();
  for (std::size_t ci = 0; ci < cases.size(); ++ci) {
    const auto [m, n, k] = cases[ci];
    Tensor a = Tensor::randn({m, k}, rng);
    Tensor b = Tensor::randn({k, n}, rng);
    Tensor c({m, n});
    const double ref_sec = seconds_per_call(
        [&] { ref.gemm(m, n, k, 1.0f, a.data(), b.data(), 0.0f, c.data()); });
    const double blk_sec = seconds_per_call([&] {
      blocked1.gemm(m, n, k, 1.0f, a.data(), b.data(), 0.0f, c.data());
    });
    const double mt_sec = seconds_per_call([&] {
      blocked_mt.gemm(m, n, k, 1.0f, a.data(), b.data(), 0.0f, c.data());
    });
    const double speedup = ref_sec / blk_sec;
    if (m == 128 && n == 128 && k == 128) speedup_128 = speedup;
    Json row = Json::object();
    row.set("m", m).set("n", n).set("k", k);
    row.set("reference_gflops", gflops(m, n, k, ref_sec));
    row.set("blocked_gflops", gflops(m, n, k, blk_sec));
    row.set("blocked_mt_gflops", gflops(m, n, k, mt_sec));
    row.set("blocked_speedup", speedup);
    gemm_rows.push_back(std::move(row));
  }
  report.set("gemm", std::move(gemm_rows));
  report.set("gemm_blocked_speedup_128", speedup_128);

  // --------------------------------------------------- gemm variants ---
  {
    const long m = 128, n = 128, k = 128;
    Tensor at = Tensor::randn({k, m}, rng);
    Tensor bt = Tensor::randn({n, k}, rng);
    Tensor a = Tensor::randn({m, k}, rng);
    Tensor b = Tensor::randn({k, n}, rng);
    Tensor c({m, n});
    const double ref_at = seconds_per_call([&] {
      ref.gemm_at(m, n, k, 1.0f, at.data(), b.data(), 0.0f, c.data());
    });
    const double blk_at = seconds_per_call([&] {
      blocked1.gemm_at(m, n, k, 1.0f, at.data(), b.data(), 0.0f, c.data());
    });
    const double ref_bt = seconds_per_call([&] {
      ref.gemm_bt(m, n, k, 1.0f, a.data(), bt.data(), 0.0f, c.data());
    });
    const double blk_bt = seconds_per_call([&] {
      blocked1.gemm_bt(m, n, k, 1.0f, a.data(), bt.data(), 0.0f, c.data());
    });
    Json variants = Json::array();
    Json at_row = Json::object();
    at_row.set("variant", "at");
    at_row.set("reference_gflops", gflops(m, n, k, ref_at));
    at_row.set("blocked_gflops", gflops(m, n, k, blk_at));
    at_row.set("blocked_speedup", ref_at / blk_at);
    variants.push_back(std::move(at_row));
    Json bt_row = Json::object();
    bt_row.set("variant", "bt");
    bt_row.set("reference_gflops", gflops(m, n, k, ref_bt));
    bt_row.set("blocked_gflops", gflops(m, n, k, blk_bt));
    bt_row.set("blocked_speedup", ref_bt / blk_bt);
    variants.push_back(std::move(bt_row));
    report.set("gemm_variants", std::move(variants));
  }

  // ---------------------------------------------------- train shapes ---
  {
    const GemmCase convs[] = {
        {8, 144, 27}, {8, 144, 72}, {16, 36, 72}, {16, 36, 144}, {32, 9, 144}};
    Json rows = Json::array();
    for (const auto& [out_c, spatial, kk] : convs) {
      Tensor w = Tensor::randn({out_c, kk}, rng);
      Tensor col = Tensor::randn({kk, spatial}, rng);
      Tensor go = Tensor::randn({out_c, spatial}, rng);
      Tensor y({out_c, spatial}), dw({out_c, kk}), dcol({kk, spatial});
      struct Variant {
        const char* name;
        long m, n, k;
        std::function<void(const kernels::Backend&)> run;
      };
      const Variant variants[] = {
          {"gemm", out_c, spatial, kk,
           [&](const kernels::Backend& bk) {
             bk.gemm(out_c, spatial, kk, 1.0f, w.data(), col.data(), 0.0f,
                     y.data());
           }},
          {"gemm_bt", out_c, kk, spatial,
           [&](const kernels::Backend& bk) {
             bk.gemm_bt(out_c, kk, spatial, 1.0f, go.data(), col.data(), 1.0f,
                        dw.data());
           }},
          {"gemm_at", kk, spatial, out_c,
           [&](const kernels::Backend& bk) {
             bk.gemm_at(kk, spatial, out_c, 1.0f, w.data(), go.data(), 0.0f,
                        dcol.data());
           }},
      };
      for (const Variant& v : variants) {
        const double ref_sec = seconds_per_call([&] { v.run(ref); });
        const double blk_sec = seconds_per_call([&] { v.run(blocked1); });
        Json row = Json::object();
        row.set("variant", v.name);
        row.set("m", v.m).set("n", v.n).set("k", v.k);
        row.set("reference_gflops", gflops(v.m, v.n, v.k, ref_sec));
        row.set("blocked_gflops", gflops(v.m, v.n, v.k, blk_sec));
        rows.push_back(std::move(row));
      }
    }
    report.set("train_shapes", std::move(rows));
  }

  // ------------------------------------------------------------- conv ---
  {
    const long batch = 8;
    Conv2d conv(16, 32, 3, 1, 1);
    for (Param* p : conv.params()) {
      for (long i = 0; i < p->value.numel(); ++i) {
        p->value[i] = rng.normal() * 0.1f;
      }
    }
    Tensor x = Tensor::randn({batch, 16, 12, 12}, rng);
    // Blocked GEMM but the old per-image lowering: isolates the coalescing
    // gain from the GEMM gain.
    class BlockedPerImage final : public kernels::Backend {
     public:
      std::string name() const override { return "blocked_per_image"; }
      void gemm(long m, long n, long k, float alpha, const float* a,
                const float* b, float beta, float* c) const override {
        inner_.gemm(m, n, k, alpha, a, b, beta, c);
      }
      void gemm_at(long m, long n, long k, float alpha, const float* a,
                   const float* b, float beta, float* c) const override {
        inner_.gemm_at(m, n, k, alpha, a, b, beta, c);
      }
      void gemm_bt(long m, long n, long k, float alpha, const float* a,
                   const float* b, float beta, float* c) const override {
        inner_.gemm_bt(m, n, k, alpha, a, b, beta, c);
      }
      bool coalesced_conv() const override { return false; }

     private:
      BlockedBackend inner_{/*threads=*/1};
    } blocked_per_image;

    const double ref_sec = seconds_per_call([&] {
      kernels::ScopedBackend g(ref);
      Tensor y = conv.forward(x, false);
    });
    const double blk_img_sec = seconds_per_call([&] {
      kernels::ScopedBackend g(blocked_per_image);
      Tensor y = conv.forward(x, false);
    });
    const double blk_coal_sec = seconds_per_call([&] {
      kernels::ScopedBackend g(blocked1);
      Tensor y = conv.forward(x, false);
    });
    Json conv_j = Json::object();
    conv_j.set("batch", batch);
    conv_j.set("reference_per_image_us", ref_sec * 1e6);
    conv_j.set("blocked_per_image_us", blk_img_sec * 1e6);
    conv_j.set("blocked_coalesced_us", blk_coal_sec * 1e6);
    conv_j.set("coalesced_speedup_vs_reference", ref_sec / blk_coal_sec);
    conv_j.set("coalesced_speedup_vs_blocked_per_image",
               blk_img_sec / blk_coal_sec);
    report.set("conv", std::move(conv_j));
  }

  // -------------------------------------------------------- conv 1x1 ---
  // Pointwise convolution: inference elides im2col entirely (plain GEMM on
  // the input). Compare against a same-shape forward that is forced down
  // the lowered path by running in training mode (which must fill the
  // column cache for backward).
  {
    const long batch = 8;
    Conv2d conv(32, 64, 1, 1, 0);
    for (Param* p : conv.params()) {
      for (long i = 0; i < p->value.numel(); ++i) {
        p->value[i] = rng.normal() * 0.1f;
      }
    }
    Tensor x = Tensor::randn({batch, 32, 12, 12}, rng);
    const double lowered_sec = seconds_per_call([&] {
      kernels::ScopedBackend g(blocked1);
      Tensor y = conv.forward(x, true);  // training: keeps im2col + cache
    });
    const double elided_sec = seconds_per_call([&] {
      kernels::ScopedBackend g(blocked1);
      Tensor y = conv.forward(x, false);  // inference: direct GEMM on x
    });
    Json pw = Json::object();
    pw.set("batch", batch);
    pw.set("blocked_lowered_us", lowered_sec * 1e6);
    pw.set("blocked_elided_us", elided_sec * 1e6);
    pw.set("elision_speedup", lowered_sec / elided_sec);
    report.set("conv_1x1", std::move(pw));
  }

  // ------------------------------------------------------- end to end ---
  {
    Rng mrng(7);
    ModelConfig mc;
    auto model = build_model(mc);
    he_init(*model, mrng);
    SyntheticConfig dc = SyntheticConfig::cifar10();
    dc.n_test = 256;
    Dataset data = make_synthetic(dc, /*train=*/false);
    const long images = data.size();
    const double ref_sec = seconds_per_call([&] {
      kernels::ScopedBackend g(ref);
      evaluate(*model, data, /*batch=*/64);
    });
    const double blk_sec = seconds_per_call([&] {
      kernels::ScopedBackend g(blocked1);
      evaluate(*model, data, /*batch=*/64);
    });
    Json e2e = Json::object();
    e2e.set("images", images);
    e2e.set("reference_images_per_sec", images / ref_sec);
    e2e.set("blocked_images_per_sec", images / blk_sec);
    e2e.set("blocked_speedup", ref_sec / blk_sec);
    report.set("end_to_end", std::move(e2e));
  }
  // ------------------------------------------------------------- int8 ---
  // Compute-on-codes datapath: int8 GEMM over 8-bit quantized code words
  // with fused bias+ReLU epilogues (kernels/qgemm_blocked.cpp), against the
  // float blocked path on the dequantized weights of the same model. The
  // acceptance number is int8.end_to_end.speedup (>= 1.5x at 8 bits); the
  // delta_redeploy block records the weight-memory traffic of an
  // incremental operating-point move vs a from-scratch deploy.
  {
    const QuantScheme scheme = QuantScheme::rquant(8);
    Json int8_j = Json::object();
    int8_j.set("scheme", "rquant8");

    // Quantized linear forward (qgemm_bt + fused epilogue) vs float.
    {
      const long batch = 256, in = 256, out = 256;
      Sequential seq;
      seq.emplace<Linear>(in, out);
      Rng lrng(13);
      he_init(seq, lrng);
      NetQuantizer lq(scheme);
      const NetSnapshot lsnap = lq.quantize(seq.params());
      Tensor x = Tensor::randn({batch, in}, lrng);
      deploy_snapshot(lsnap, param_slots(seq), /*on_codes=*/false);
      const double float_sec = seconds_per_call([&] {
        kernels::ScopedBackend g(blocked1);
        Tensor y = seq.forward(x, false);
      });
      deploy_snapshot(lsnap, param_slots(seq), /*on_codes=*/true);
      const double quant_sec = seconds_per_call([&] {
        kernels::ScopedBackend g(blocked1);
        Tensor y = seq.forward(x, false);
      });
      Json lin = Json::object();
      lin.set("m", out).set("n", batch).set("k", in);
      lin.set("float_gflops", gflops(out, batch, in, float_sec));
      lin.set("quant_gops", gflops(out, batch, in, quant_sec));
      lin.set("speedup", float_sec / quant_sec);
      int8_j.set("linear", std::move(lin));
    }

    // End-to-end clean evaluation at the paper's scale (CIFAR-sized 32x32
    // inputs, width-32 SimpleNet): float blocked on dequantized 8-bit
    // weights vs compute-on-codes int8. The repo-default 12x12/width-12
    // config is a scaled-down test model whose conv GEMMs are a minority of
    // the runtime (norms/pools/lowering dominate), so it cannot show a
    // compute-path win end to end; the accelerator regime the paper targets
    // is GEMM-bound.
    Rng mrng(11);
    ModelConfig mc;
    mc.width = 32;
    mc.image_size = 32;
    auto model = build_model(mc);
    he_init(*model, mrng);
    SyntheticConfig dc = SyntheticConfig::cifar10();
    dc.image_size = 32;
    dc.n_test = 128;
    Dataset data = make_synthetic(dc, /*train=*/false);
    const long images = data.size();
    NetQuantizer quantizer(scheme);
    const NetSnapshot snap = quantizer.quantize(model->params());
    {
      deploy_snapshot(snap, param_slots(*model), /*on_codes=*/false);
      const double float_sec = seconds_per_call([&] {
        kernels::ScopedBackend g(blocked1);
        evaluate(*model, data, /*batch=*/64);
      });
      deploy_snapshot(snap, param_slots(*model), /*on_codes=*/true);
      const double quant_sec = seconds_per_call([&] {
        kernels::ScopedBackend g(blocked1);
        evaluate(*model, data, /*batch=*/64);
      });
      deploy_snapshot(snap, param_slots(*model), /*on_codes=*/false);
      Json e2e = Json::object();
      e2e.set("images", images);
      e2e.set("image_size", mc.image_size);
      e2e.set("width", mc.width);
      e2e.set("float_images_per_sec", images / float_sec);
      e2e.set("int8_images_per_sec", images / quant_sec);
      e2e.set("speedup", float_sec / quant_sec);
      report.set("int8_end_to_end_speedup", float_sec / quant_sec);
      int8_j.set("end_to_end", std::move(e2e));
    }

    // Weight-memory traffic of operating-point moves: a delta redeploy
    // patches only the code words whose fault set changed, a full deploy
    // rewrites every word.
    {
      auto base = std::make_shared<const NetSnapshot>(snap);
      ChipFaultList faults(*base, BitErrorConfig{0.05}, /*chip_seed=*/7,
                           /*p_max=*/0.05);
      const std::vector<double> voltages{1.0, 0.9, 0.8, 0.7};
      const std::vector<double> rates{0.0005, 0.005, 0.02, 0.05};
      Replica replica(0, *model, quantizer, base, std::move(faults),
                      voltages, rates, /*deploy_index=*/3,
                      /*on_codes=*/true);
      const unsigned long long full_bytes =
          replica.deploy_stats().bytes_written;
      replica.deploy(2);  // one step up the grid: incremental patch
      const unsigned long long delta_bytes =
          replica.deploy_stats().bytes_written - full_bytes;
      Json dj = Json::object();
      dj.set("full_deploy_bytes", static_cast<long>(full_bytes));
      dj.set("delta_deploy_bytes", static_cast<long>(delta_bytes));
      dj.set("delta_fraction",
             static_cast<double>(delta_bytes) /
                 static_cast<double>(full_bytes));
      int8_j.set("delta_redeploy", std::move(dj));
    }
    report.set("int8", std::move(int8_j));
  }

  std::printf("%s\n", report.dump().c_str());
  return 0;
}
