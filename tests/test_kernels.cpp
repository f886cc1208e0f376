// Tests for the src/kernels/ compute-backend subsystem: registry + env
// selection, scratch arena reuse, blocked-vs-reference GEMM parity on
// odd/edge shapes, threaded-GEMM determinism, batch-coalesced convolution
// parity (forward and backward), per-model backend preferences, the
// inference-mode backward-cache release, and bit-for-bit parity of the
// reference kernels (GEMMs, conv lowering, ReLU, a whole RandBET training
// run) with the seed loops in seed_ops.h.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <string>
#include <tuple>
#include <vector>

#include "ber.h"
#include "seed_ops.h"
#include "test_util.h"

// Counting global operator new: heap allocations in this process, and those
// made on parallel_for workers (core/parallel.h).
namespace {
std::atomic<long> g_heap_allocs{0};
std::atomic<long> g_worker_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (ber::in_parallel_worker()) {
    g_worker_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace ber;
using kernels::Backend;
using kernels::BlockedBackend;

// Normwise relative error: max |got - want| over the magnitude of the
// expected result (floored at 1). The standard GEMM-verification metric —
// per-element ratios are meaningless where random-walk cancellation leaves
// a near-zero expected value.
float max_rel_err(const Tensor& got, const Tensor& want) {
  EXPECT_EQ(got.numel(), want.numel());
  float worst = 0.0f;
  for (long i = 0; i < got.numel(); ++i) {
    worst = std::max(worst, std::abs(got[i] - want[i]));
  }
  return worst / std::max(1.0f, want.abs_max());
}

// ----------------------------------------------------------- registry ---

// Restores BER_BACKEND and the latched process default on destruction, so
// tests that poke the registry don't leak state — in particular the CI leg
// that runs this whole suite under BER_BACKEND=blocked must still see the
// blocked default in later tests.
struct DefaultBackendRestore {
  std::string env;
  bool had_env;
  DefaultBackendRestore() {
    const char* e = std::getenv("BER_BACKEND");
    had_env = e != nullptr;
    if (e) env = e;
  }
  ~DefaultBackendRestore() {
    if (had_env) {
      setenv("BER_BACKEND", env.c_str(), 1);
    } else {
      unsetenv("BER_BACKEND");
    }
    kernels::detail::refresh_default_from_env();
  }
};

TEST(BackendRegistry, BuiltinsRegistered) {
  const auto names = kernels::backend_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "reference"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "blocked"), names.end());
  EXPECT_EQ(kernels::backend("reference").name(), "reference");
  EXPECT_EQ(kernels::backend("blocked").name(), "blocked");
  EXPECT_TRUE(kernels::backend("blocked").coalesced_conv());
  EXPECT_FALSE(kernels::backend("reference").coalesced_conv());
}

TEST(BackendRegistry, UnknownNameThrows) {
  EXPECT_THROW(kernels::backend("turbo"), std::invalid_argument);
  EXPECT_THROW(kernels::set_default_backend("turbo"), std::invalid_argument);
}

TEST(BackendRegistry, DefaultAndScopedOverride) {
  const DefaultBackendRestore restore;
  kernels::set_default_backend("reference");
  EXPECT_EQ(kernels::current_backend().name(), "reference");
  {
    kernels::ScopedBackend outer("blocked");
    EXPECT_EQ(kernels::current_backend().name(), "blocked");
    {
      kernels::ScopedBackend inner("reference");
      EXPECT_EQ(kernels::current_backend().name(), "reference");
    }
    EXPECT_EQ(kernels::current_backend().name(), "blocked");
  }
  EXPECT_EQ(kernels::current_backend().name(), "reference");
}

TEST(BackendRegistry, EnvOverrideSelectsAndValidates) {
  const DefaultBackendRestore restore;
  ASSERT_EQ(setenv("BER_BACKEND", "blocked", 1), 0);
  kernels::detail::refresh_default_from_env();
  EXPECT_EQ(kernels::default_backend().name(), "blocked");

  ASSERT_EQ(setenv("BER_BACKEND", "no-such-backend", 1), 0);
  EXPECT_THROW(kernels::detail::refresh_default_from_env(),
               std::invalid_argument);

  ASSERT_EQ(unsetenv("BER_BACKEND"), 0);
  kernels::detail::refresh_default_from_env();
  EXPECT_EQ(kernels::default_backend().name(), "reference");
}

// -------------------------------------------------------------- arena ---

TEST(Arena, ScopeRewindsAndPointersStayValid) {
  kernels::Arena arena;
  float* outer = arena.alloc(100);
  outer[0] = 1.0f;
  {
    kernels::ArenaScope scope(arena);
    float* inner = arena.alloc(50);
    // Force growth while `outer` and `inner` are live.
    float* big = arena.alloc(100000);
    inner[0] = 2.0f;
    big[0] = 3.0f;
    EXPECT_EQ(outer[0], 1.0f);  // untouched by growth
    EXPECT_GE(arena.used(), std::size_t{100150});
  }
  EXPECT_EQ(arena.used(), std::size_t{100});  // rewound to the watermark
  EXPECT_EQ(outer[0], 1.0f);
}

TEST(Arena, CapacityConvergesAcrossDifferentlyShapedCalls) {
  kernels::Arena arena;
  const std::vector<std::size_t> shapes{1000, 5000, 3000, 1000, 5000};
  for (std::size_t n : shapes) {
    kernels::ArenaScope scope(arena);
    arena.alloc(n);
  }
  const std::size_t cap = arena.capacity();
  const std::size_t chunks = arena.chunk_count();
  for (int round = 0; round < 3; ++round) {
    for (std::size_t n : shapes) {
      kernels::ArenaScope scope(arena);
      float* p = arena.alloc(n);
      p[n - 1] = 1.0f;
    }
  }
  EXPECT_EQ(arena.capacity(), cap) << "arena kept growing on repeat calls";
  EXPECT_EQ(arena.chunk_count(), chunks);
}

TEST(Arena, ConvForwardReusesArenaAcrossShapes) {
  kernels::ScopedBackend guard("blocked");
  Rng rng(3);
  Conv2d conv(4, 6, 3, 1, 1);
  for (Param* p : conv.params()) {
    for (long i = 0; i < p->value.numel(); ++i) p->value[i] = rng.normal();
  }
  Tensor a = Tensor::randn({2, 4, 10, 10}, rng);
  Tensor b = Tensor::randn({5, 4, 7, 7}, rng);
  // Warm up both shapes, then the arena must stop growing.
  conv.forward(a, false);
  conv.forward(b, false);
  conv.forward(a, false);
  conv.forward(b, false);
  const std::size_t cap = kernels::tls_arena().capacity();
  for (int i = 0; i < 4; ++i) {
    conv.forward(a, false);
    conv.forward(b, false);
  }
  EXPECT_EQ(kernels::tls_arena().capacity(), cap);
}

// -------------------------------------------------------- GEMM parity ---

struct GemmShape {
  long m, n, k;
};

const std::vector<GemmShape>& parity_shapes() {
  // Deliberately not multiples of the register tile (mr x nr), plus
  // degenerate and tile-straddling edges.
  static const std::vector<GemmShape> shapes{
      {1, 1, 1},   {1, 7, 3},    {5, 1, 9},    {3, 5, 7},
      {17, 19, 23}, {31, 33, 1},  {64, 64, 64}, {65, 31, 129},
      {129, 63, 40}, {7, 300, 5}, {130, 70, 260}};
  return shapes;
}

TEST(BlockedGemm, ParityWithReferenceAcrossShapesAndBetas) {
  const Backend& ref = kernels::backend("reference");
  const BlockedBackend blocked(1);
  Rng rng(11);
  for (const auto& s : parity_shapes()) {
    for (float beta : {0.0f, 1.0f, 0.5f}) {
      Tensor a = Tensor::randn({s.m, s.k}, rng);
      Tensor b = Tensor::randn({s.k, s.n}, rng);
      Tensor c0 = Tensor::randn({s.m, s.n}, rng);
      Tensor c1 = c0;
      ref.gemm(s.m, s.n, s.k, 1.3f, a.data(), b.data(), beta, c0.data());
      blocked.gemm(s.m, s.n, s.k, 1.3f, a.data(), b.data(), beta, c1.data());
      EXPECT_LT(max_rel_err(c1, c0), 1e-4f)
          << "gemm " << s.m << "x" << s.n << "x" << s.k << " beta=" << beta;
    }
  }
}

TEST(BlockedGemm, ParityTransposedVariants) {
  const Backend& ref = kernels::backend("reference");
  const BlockedBackend blocked(1);
  Rng rng(12);
  for (const auto& s : parity_shapes()) {
    Tensor at = Tensor::randn({s.k, s.m}, rng);  // A stored [k,m]
    Tensor bt = Tensor::randn({s.n, s.k}, rng);  // B stored [n,k]
    Tensor a = Tensor::randn({s.m, s.k}, rng);
    Tensor b = Tensor::randn({s.k, s.n}, rng);
    Tensor c0 = Tensor::randn({s.m, s.n}, rng);
    Tensor c1 = c0;
    ref.gemm_at(s.m, s.n, s.k, 1.0f, at.data(), b.data(), 1.0f, c0.data());
    blocked.gemm_at(s.m, s.n, s.k, 1.0f, at.data(), b.data(), 1.0f, c1.data());
    EXPECT_LT(max_rel_err(c1, c0), 1e-4f)
        << "gemm_at " << s.m << "x" << s.n << "x" << s.k;

    c0 = Tensor::randn({s.m, s.n}, rng);
    c1 = c0;
    ref.gemm_bt(s.m, s.n, s.k, 1.0f, a.data(), bt.data(), 0.0f, c0.data());
    blocked.gemm_bt(s.m, s.n, s.k, 1.0f, a.data(), bt.data(), 0.0f, c1.data());
    EXPECT_LT(max_rel_err(c1, c0), 1e-4f)
        << "gemm_bt " << s.m << "x" << s.n << "x" << s.k;
  }
}

TEST(BlockedGemm, ThreadedShardingIsBitIdentical) {
  // The row-sharded path must be bit-identical to single-threaded blocked
  // for any shard count: each C element's k-summation order is fixed.
  Rng rng(13);
  const long m = 150, n = 130, k = 530;  // k spans three KC blocks
  Tensor a = Tensor::randn({m, k}, rng);
  Tensor b = Tensor::randn({k, n}, rng);
  Tensor c1({m, n}), c4({m, n}), c3({m, n});
  BlockedBackend(1).gemm(m, n, k, 1.0f, a.data(), b.data(), 0.0f, c1.data());
  BlockedBackend(4).gemm(m, n, k, 1.0f, a.data(), b.data(), 0.0f, c4.data());
  BlockedBackend(3).gemm(m, n, k, 1.0f, a.data(), b.data(), 0.0f, c3.data());
  for (long i = 0; i < c1.numel(); ++i) {
    ASSERT_EQ(c1[i], c4[i]) << "shard-count-dependent result at " << i;
    ASSERT_EQ(c1[i], c3[i]) << "shard-count-dependent result at " << i;
  }
}

TEST(BlockedGemm, WorkerMarkerKeepsAutoShardingSerial) {
  // parallel_for worker threads are marked so the blocked backend's auto
  // thread mode ("blocked" in the registry, threads=0) stays serial inside
  // evaluator/serving workers instead of oversubscribing T^2.
  EXPECT_FALSE(in_parallel_worker());
  bool flags[2] = {false, false};
  parallel_for(2, 2, [&](std::int64_t i) { flags[i] = in_parallel_worker(); });
  EXPECT_TRUE(flags[0]);
  EXPECT_TRUE(flags[1]);
  EXPECT_FALSE(in_parallel_worker());
  {
    const ParallelWorkerScope mark;
    EXPECT_TRUE(in_parallel_worker());
  }
  EXPECT_FALSE(in_parallel_worker());
}

TEST(BlockedGemm, RepeatedCallsAreDeterministic) {
  Rng rng(14);
  const long m = 65, n = 33, k = 129;
  Tensor a = Tensor::randn({m, k}, rng);
  Tensor b = Tensor::randn({k, n}, rng);
  Tensor c0({m, n}), c1({m, n});
  const BlockedBackend blocked(1);
  blocked.gemm(m, n, k, 1.0f, a.data(), b.data(), 0.0f, c0.data());
  blocked.gemm(m, n, k, 1.0f, a.data(), b.data(), 0.0f, c1.data());
  for (long i = 0; i < c0.numel(); ++i) ASSERT_EQ(c0[i], c1[i]);
}

// -------------------------------------------------------- conv parity ---

struct ConvCase {
  long n, in_c, h, w, out_c, kernel, stride, pad;
  bool bias;
};

const std::vector<ConvCase>& conv_cases() {
  static const std::vector<ConvCase> cases{
      {1, 3, 12, 12, 8, 3, 1, 1, true},
      {8, 16, 12, 12, 32, 3, 1, 1, true},
      {4, 2, 9, 7, 5, 3, 2, 1, true},   // stride 2, non-square input
      {3, 4, 8, 8, 6, 2, 2, 0, false},  // even kernel, no pad, no bias
      {2, 1, 5, 5, 3, 5, 1, 2, true},   // kernel as big as the image
  };
  return cases;
}

Conv2d make_conv(const ConvCase& c, Rng& rng) {
  Conv2d conv(c.in_c, c.out_c, c.kernel, c.stride, c.pad, c.bias);
  for (Param* p : conv.params()) {
    for (long i = 0; i < p->value.numel(); ++i) {
      p->value[i] = rng.normal() * 0.2f;
    }
  }
  return conv;
}

TEST(CoalescedConv, ForwardMatchesPerImage) {
  Rng rng(21);
  for (const auto& c : conv_cases()) {
    Conv2d conv = make_conv(c, rng);
    Tensor x = Tensor::randn({c.n, c.in_c, c.h, c.w}, rng);
    Tensor y_ref, y_blk;
    {
      kernels::ScopedBackend g("reference");
      y_ref = conv.forward(x, false);
    }
    {
      kernels::ScopedBackend g("blocked");
      y_blk = conv.forward(x, false);
    }
    ASSERT_EQ(y_blk.shape(), y_ref.shape());
    EXPECT_LT(max_rel_err(y_blk, y_ref), 1e-4f)
        << "conv N=" << c.n << " stride=" << c.stride << " pad=" << c.pad;
  }
}

TEST(CoalescedConv, BackwardMatchesPerImage) {
  Rng rng(22);
  for (const auto& c : conv_cases()) {
    Conv2d conv_ref = make_conv(c, rng);
    Conv2d conv_blk = conv_ref;  // identical weights
    Tensor x = Tensor::randn({c.n, c.in_c, c.h, c.w}, rng);

    Tensor gin_ref, gin_blk;
    {
      kernels::ScopedBackend g("reference");
      Tensor y = conv_ref.forward(x, true);
      Tensor go = Tensor::uniform(y.shape(), rng, -1.0f, 1.0f);
      gin_ref = conv_ref.backward(go);
      kernels::ScopedBackend g2("blocked");
      Tensor y2 = conv_blk.forward(x, true);
      gin_blk = conv_blk.backward(go);
      ASSERT_EQ(y2.shape(), y.shape());
    }
    EXPECT_LT(max_rel_err(gin_blk, gin_ref), 1e-4f) << "grad_in";
    const auto ps_ref = conv_ref.params();
    const auto ps_blk = conv_blk.params();
    for (std::size_t i = 0; i < ps_ref.size(); ++i) {
      EXPECT_LT(max_rel_err(ps_blk[i]->grad, ps_ref[i]->grad), 1e-4f)
          << "grad of " << ps_ref[i]->name;
    }
  }
}

// 1x1 / stride-1 / no-pad convolutions elide im2col in inference mode (a
// plain GEMM on the input). The GEMM consumes exactly the bytes the lowered
// path would copy, so inference output must be BIT-identical to the
// training-mode forward (which still lowers to fill the backward cache),
// under both backends.
TEST(PointwiseConv, ElisionIsBitExactWithLoweredPath) {
  Rng rng(27);
  for (const long batch : {1L, 5L}) {
    Conv2d conv(6, 9, /*kernel=*/1, /*stride=*/1, /*pad=*/0);
    for (Param* p : conv.params()) {
      for (long i = 0; i < p->value.numel(); ++i) {
        p->value[i] = rng.normal() * 0.2f;
      }
    }
    Tensor x = Tensor::randn({batch, 6, 7, 7}, rng);
    for (const char* backend : {"reference", "blocked"}) {
      kernels::ScopedBackend g(backend);
      Tensor lowered = conv.forward(x, /*training=*/true);
      Tensor elided = conv.forward(x, /*training=*/false);
      ASSERT_EQ(elided.shape(), lowered.shape());
      for (long i = 0; i < elided.numel(); ++i) {
        ASSERT_EQ(elided[i], lowered[i])
            << backend << " batch=" << batch << " i=" << i;
      }
    }
  }
}

// Strided / padded / k>1 convs must NOT take the pointwise shortcut.
TEST(PointwiseConv, NonPointwiseShapesKeepLoweredSemantics) {
  Rng rng(28);
  Conv2d conv(3, 4, /*kernel=*/1, /*stride=*/2, /*pad=*/0);
  for (Param* p : conv.params()) {
    for (long i = 0; i < p->value.numel(); ++i) {
      p->value[i] = rng.normal() * 0.2f;
    }
  }
  Tensor x = Tensor::randn({2, 3, 8, 8}, rng);
  Tensor y_ref, y_blk;
  {
    kernels::ScopedBackend g("reference");
    y_ref = conv.forward(x, false);
  }
  {
    kernels::ScopedBackend g("blocked");
    y_blk = conv.forward(x, false);
  }
  ASSERT_EQ(y_ref.shape(), (std::vector<long>{2, 4, 4, 4}));
  EXPECT_LT(max_rel_err(y_blk, y_ref), 1e-4f);
}

TEST(CoalescedConv, GradcheckUnderBlockedBackend) {
  kernels::ScopedBackend guard("blocked");
  Rng rng(23);
  Conv2d conv(2, 3, 3, 1, 1);
  for (Param* p : conv.params()) {
    for (long i = 0; i < p->value.numel(); ++i) {
      p->value[i] = rng.normal() * 0.3f;
    }
  }
  Tensor x = Tensor::randn({2, 2, 6, 6}, rng);
  test::gradcheck_layer(conv, x);
}

// ------------------------------------------- model-level integration ---

TEST(BackendIntegration, SequentialPreferenceWinsAndSurvivesClone) {
  Rng rng(31);
  ModelConfig mc;
  auto model = build_model(mc);
  he_init(*model, rng);
  Tensor x = Tensor::randn({4, mc.in_channels, mc.image_size, mc.image_size},
                           rng);

  Tensor y_scoped;
  {
    kernels::ScopedBackend g("blocked");
    y_scoped = model->forward(x, false);
  }
  model->set_backend("blocked");
  Tensor y_pref = model->forward(x, false);  // process default is reference
  for (long i = 0; i < y_pref.numel(); ++i) {
    ASSERT_EQ(y_pref[i], y_scoped[i]) << "preference != scoped override";
  }

  Sequential clone(*model);
  EXPECT_EQ(clone.backend(), "blocked");
  Tensor y_clone = clone.forward(x, false);
  for (long i = 0; i < y_clone.numel(); ++i) ASSERT_EQ(y_clone[i], y_pref[i]);

  EXPECT_THROW(model->set_backend("no-such-backend"), std::invalid_argument);
  model->set_backend("");  // back to inherit
  EXPECT_TRUE(model->backend().empty());
}

TEST(BackendIntegration, EvaluatorMatchesAcrossBackendsWithinTolerance) {
  Rng rng(32);
  ModelConfig mc;
  auto model = build_model(mc);
  he_init(*model, rng);
  SyntheticConfig dc = SyntheticConfig::cifar10();
  dc.n_test = 64;
  const Dataset data = make_synthetic(dc, /*train=*/false);
  BitErrorConfig cfg;
  cfg.p = 0.005;
  const RandomBitErrorModel fault(cfg, /*seed_base=*/7);

  RobustResult r_ref, r_blk;
  {
    kernels::ScopedBackend g("reference");
    RobustnessEvaluator ev(*model, QuantScheme::rquant(8));
    r_ref = ev.run(fault, data, /*n_trials=*/3);
  }
  {
    // The evaluator must propagate the caller's scoped choice onto its
    // worker threads.
    kernels::ScopedBackend g("blocked");
    RobustnessEvaluator ev(*model, QuantScheme::rquant(8));
    r_blk = ev.run(fault, data, /*n_trials=*/3);
  }
  // Error rates are means over >= 64 images; kernel reassociation moves
  // logits by ~1e-6, which only flips predictions on razor-thin argmax
  // ties. Allow one image of slack per trial.
  EXPECT_NEAR(r_blk.mean_rerr, r_ref.mean_rerr, 1.0f / 64.0f + 1e-6f);
}

// ------------------------------------------------ inference caches ---

TEST(InferenceCaches, ConvAndLinearReleaseBackwardCaches) {
  Rng rng(41);
  Conv2d conv(3, 8, 3, 1, 1);
  Linear linear(12, 5);
  Tensor x = Tensor::randn({6, 3, 8, 8}, rng);
  Tensor xl = Tensor::randn({6, 12}, rng);

  conv.forward(x, true);
  linear.forward(xl, true);
  // Under a per-image backend, backward also leaves its shard scratch.
  conv.backward(Tensor::randn({6, 8, 8, 8}, rng));
  conv.forward(x, true);
  EXPECT_GT(conv.cached_bytes(), 0);
  EXPECT_GT(linear.cached_bytes(), 0);

  // Cloning a just-trained layer copies the caches — the serving/eval
  // scenario from the issue: the first inference forward must drop them.
  Conv2d conv_clone = conv;
  EXPECT_GT(conv_clone.cached_bytes(), 0);
  conv_clone.forward(x, false);
  EXPECT_EQ(conv_clone.cached_bytes(), 0);

  conv.forward(x, false);
  linear.forward(xl, false);
  EXPECT_EQ(conv.cached_bytes(), 0);
  EXPECT_EQ(linear.cached_bytes(), 0);
}

// ------------------------------------ reference kernels vs seed loops ---

// Byte equality, reporting the first differing element's bits on failure.
::testing::AssertionResult same_bits(const std::vector<float>& got,
                                     const std::vector<float>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << "sizes " << got.size() << " vs " << want.size();
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    std::uint32_t g, w;
    std::memcpy(&g, &got[i], sizeof g);
    std::memcpy(&w, &want[i], sizeof w);
    if (g != w) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "at %zu: %08x vs %08x", i, g, w);
      return ::testing::AssertionFailure() << buf;
    }
  }
  return ::testing::AssertionSuccess();
}

// Replaces every NaN by one canonical quiet NaN. When two NaNs meet in an
// addition, x86 returns the first operand's, and which operand comes first
// is the compiler's choice (it treats + as commutative), so a NaN result's
// sign and payload are not part of the seed's contract — only that it is
// NaN.
void canonicalize_nans(std::vector<float>& v) {
  for (float& x : v) {
    if (std::isnan(x)) x = std::numeric_limits<float>::quiet_NaN();
  }
}

// Operands for one exactness case. A has scattered exact zeros (+0 and -0)
// plus whole "dead" reduction indices p where every A(i,p) is zero; B holds
// +inf, -inf, NaN and -0 exactly on those dead rows. gemm and gemm_at skip
// zero terms, so the specials must never reach C and the results must match
// byte for byte. gemm_bt skips nothing: 0 * inf and 0 * NaN turn nearly
// all of C into NaN, so it is checked byte for byte on bt_finite (the same
// B^T with finite values on the dead rows) and, once NaNs are
// canonicalized, on bt.
struct GemmOperands {
  std::vector<float> a, at, b, bt, bt_finite, c;
};

GemmOperands make_operands(long m, long n, long k, Rng& rng) {
  GemmOperands o;
  const float specials[] = {std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN(), -0.0f};
  std::vector<bool> dead(static_cast<std::size_t>(k));
  for (long p = 0; p < k; ++p) dead[p] = p % 5 == 2;
  auto val = [&] { return rng.normal(); };
  o.a.resize(static_cast<std::size_t>(m * k));
  o.at.resize(o.a.size());
  for (long i = 0; i < m; ++i) {
    for (long p = 0; p < k; ++p) {
      float v = val();
      if (dead[p] || (i + 2 * p) % 7 == 0) v = (i + p) % 2 ? -0.0f : 0.0f;
      o.a[i * k + p] = v;       // [m,k]
      o.at[p * m + i] = v;      // [k,m]
    }
  }
  o.b.resize(static_cast<std::size_t>(k * n));
  o.bt.resize(o.b.size());
  o.bt_finite.resize(o.b.size());
  for (long p = 0; p < k; ++p) {
    for (long j = 0; j < n; ++j) {
      const float v = dead[p] ? specials[(p + j) % 4] : val();
      o.b[p * n + j] = v;       // [k,n]
      o.bt[j * k + p] = v;      // [n,k]
      o.bt_finite[j * k + p] = dead[p] ? val() : v;
    }
  }
  o.c.resize(static_cast<std::size_t>(m * n));
  for (float& v : o.c) v = val();
  return o;
}

// Runs all three variants through the library and the seed loops for every
// alpha and beta, and requires identical bytes.
void expect_gemms_match_seed(long m, long n, long k, Rng& rng) {
  const GemmOperands o = make_operands(m, n, k, rng);
  for (float alpha : {1.0f, -0.5f}) {
    for (float beta : {0.0f, 1.0f, 0.25f}) {
      std::vector<float> got = o.c, want = o.c;
      gemm(m, n, k, alpha, o.a.data(), o.b.data(), beta, got.data());
      test::seed::gemm(m, n, k, alpha, o.a.data(), o.b.data(), beta,
                       want.data());
      ASSERT_TRUE(same_bits(got, want)) << "gemm " << m << "x" << n << "x"
                                        << k << " alpha=" << alpha
                                        << " beta=" << beta;
      got = o.c;
      want = o.c;
      gemm_at(m, n, k, alpha, o.at.data(), o.b.data(), beta, got.data());
      test::seed::gemm_at(m, n, k, alpha, o.at.data(), o.b.data(), beta,
                          want.data());
      ASSERT_TRUE(same_bits(got, want)) << "gemm_at " << m << "x" << n << "x"
                                        << k << " alpha=" << alpha
                                        << " beta=" << beta;
      got = o.c;
      want = o.c;
      gemm_bt(m, n, k, alpha, o.a.data(), o.bt_finite.data(), beta,
              got.data());
      test::seed::gemm_bt(m, n, k, alpha, o.a.data(), o.bt_finite.data(),
                          beta, want.data());
      ASSERT_TRUE(same_bits(got, want)) << "gemm_bt " << m << "x" << n << "x"
                                        << k << " alpha=" << alpha
                                        << " beta=" << beta << " finite";
      got = o.c;
      want = o.c;
      gemm_bt(m, n, k, alpha, o.a.data(), o.bt.data(), beta, got.data());
      test::seed::gemm_bt(m, n, k, alpha, o.a.data(), o.bt.data(), beta,
                          want.data());
      canonicalize_nans(got);
      canonicalize_nans(want);
      ASSERT_TRUE(same_bits(got, want)) << "gemm_bt " << m << "x" << n << "x"
                                        << k << " alpha=" << alpha
                                        << " beta=" << beta;
    }
  }
}

TEST(ReferenceKernels, GemmsMatchSeedLoopsOnAllSmallShapes) {
  Rng rng(51);
  for (long m = 1; m <= 17; ++m) {
    for (long n = 1; n <= 17; ++n) {
      for (long k = 1; k <= 17; ++k) {
        expect_gemms_match_seed(m, n, k, rng);
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(ReferenceKernels, GemmsMatchSeedLoopsOnTrainingShapes) {
  // SimpleNet w8 on 12x12 inputs, per image: conv forward is
  // gemm(out_c, spatial, in*k*k); backward runs gemm_bt(out_c, in*k*k,
  // spatial) and gemm_at(in*k*k, spatial, out_c). Each triple is run in all
  // three variants and in its two backward orientations.
  const GemmShape shapes[] = {
      {8, 144, 27}, {8, 144, 72}, {16, 36, 72}, {16, 36, 144}, {32, 9, 144}};
  Rng rng(52);
  for (const GemmShape& s : shapes) {
    expect_gemms_match_seed(s.m, s.n, s.k, rng);
    expect_gemms_match_seed(s.m, s.k, s.n, rng);
    expect_gemms_match_seed(s.k, s.n, s.m, rng);
    if (HasFatalFailure()) return;
  }
}

TEST(ReferenceKernels, LoweringMatchesSeedLoops) {
  Rng rng(53);
  for (long ch : {1L, 3L}) {
    for (long h : {1L, 2L, 5L, 7L, 12L}) {
      for (long w : {1L, 3L, 6L, 12L}) {
        for (long kk : {1L, 2L, 3L, 5L}) {
          for (long stride : {1L, 2L, 3L}) {
            for (long pad : {0L, 1L, 2L}) {
              const long oh = conv_out_size(h, kk, stride, pad);
              const long ow = conv_out_size(w, kk, stride, pad);
              if (oh <= 0 || ow <= 0 || h + 2 * pad < kk || w + 2 * pad < kk) {
                continue;
              }
              const long rows = ch * kk * kk, ld = oh * ow + 3;
              std::vector<float> img(static_cast<std::size_t>(ch * h * w));
              for (float& v : img) v = rng.normal();
              std::vector<float> got(static_cast<std::size_t>(rows * ld),
                                     7.0f);
              std::vector<float> want = got;
              im2col_ld(img.data(), ch, h, w, kk, kk, stride, pad, got.data(),
                        ld);
              test::seed::im2col_ld(img.data(), ch, h, w, kk, kk, stride, pad,
                                    want.data(), ld);
              ASSERT_TRUE(same_bits(got, want))
                  << "im2col c" << ch << " " << h << "x" << w << " k" << kk
                  << " s" << stride << " p" << pad;

              // Accumulate into a non-zero image so the order of addends
              // per element is visible in the rounding.
              std::vector<float> col(static_cast<std::size_t>(rows * ld));
              for (float& v : col) v = rng.normal();
              std::vector<float> back = img, back_seed = img;
              col2im_ld(col.data(), ch, h, w, kk, kk, stride, pad,
                        back.data(), ld);
              test::seed::col2im_ld(col.data(), ch, h, w, kk, kk, stride,
                                    pad, back_seed.data(), ld);
              ASSERT_TRUE(same_bits(back, back_seed))
                  << "col2im c" << ch << " " << h << "x" << w << " k" << kk
                  << " s" << stride << " p" << pad;
            }
          }
        }
      }
    }
  }
}

TEST(ReferenceKernels, ReluByteMaskMatchesFloatMaskFormula) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> xs{1.5f, -2.0f, 0.0f, -0.0f, inf, -inf, nan, 3e-39f};
  const std::vector<float> gs{-1.0f, -0.0f, inf, -inf, nan, 2.0f, -3.0f, 0.5f};
  std::vector<float> x, g;
  for (float xv : xs) {
    for (float gv : gs) {
      x.push_back(xv);
      g.push_back(gv);
    }
  }
  const long n = static_cast<long>(x.size());
  ReLU relu;
  const Tensor y = relu.forward(Tensor::from_data({n}, x), /*training=*/true);
  const Tensor gi = relu.backward(Tensor::from_data({n}, g));
  std::vector<float> y_want(x.size()), g_want(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    // The seed: y = x > 0 ? x : 0, mask = x > 0 ? 1.0f : 0.0f, g *= mask.
    const float mask = x[i] > 0.0f ? 1.0f : 0.0f;
    y_want[i] = x[i] > 0.0f ? x[i] : 0.0f;
    g_want[i] = g[i] * mask;
  }
  EXPECT_TRUE(same_bits({y.data(), y.data() + n}, y_want));
  ASSERT_TRUE(same_bits({gi.data(), gi.data() + n}, g_want));
  // The float-mask formula yields -0 and NaN where a select would give +0.
  EXPECT_TRUE(std::signbit(gi[1 * 8 + 0]));  // x = -2, g = -1
  EXPECT_TRUE(std::isnan(gi[1 * 8 + 2]));    // x = -2, g = inf
  EXPECT_THROW(relu.backward(Tensor::zeros({n + 1})), std::logic_error);
}

// The seed loops as a compute backend, so a whole training run can be
// replayed against them.
class SeedReferenceBackend final : public Backend {
 public:
  std::string name() const override { return "seed_reference"; }
  void gemm(long m, long n, long k, float alpha, const float* a,
            const float* b, float beta, float* c) const override {
    test::seed::gemm(m, n, k, alpha, a, b, beta, c);
  }
  void gemm_at(long m, long n, long k, float alpha, const float* a,
               const float* b, float beta, float* c) const override {
    test::seed::gemm_at(m, n, k, alpha, a, b, beta, c);
  }
  void gemm_bt(long m, long n, long k, float alpha, const float* a,
               const float* b, float beta, float* c) const override {
    test::seed::gemm_bt(m, n, k, alpha, a, b, beta, c);
  }
};

// Sets BER_THREADS for one scope and restores it afterwards.
struct ThreadsEnv {
  std::string prev;
  bool had;
  explicit ThreadsEnv(int n) {
    const char* e = std::getenv("BER_THREADS");
    had = e != nullptr;
    if (e) prev = e;
    setenv("BER_THREADS", std::to_string(n).c_str(), 1);
  }
  ~ThreadsEnv() {
    if (had) {
      setenv("BER_THREADS", prev.c_str(), 1);
    } else {
      unsetenv("BER_THREADS");
    }
  }
};

// Two epochs of RandBET on a width-8 SimpleNet under `backend`, injecting
// from the second epoch.
std::unique_ptr<Sequential> train_small_randbet(const std::string& backend,
                                                TrainStats* stats) {
  SyntheticConfig dc = SyntheticConfig::cifar10();
  dc.n_train = 100;
  dc.n_test = 50;
  ModelConfig mc;
  mc.width = 8;
  TrainConfig tc;
  tc.method = Method::kRandBET;
  tc.epochs = 2;
  tc.batch_size = 50;
  tc.wmax = 0.15f;
  tc.p_train = 0.01;
  tc.bit_error_loss_threshold = 100.0f;  // inject from the second epoch
  tc.backend = backend;
  auto model = build_model(mc);
  *stats = train(*model, make_synthetic(dc, true), make_synthetic(dc, false),
                 tc);
  return model;
}

// Same losses, test error and parameter bytes.
void expect_same_training(Sequential& a_model, const TrainStats& a,
                          Sequential& b_model, const TrainStats& b) {
  EXPECT_EQ(a.bit_error_start_epoch, 1);
  EXPECT_EQ(a.epoch_loss, b.epoch_loss);
  EXPECT_EQ(a.final_test_err, b.final_test_err);
  const auto pa = a_model.params();
  const auto pb = b_model.params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i]->value.numel(), pb[i]->value.numel());
    EXPECT_EQ(std::memcmp(pa[i]->value.data(), pb[i]->value.data(),
                          sizeof(float) * pa[i]->value.numel()),
              0)
        << pa[i]->name << " (parameter " << i << ")";
  }
}

TEST(ReferenceKernels, RandBETTrainingMatchesSeedLoopsBitForBit) {
  const auto names = kernels::backend_names();
  if (std::find(names.begin(), names.end(), "seed_reference") == names.end()) {
    kernels::register_backend(std::make_unique<SeedReferenceBackend>());
  }
  TrainStats s_fast, s_seed;
  const auto fast = train_small_randbet("reference", &s_fast);
  const auto seed = train_small_randbet("seed_reference", &s_seed);
  expect_same_training(*fast, s_fast, *seed, s_seed);
}

// The seed loops, except that gemm_bt sums each dot product from -0.0f:
// an all -0 grad_out over non-negative columns then gives a -0 dW addend,
// which a partial slot prefilled with +0 would turn into +0 (and so flip a
// -0 gradient). Under the reference GEMM every addend sums from +0 and is
// never -0, so only a backend like this one tells the two prefills apart.
class NegZeroDotBackend final : public Backend {
 public:
  std::string name() const override { return "neg_zero_dot"; }
  void gemm(long m, long n, long k, float alpha, const float* a,
            const float* b, float beta, float* c) const override {
    test::seed::gemm(m, n, k, alpha, a, b, beta, c);
  }
  void gemm_at(long m, long n, long k, float alpha, const float* a,
               const float* b, float beta, float* c) const override {
    test::seed::gemm_at(m, n, k, alpha, a, b, beta, c);
  }
  void gemm_bt(long m, long n, long k, float alpha, const float* a,
               const float* b, float beta, float* c) const override {
    if (beta == 0.0f) {
      std::memset(c, 0, sizeof(float) * static_cast<std::size_t>(m * n));
    } else if (beta != 1.0f) {
      for (long i = 0; i < m * n; ++i) c[i] *= beta;
    }
    for (long i = 0; i < m; ++i) {
      for (long j = 0; j < n; ++j) {
        float acc = -0.0f;
        for (long p = 0; p < k; ++p) acc += a[i * k + p] * b[j * k + p];
        c[i * n + j] += alpha * acc;
      }
    }
  }
};

struct SeedConvCase {
  kernels::ConvShape s;
  std::vector<float> x, w, b, go, dw0, db0;
};

// Runs kernels::conv2d_forward (training mode) and conv2d_backward under bk
// and the serial seed loops under seed_bk, and compares y, the column cache,
// dW, db and grad_in by memcmp.
::testing::AssertionResult conv_matches_seed(const Backend& bk,
                                             const Backend& seed_bk,
                                             const SeedConvCase& c) {
  const kernels::ConvShape& s = c.s;
  const long k = s.cols_k(), spatial = s.spatial();
  const auto sz = [](long n) { return static_cast<std::size_t>(n); };
  Tensor cols({s.n, k, spatial});
  std::vector<float> y(sz(s.n * s.out_c * spatial));
  std::vector<float> y_seed = y, cols_seed(sz(s.n * k * spatial));
  kernels::conv2d_forward(bk, s, c.x.data(), c.w.data(), c.b.data(), y.data(),
                          &cols);
  test::seed::conv2d_forward(seed_bk, s, c.x.data(), c.w.data(), c.b.data(),
                             y_seed.data(), cols_seed.data());
  std::vector<float> dw = c.dw0, db = c.db0, dw_seed = c.dw0, db_seed = c.db0;
  std::vector<float> gi(sz(s.n * s.in_c * s.h * s.w), 0.0f), gi_seed = gi;
  Tensor scratch;
  kernels::conv2d_backward(bk, s, cols, c.go.data(), c.w.data(), dw.data(),
                           db.data(), gi.data(), scratch);
  test::seed::conv2d_backward(seed_bk, s, cols_seed.data(), c.go.data(),
                              c.w.data(), dw_seed.data(), db_seed.data(),
                              gi_seed.data());
  std::vector<float> cols_got(cols.data(), cols.data() + cols.numel());
  for (const auto& [what, got, want] :
       {std::tuple{"y", &y, &y_seed}, std::tuple{"cols", &cols_got, &cols_seed},
        std::tuple{"dW", &dw, &dw_seed}, std::tuple{"db", &db, &db_seed},
        std::tuple{"grad_in", &gi, &gi_seed}}) {
    if (auto r = same_bits(*got, *want); !r) return r << " in " << what;
  }
  return ::testing::AssertionSuccess();
}

TEST(ReferenceKernels, ShardedConvMatchesSerialSeedLoopAtAnyThreadCount) {
  const Backend& ref = kernels::backend("reference");
  const SeedReferenceBackend seed_bk;
  const NegZeroDotBackend neg_zero;
  Rng rng(54);
  for (long n : {1L, 5L, 50L}) {
    for (const kernels::ConvShape& shape :
         {kernels::ConvShape{n, 3, 7, 6, 4, 3, 1, 1},
          kernels::ConvShape{n, 2, 9, 9, 5, 3, 2, 0}}) {
      SeedConvCase c{shape, {}, {}, {}, {}, {}, {}};
      const kernels::ConvShape& s = c.s;
      const auto fill = [&](std::vector<float>& v, long count) {
        v.resize(static_cast<std::size_t>(count));
        for (float& e : v) e = rng.normal();
      };
      fill(c.x, s.n * s.in_c * s.h * s.w);
      fill(c.w, s.out_c * s.cols_k());
      fill(c.b, s.out_c);
      fill(c.go, s.n * s.out_c * s.spatial());
      fill(c.dw0, s.out_c * s.cols_k());
      fill(c.db0, s.out_c);
      c.dw0[0] = -0.0f;
      c.db0[0] = -0.0f;
      // Image 1 sends back only -0.
      if (s.n > 1) {
        const long plane = s.out_c * s.spatial();
        std::fill(c.go.begin() + plane, c.go.begin() + 2 * plane, -0.0f);
      }
      // Non-negative inputs, an all -0 grad_out and all -0 gradients: every
      // addend under neg_zero is -0, so every gradient bit must stay -0.
      SeedConvCase z = c;
      for (float& v : z.x) v = std::abs(v);
      std::fill(z.go.begin(), z.go.end(), -0.0f);
      std::fill(z.dw0.begin(), z.dw0.end(), -0.0f);
      std::fill(z.db0.begin(), z.db0.end(), -0.0f);
      for (int threads : {1, 2, 3, 4, 7}) {
        const ThreadsEnv env(threads);
        ASSERT_TRUE(conv_matches_seed(ref, seed_bk, c))
            << "n=" << n << " stride=" << s.stride << " threads=" << threads;
        ASSERT_TRUE(conv_matches_seed(neg_zero, neg_zero, z))
            << "neg-zero n=" << n << " stride=" << s.stride
            << " threads=" << threads;
      }
    }
  }
}

TEST(ReferenceKernels, RandBETTrainingIsBitIdenticalAcrossThreadCounts) {
  TrainStats s1, s4;
  std::unique_ptr<Sequential> serial, sharded;
  {
    const ThreadsEnv env(1);
    serial = train_small_randbet("reference", &s1);
  }
  {
    const ThreadsEnv env(4);
    sharded = train_small_randbet("reference", &s4);
  }
  expect_same_training(*serial, s1, *sharded, s4);
}

TEST(Arena, WarmScopesAndInferenceConvAllocateNothing) {
  const kernels::ScopedBackend pin("reference");
  kernels::Arena& arena = kernels::tls_arena();
  const auto scoped_alloc = [&] {
    kernels::ArenaScope outer(arena);
    arena.alloc(1000);
    kernels::ArenaScope inner(arena);
    arena.alloc(5000);
  };
  scoped_alloc();
  long before = g_heap_allocs.load();
  for (int i = 0; i < 100; ++i) scoped_alloc();
  EXPECT_EQ(g_heap_allocs.load() - before, 0) << "per 100 warmed scopes";

  Rng rng(55);
  Conv2d conv(3, 8, 3);
  for (Param* p : conv.params()) {
    for (long i = 0; i < p->value.numel(); ++i) p->value[i] = rng.normal();
  }
  const Tensor x = Tensor::randn({4, 3, 12, 12}, rng);
  const kernels::ConvShape s{4, 3, 12, 12, 8, 3, 1, 1};
  std::vector<float> y(static_cast<std::size_t>(4 * 8 * s.spatial()));
  const float* w = conv.params()[0]->value.data();
  for (int i = 0; i < 2; ++i) {
    conv.forward(x, /*training=*/false);
    kernels::conv2d_forward(kernels::current_backend(), s, x.data(), w,
                            nullptr, y.data(), nullptr);
  }
  before = g_heap_allocs.load();
  kernels::conv2d_forward(kernels::current_backend(), s, x.data(), w, nullptr,
                          y.data(), nullptr);
  EXPECT_EQ(g_heap_allocs.load() - before, 0) << "kernels::conv2d_forward";
  // Conv2d::forward allocates its output tensor and nothing else.
  before = g_heap_allocs.load();
  { const Tensor out({4, 8, 12, 12}); }
  const long tensor_allocs = g_heap_allocs.load() - before;
  before = g_heap_allocs.load();
  conv.forward(x, /*training=*/false);
  EXPECT_EQ(g_heap_allocs.load() - before, tensor_allocs) << "Conv2d::forward";
}

TEST(Arena, ShardedTrainingConvWorkersAllocateNothing) {
  const kernels::ScopedBackend pin("reference");
  const ThreadsEnv env(4);
  Rng rng(56);
  Conv2d conv(3, 8, 3);
  for (Param* p : conv.params()) {
    for (long i = 0; i < p->value.numel(); ++i) p->value[i] = rng.normal();
  }
  const Tensor x = Tensor::randn({10, 3, 12, 12}, rng);
  const Tensor go = Tensor::randn({10, 8, 12, 12}, rng);
  const auto step = [&] {
    conv.forward(x, /*training=*/true);
    conv.backward(go);
  };
  step();
  const long before = g_worker_allocs.load();
  step();
  EXPECT_EQ(g_worker_allocs.load() - before, 0);
}

}  // namespace
