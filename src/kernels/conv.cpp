#include "kernels/conv.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "core/parallel.h"
#include "kernels/arena.h"
#include "obs/kernel_stats.h"
#include "tensor/ops.h"

namespace ber::kernels {

long ConvShape::oh() const { return conv_out_size(h, kernel, stride, pad); }
long ConvShape::ow() const { return conv_out_size(w, kernel, stride, pad); }

namespace {

// 1x1 / stride-1 / no-pad convolutions need no column matrix at all: the
// im2col of image i IS its input plane [C, H*W], so the GEMM can read x
// directly. Only taken in inference mode (no cache to fill) — it elides the
// whole copy, and the GEMM consumes the exact bytes the copy would have
// produced, so results are bit-identical to the lowered path under every
// backend (parity-pinned in tests/test_kernels.cpp).
bool is_pointwise(const ConvShape& s) {
  return s.kernel == 1 && s.stride == 1 && s.pad == 0;
}

void forward_pointwise(const Backend& bk, const ConvShape& s, const float* x,
                       const float* weight, const float* bias, float* y) {
  const long spatial = s.spatial();
  for (long i = 0; i < s.n; ++i) {
    bk.gemm(s.out_c, spatial, s.in_c, 1.0f, weight,
            x + i * s.in_c * spatial, 0.0f, y + i * s.out_c * spatial);
    if (bias) {
      for (long c = 0; c < s.out_c; ++c) {
        float* plane = y + (i * s.out_c + c) * spatial;
        const float b = bias[c];
        for (long p = 0; p < spatial; ++p) plane[p] += b;
      }
    }
  }
}

// Contiguous image shards a training-mode per-image lowering splits the
// batch into: one per core, or a single one (the serial seed loop) inside a
// worker that coarse-grained parallelism already runs on (zoo training,
// evaluator workers, serving replicas), the blocked GEMM's rule.
long image_shards(long n) {
  return in_parallel_worker() ? 1 : std::min<long>(default_threads(), n);
}

// Runs body(lo, hi, shard) over contiguous image ranges, one per shard;
// a single shard runs on the calling thread.
template <typename Body>
void for_image_shards(long n, long shards, const Body& body) {
  const long chunk = (n + shards - 1) / shards;
  parallel_for(shards, static_cast<int>(shards), [&](std::int64_t t) {
    const long lo = t * chunk, hi = std::min(n, lo + chunk);
    if (lo < hi) body(lo, hi, static_cast<long>(t));
  });
}

// One image of the seed Conv2d loop: im2col, one [out_c, spatial] GEMM,
// then bias.
void forward_image(const Backend& bk, const ConvShape& s, const float* x,
                   const float* weight, const float* bias, float* y,
                   float* col, long i) {
  const long k = s.cols_k(), spatial = s.spatial();
  im2col(x + i * s.in_c * s.h * s.w, s.in_c, s.h, s.w, s.kernel, s.kernel,
         s.stride, s.pad, col);
  bk.gemm(s.out_c, spatial, k, 1.0f, weight, col, 0.0f,
          y + i * s.out_c * spatial);
  if (bias) {
    for (long c = 0; c < s.out_c; ++c) {
      float* plane = y + (i * s.out_c + c) * spatial;
      const float b = bias[c];
      for (long p = 0; p < spatial; ++p) plane[p] += b;
    }
  }
}

// The seed Conv2d loop, kept order-identical so the reference backend stays
// bit-exact. Images are independent, so training runs them in shards; an
// inference call reuses one arena column buffer serially.
void forward_per_image(const Backend& bk, const ConvShape& s, const float* x,
                       const float* weight, const float* bias, float* y,
                       Tensor* cache) {
  const long k = s.cols_k(), spatial = s.spatial();
  bk.kstats().im2col_bytes->add(static_cast<unsigned long long>(s.n) * k *
                                spatial * sizeof(float));
  if (cache) {
    for_image_shards(s.n, image_shards(s.n), [&](long lo, long hi, long) {
      for (long i = lo; i < hi; ++i) {
        float* col = cache->data() + i * k * spatial;
        forward_image(bk, s, x, weight, bias, y, col, i);
      }
    });
    return;
  }
  Arena& arena = tls_arena();
  ArenaScope scope(arena);
  float* col = arena.alloc(static_cast<std::size_t>(k * spatial));
  for (long i = 0; i < s.n; ++i) {
    forward_image(bk, s, x, weight, bias, y, col, i);
  }
}

// One im2col + one GEMM across the whole batch. The GEMM result comes out
// [out_c, N*spatial] (channel-major); the writeback transposes it into the
// [N, out_c, spatial] output layout and folds the bias in.
void forward_coalesced(const Backend& bk, const ConvShape& s, const float* x,
                       const float* weight, const float* bias, float* y,
                       Tensor* cache) {
  const long k = s.cols_k(), spatial = s.spatial();
  const long ld = s.n * spatial;
  bk.kstats().im2col_bytes->add(static_cast<unsigned long long>(k) * ld *
                                sizeof(float));
  Arena& arena = tls_arena();
  ArenaScope scope(arena);
  float* cols =
      cache ? cache->data() : arena.alloc(static_cast<std::size_t>(k * ld));
  for (long i = 0; i < s.n; ++i) {
    im2col_ld(x + i * s.in_c * s.h * s.w, s.in_c, s.h, s.w, s.kernel,
              s.kernel, s.stride, s.pad, cols + i * spatial, ld);
  }
  float* tmp = arena.alloc(static_cast<std::size_t>(s.out_c * ld));
  bk.gemm(s.out_c, ld, k, 1.0f, weight, cols, 0.0f, tmp);
  for (long i = 0; i < s.n; ++i) {
    for (long c = 0; c < s.out_c; ++c) {
      const float* src = tmp + c * ld + i * spatial;
      float* dst = y + (i * s.out_c + c) * spatial;
      const float b = bias ? bias[c] : 0.0f;
      for (long p = 0; p < spatial; ++p) dst[p] = src[p] + b;
    }
  }
}

// The seed loop adds each image's addend onto dW and db in image order:
// dW += gO_i x col_i^T, db[c] += sum_p gO_i[c, p]. Shard 0's images add
// straight onto the gradients as the seed does. Every later image writes its
// addends into a slot prefilled with -0.0f, which gemm_bt (beta 1) and the
// bias sum turn into exactly the addend (-0 + x == x for every x, +-0
// included); after the join the calling thread adds the slots in ascending
// image order, so every gradient bit equals the serial loop's. The slots and
// the per-shard dcol buffers live in `scratch`, sized here on the calling
// thread: workers allocate nothing.
void backward_per_image(const Backend& bk, const ConvShape& s,
                        const Tensor& cols, const float* grad_out,
                        const float* weight, float* grad_weight,
                        float* grad_bias, float* grad_in, Tensor& scratch) {
  const long k = s.cols_k(), spatial = s.spatial();
  const long wsize = s.out_c * k;
  const long shards = image_shards(s.n);
  const long first = (s.n + shards - 1) / shards;  // shard 0's images
  const long slots = s.n - first;
  const long bsize = grad_bias ? s.out_c : 0;
  const long need = shards * k * spatial + slots * (wsize + bsize);
  if (scratch.numel() < need) scratch = Tensor({need});
  float* grad_cols = scratch.data();
  float* dw_slots = grad_cols + shards * k * spatial;
  float* db_slots = dw_slots + slots * wsize;
  for_image_shards(s.n, shards, [&](long lo, long hi, long t) {
    float* grad_col = grad_cols + t * k * spatial;
    for (long i = lo; i < hi; ++i) {
      const float* go = grad_out + i * s.out_c * spatial;
      const float* col = cols.data() + i * k * spatial;
      float* dw = grad_weight;
      float* db = grad_bias;
      if (i >= first) {
        dw = dw_slots + (i - first) * wsize;
        std::fill(dw, dw + wsize, -0.0f);
        if (db) {
          db = db_slots + (i - first) * s.out_c;
          std::fill(db, db + s.out_c, -0.0f);
        }
      }
      // dW [out, k] += gO [out, spatial] x col^T [spatial, k]
      bk.gemm_bt(s.out_c, k, spatial, 1.0f, go, col, 1.0f, dw);
      if (db) {
        for (long c = 0; c < s.out_c; ++c) {
          const float* plane = go + c * spatial;
          float acc = 0.0f;
          for (long p = 0; p < spatial; ++p) acc += plane[p];
          db[c] += acc;
        }
      }
      // dcol [k, spatial] = W^T [k, out] x gO [out, spatial]
      bk.gemm_at(k, spatial, s.out_c, 1.0f, weight, go, 0.0f, grad_col);
      col2im(grad_col, s.in_c, s.h, s.w, s.kernel, s.kernel, s.stride, s.pad,
             grad_in + i * s.in_c * s.h * s.w);
    }
  });
  for (long i = 0; i < slots; ++i) {
    const float* dw = dw_slots + i * wsize;
    for (long j = 0; j < wsize; ++j) grad_weight[j] += dw[j];
    if (grad_bias) {
      const float* db = db_slots + i * s.out_c;
      for (long c = 0; c < s.out_c; ++c) grad_bias[c] += db[c];
    }
  }
}

void backward_coalesced(const Backend& bk, const ConvShape& s,
                        const Tensor& cols, const float* grad_out,
                        const float* weight, float* grad_weight,
                        float* grad_bias, float* grad_in) {
  const long k = s.cols_k(), spatial = s.spatial();
  const long ld = s.n * spatial;
  Arena& arena = tls_arena();
  ArenaScope scope(arena);
  // Gather grad_out [N, out_c, spatial] into channel-major [out_c, N*spatial]
  // so the whole batch is two GEMMs.
  float* go_all = arena.alloc(static_cast<std::size_t>(s.out_c * ld));
  for (long i = 0; i < s.n; ++i) {
    for (long c = 0; c < s.out_c; ++c) {
      const float* src = grad_out + (i * s.out_c + c) * spatial;
      float* dst = go_all + c * ld + i * spatial;
      for (long p = 0; p < spatial; ++p) dst[p] = src[p];
    }
  }
  // dW [out, k] += gO_all [out, N*spatial] x cols^T [N*spatial, k]
  bk.gemm_bt(s.out_c, k, ld, 1.0f, go_all, cols.data(), 1.0f, grad_weight);
  if (grad_bias) {
    for (long c = 0; c < s.out_c; ++c) {
      const float* row = go_all + c * ld;
      float acc = 0.0f;
      for (long p = 0; p < ld; ++p) acc += row[p];
      grad_bias[c] += acc;
    }
  }
  // dcol [k, N*spatial] = W^T [k, out] x gO_all [out, N*spatial]
  float* grad_col = arena.alloc(static_cast<std::size_t>(k * ld));
  bk.gemm_at(k, ld, s.out_c, 1.0f, weight, go_all, 0.0f, grad_col);
  for (long i = 0; i < s.n; ++i) {
    col2im_ld(grad_col + i * spatial, s.in_c, s.h, s.w, s.kernel, s.kernel,
              s.stride, s.pad, grad_in + i * s.in_c * s.h * s.w, ld);
  }
}

// Quantized-weight lowerings mirror the float ones above, with the bias /
// ReLU epilogue fused into the qgemm writeback (so the coalesced transpose
// below is a plain copy — the epilogue already ran per channel row, which
// is elementwise-identical to folding it during the transpose).
void forward_quant_pointwise(const Backend& bk, const ConvShape& s,
                             const float* x, const QWeightView& w,
                             const QEpilogue& ep, float* y) {
  const long spatial = s.spatial();
  for (long i = 0; i < s.n; ++i) {
    bk.qgemm(w, spatial, x + i * s.in_c * spatial,
             y + i * s.out_c * spatial, ep);
  }
}

}  // namespace

// Default quantized conv: per-image lowering + qgemm, the oracle every
// backend's override must match (bit-exactly under the scalar-oracle qgemm,
// up to activation quantization otherwise).
void Backend::qconv(const ConvShape& s, const float* x, const QWeightView& w,
                    const QEpilogue& ep, float* y) const {
  const long k = s.cols_k(), spatial = s.spatial();
  kstats().im2col_bytes->add(static_cast<unsigned long long>(s.n) * k *
                             spatial * sizeof(float));
  Arena& arena = tls_arena();
  ArenaScope scope(arena);
  float* col = arena.alloc(static_cast<std::size_t>(k * spatial));
  for (long i = 0; i < s.n; ++i) {
    im2col(x + i * s.in_c * s.h * s.w, s.in_c, s.h, s.w, s.kernel, s.kernel,
           s.stride, s.pad, col);
    qgemm(w, spatial, col, y + i * s.out_c * spatial, ep);
  }
}

void conv2d_forward_quant(const Backend& bk, const ConvShape& s,
                          const float* x, const QWeightView& w,
                          const QEpilogue& ep, float* y) {
  obs::KernelStats& ks = bk.kstats();
  ks.qconv_calls->add(1);
  ks.qconv_images->add(static_cast<unsigned long long>(s.n));
  if (is_pointwise(s)) {
    forward_quant_pointwise(bk, s, x, w, ep, y);
  } else {
    bk.qconv(s, x, w, ep, y);
  }
}

void conv2d_forward(const Backend& bk, const ConvShape& s, const float* x,
                    const float* weight, const float* bias, float* y,
                    Tensor* cols_cache) {
  obs::KernelStats& ks = bk.kstats();
  ks.conv_calls->add(1);
  ks.conv_images->add(static_cast<unsigned long long>(s.n));
  if (cols_cache == nullptr && is_pointwise(s)) {
    // Inference-mode 1x1 conv: plain GEMM on the input, no im2col (and, for
    // coalesced backends, no channel-major writeback transpose either).
    // Training keeps the lowered paths — backward consumes the cache.
    forward_pointwise(bk, s, x, weight, bias, y);
    return;
  }
  if (bk.coalesced_conv()) {
    forward_coalesced(bk, s, x, weight, bias, y, cols_cache);
  } else {
    forward_per_image(bk, s, x, weight, bias, y, cols_cache);
  }
}

void conv2d_backward(const Backend& bk, const ConvShape& s, const Tensor& cols,
                     const float* grad_out, const float* weight,
                     float* grad_weight, float* grad_bias, float* grad_in,
                     Tensor& scratch) {
  // The cache layout tells us which lowering produced it: [N, k, spatial]
  // from the per-image path, [k, N*spatial] from the coalesced one.
  if (cols.dim() == 3) {
    backward_per_image(bk, s, cols, grad_out, weight, grad_weight, grad_bias,
                       grad_in, scratch);
  } else if (cols.dim() == 2) {
    backward_coalesced(bk, s, cols, grad_out, weight, grad_weight, grad_bias,
                       grad_in);
  } else {
    throw std::invalid_argument(
        "conv2d_backward: column cache has unexpected rank (was forward run "
        "in training mode?)");
  }
}

}  // namespace ber::kernels
