// Convolution lowering through a compute backend.
//
// Two strategies, chosen by Backend::coalesced_conv():
//
//   per-image  — the seed path: for each image, im2col to [C*k*k, OH*OW]
//                and one GEMM. Bit-exact with the original Conv2d loops
//                under the reference backend. In training mode the batch
//                runs as min(default_threads(), N) contiguous image shards
//                through parallel_for (one shard, on the calling thread,
//                inside a parallel worker or at BER_THREADS=1). Each image's
//                lowering, GEMMs and col2im touch only its own slices; the
//                cross-image sums dW += addend_i and db += addend_i stay in
//                the seed's ascending image order: shard 0 adds onto the
//                gradients directly, later images write their addends into
//                -0.0f-prefilled slots of the caller's backward scratch, and
//                the calling thread adds the slots after the join. Every
//                output bit is the serial loop's at any thread count, and
//                workers allocate nothing.
//   coalesced  — ONE column matrix [C*k*k, N*OH*OW] (image i occupies
//                columns [i*OH*OW, (i+1)*OH*OW)) and ONE GEMM for the whole
//                batch, so dynamic batching pays even on a single core: the
//                GEMM amortizes A-packing of the weights over N images and
//                runs at full tile occupancy instead of N skinny calls.
//                Backward is coalesced the same way (one gemm_bt for dW,
//                one gemm_at for dcol).
//
// The column matrix doubles as the backward cache: in training mode the
// caller passes a Tensor to retain ([N, C*k*k, OH*OW] per-image,
// [C*k*k, N*OH*OW] coalesced — backward infers the layout from the rank);
// in inference mode it lives in the thread-local arena and no per-call heap
// allocation or layer-held cache survives the call.
#pragma once

#include "kernels/backend.h"
#include "tensor/tensor.h"

namespace ber::kernels {

struct ConvShape {
  long n;        // batch
  long in_c, h, w;
  long out_c;
  long kernel;   // square
  long stride;
  long pad;

  long oh() const;
  long ow() const;
  long spatial() const { return oh() * ow(); }        // OH*OW
  long cols_k() const { return in_c * kernel * kernel; }  // GEMM inner dim
};

// Forward: x [N, in_c, H, W], weight [out_c, in_c, k, k], bias [out_c] (may
// be null), y [N, out_c, OH, OW]. If cols_cache is non-null it is filled
// with the column matrix for backward; its Tensor must already have the
// layout-appropriate shape (Conv2d handles this).
void conv2d_forward(const Backend& bk, const ConvShape& s, const float* x,
                    const float* weight, const float* bias, float* y,
                    Tensor* cols_cache);

// Inference-only compute-on-codes forward: the same lowering strategies
// (pointwise elision / per-image / coalesced), but the GEMM consumes the
// stored weight code words through the backend's qgemm and the bias +
// optional ReLU ride in the fused epilogue instead of separate passes.
// w.rows must be out_c and w.cols must be cols_k(). Under the reference
// backend (scalar oracle qgemm) the result is bit-identical to
// conv2d_forward on the dequantized weights followed by ReLU.
void conv2d_forward_quant(const Backend& bk, const ConvShape& s,
                          const float* x, const QWeightView& w,
                          const QEpilogue& ep, float* y);

// Backward: cols is the cache written by forward (layout inferred from its
// rank), grad_out [N, out_c, OH, OW]. Accumulates into grad_weight /
// grad_bias (grad_bias may be null); writes grad_in [N, in_c, H, W], which
// must be pre-zeroed by the caller. scratch holds the per-image lowering's
// shard buffers (one dcol per shard, the dW/db addend slots) and is grown
// here, on the calling thread, when a call needs more; keep it across
// steps (Conv2d holds one per layer and frees it with the column cache).
// The coalesced lowering leaves it untouched.
void conv2d_backward(const Backend& bk, const ConvShape& s, const Tensor& cols,
                     const float* grad_out, const float* weight,
                     float* grad_weight, float* grad_bias, float* grad_in,
                     Tensor& scratch);

}  // namespace ber::kernels
