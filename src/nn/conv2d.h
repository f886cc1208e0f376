// 2-D convolution lowered through the compute backend (kernels/conv.h):
// per-image im2col + GEMM on the reference backend, batch-coalesced
// (one column matrix + one GEMM for the whole batch) on the blocked one.
#pragma once

#include <optional>

#include "nn/code_compute.h"
#include "nn/layer.h"
#include "quant/qweights.h"

namespace ber {

class Conv2d : public Layer, public CodeComputeLayer {
 public:
  // Square kernels only (all paper architectures use 3x3); zero padding.
  Conv2d(long in_channels, long out_channels, long kernel, long stride = 1,
         long pad = 1, bool bias = true);

  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Param*> params() override;
  std::string name() const override;
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<Conv2d>(*this);
  }

  // Compute-on-codes (nn/code_compute.h): inference forwards lower through
  // kernels::conv2d_forward_quant with bias (and optionally the following
  // ReLU) fused into the qgemm writeback.
  void adopt_weight_codes(QuantizedTensor qt) override;
  void release_weight_codes() override { wcodes_.reset(); }
  bool code_compute_active() const override { return wcodes_.has_value(); }
  void patch_weight_code(std::size_t index, std::uint16_t code) override;
  Tensor forward_on_codes(const Tensor& x, bool fuse_relu) override;

  long in_channels() const { return in_channels_; }
  long out_channels() const { return out_channels_; }
  long kernel() const { return kernel_; }

  // Bytes held by the backward cache (the column matrix and the backward
  // scratch). Inference forwards release it — evaluation sweeps and serving
  // replicas must not pin O(N*C*k^2*OH*OW) per layer; tested in
  // test_kernels.cpp.
  long cached_bytes() const {
    return static_cast<long>(sizeof(float)) *
           (cols_.numel() + grad_scratch_.numel());
  }

 private:
  long in_channels_, out_channels_, kernel_, stride_, pad_;
  bool has_bias_;
  Param weight_;  // [out, in, k, k]
  Param bias_;    // [out]
  void release_backward_caches();

  // Cached for backward (training mode only). Backward needs only the
  // input's shape: the column matrix already holds every input value it
  // reads. cols_ layout depends on the backend that ran forward —
  // [N, in*k*k, OH*OW] per-image, [in*k*k, N*OH*OW] coalesced — and
  // backward infers the lowering from the rank, so forward and backward may
  // legally run under different backends.
  std::vector<long> in_shape_;
  Tensor cols_;
  // Backward's batch-shard buffers (kernels::conv2d_backward), reused
  // across steps.
  Tensor grad_scratch_;
  // Weight code store when compute-on-codes is active (deep-copied by
  // clone(), so replicas patch independent codes).
  std::optional<QuantWeightStore> wcodes_;
};

}  // namespace ber
