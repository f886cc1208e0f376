#include "nn/activation.h"

#include <stdexcept>

namespace ber {

Tensor ReLU::forward(const Tensor& x, bool training) {
  Tensor out = x;
  const long n = out.numel();
  float* d = out.data();
  if (training) mask_.resize(static_cast<std::size_t>(n));
  std::uint8_t* m = mask_.data();
  long active = 0;
  for (long i = 0; i < n; ++i) {
    const bool on = d[i] > 0.0f;
    active += on;
    d[i] = on ? d[i] : 0.0f;
    if (training) m[i] = on;
  }
  last_active_fraction_ = n > 0 ? static_cast<double>(active) / n : 0.0;
  return out;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  const long n = grad_out.numel();
  if (mask_.size() != static_cast<std::size_t>(n)) {
    throw std::logic_error("ReLU::backward: no matching forward pass");
  }
  Tensor grad_in = grad_out;
  const std::uint8_t* m = mask_.data();
  float* g = grad_in.data();
  // Multiply rather than select: g * 0.0f keeps the sign of a negative g
  // (-0) and turns an inf or NaN g into NaN, as the float-mask seed did.
  // The byte converts to exactly 1.0f or 0.0f, without a branch.
  for (long i = 0; i < n; ++i) g[i] *= static_cast<float>(m[i]);
  return grad_in;
}

Tensor Flatten::forward(const Tensor& x, bool training) {
  if (training) in_shape_ = x.shape();
  return x.reshaped({x.shape(0), -1});
}

Tensor Flatten::backward(const Tensor& grad_out) {
  return grad_out.reshaped(in_shape_);
}

}  // namespace ber
