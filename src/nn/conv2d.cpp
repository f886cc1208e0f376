#include "nn/conv2d.h"

#include <sstream>
#include <stdexcept>

#include "kernels/backend.h"
#include "kernels/conv.h"
#include "tensor/ops.h"

namespace ber {

Conv2d::Conv2d(long in_channels, long out_channels, long kernel, long stride,
               long pad, bool bias)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      has_bias_(bias) {
  weight_.name = "conv.weight";
  weight_.kind = ParamKind::kWeight;
  weight_.value = Tensor::zeros({out_channels, in_channels, kernel, kernel});
  weight_.grad = Tensor::zeros(weight_.value.shape());
  if (has_bias_) {
    bias_.name = "conv.bias";
    bias_.kind = ParamKind::kBias;
    bias_.value = Tensor::zeros({out_channels});
    bias_.grad = Tensor::zeros({out_channels});
  }
}

Tensor Conv2d::forward(const Tensor& x, bool training) {
  if (x.dim() != 4 || x.shape(1) != in_channels_) {
    throw std::invalid_argument("Conv2d: bad input " + x.shape_str());
  }
  if (wcodes_.has_value()) {
    if (!training) return forward_on_codes(x, /*fuse_relu=*/false);
    wcodes_.reset();  // optimizer steps make the float weights the truth
  }
  const kernels::Backend& bk = kernels::current_backend();
  const kernels::ConvShape s{x.shape(0), in_channels_, x.shape(2), x.shape(3),
                             out_channels_, kernel_,   stride_,    pad_};
  Tensor out({s.n, out_channels_, s.oh(), s.ow()});
  const float* bias = has_bias_ ? bias_.value.data() : nullptr;
  if (training) {
    // Retain the column matrix for backward; reuse the previous step's
    // allocation when the shape (and lowering layout) is unchanged.
    const std::vector<long> want =
        bk.coalesced_conv()
            ? std::vector<long>{s.cols_k(), s.n * s.spatial()}
            : std::vector<long>{s.n, s.cols_k(), s.spatial()};
    if (cols_.shape() != want) cols_ = Tensor(want);
    kernels::conv2d_forward(bk, s, x.data(), weight_.value.data(), bias,
                            out.data(), &cols_);
    in_shape_ = x.shape();
  } else {
    // Inference: the column matrix lives in the thread-local arena, and any
    // stale training caches (e.g. copied in when a trained model was cloned
    // for an evaluation sweep or a serving replica) are released.
    kernels::conv2d_forward(bk, s, x.data(), weight_.value.data(), bias,
                            out.data(), nullptr);
    release_backward_caches();
  }
  return out;
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  if (in_shape_.size() != 4) {
    throw std::logic_error("Conv2d::backward: no cached forward pass");
  }
  // conv2d_backward infers the cached lowering from cols_'s rank, so it is
  // safe (and numerically fine) if the current backend changed since
  // forward — no pointer to a possibly-dead backend is retained.
  const kernels::Backend& bk = kernels::current_backend();
  const kernels::ConvShape s{in_shape_[0], in_channels_,  in_shape_[2],
                             in_shape_[3], out_channels_, kernel_,
                             stride_,      pad_};
  Tensor grad_in(in_shape_);
  kernels::conv2d_backward(bk, s, cols_, grad_out.data(),
                           weight_.value.data(), weight_.grad.data(),
                           has_bias_ ? bias_.grad.data() : nullptr,
                           grad_in.data(), grad_scratch_);
  return grad_in;
}

void Conv2d::adopt_weight_codes(QuantizedTensor qt) {
  wcodes_.emplace(std::move(qt), out_channels_,
                  in_channels_ * kernel_ * kernel_);
  // Refresh the float mirror so weight-space observers agree with the codes.
  dequantize(wcodes_->tensor(),
             std::span<float>(weight_.value.data(),
                              static_cast<std::size_t>(weight_.value.numel())));
}

void Conv2d::patch_weight_code(std::size_t index, std::uint16_t code) {
  weight_.value.data()[index] = wcodes_->set_code(index, code);
}

Tensor Conv2d::forward_on_codes(const Tensor& x, bool fuse_relu) {
  if (!wcodes_.has_value()) {
    throw std::logic_error("Conv2d::forward_on_codes: no codes adopted");
  }
  // Sequential's fused-ReLU dispatch enters here directly, so the input
  // check from forward() must be repeated before touching x's geometry.
  if (x.dim() != 4 || x.shape(1) != in_channels_) {
    throw std::invalid_argument("Conv2d: bad input " + x.shape_str());
  }
  const kernels::Backend& bk = kernels::current_backend();
  const kernels::ConvShape s{x.shape(0), in_channels_, x.shape(2), x.shape(3),
                             out_channels_, kernel_,   stride_,    pad_};
  Tensor out({s.n, out_channels_, s.oh(), s.ow()});
  kernels::QEpilogue ep{has_bias_ ? bias_.value.data() : nullptr, fuse_relu};
  kernels::conv2d_forward_quant(bk, s, x.data(), wcodes_->view(), ep,
                                out.data());
  release_backward_caches();  // as the float path
  return out;
}

void Conv2d::release_backward_caches() {
  in_shape_.clear();
  if (cols_.numel() != 0) cols_ = Tensor();
  if (grad_scratch_.numel() != 0) grad_scratch_ = Tensor();
}

std::vector<Param*> Conv2d::params() {
  std::vector<Param*> ps{&weight_};
  if (has_bias_) ps.push_back(&bias_);
  return ps;
}

std::string Conv2d::name() const {
  std::ostringstream os;
  os << "Conv2d(" << in_channels_ << "->" << out_channels_ << ",k" << kernel_
     << ",s" << stride_ << ",p" << pad_ << ")";
  return os.str();
}

}  // namespace ber
