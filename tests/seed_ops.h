// The seed implementation's GEMM, conv-lowering and Conv2d loops, kept
// verbatim as the bit-exactness oracle for tensor/ops.h and kernels/conv.h.
// The library's versions are register-blocked, bounds-hoisted and sharded
// over images; for every output element they must perform these loops'
// float operations in the same order, so tests compare the two by memcmp.
#pragma once

#include <cstring>
#include <vector>

#include "kernels/backend.h"
#include "kernels/conv.h"
#include "tensor/ops.h"

namespace ber::test::seed {

inline void gemm(long m, long n, long k, float alpha, const float* a,
                 const float* b, float beta, float* c) {
  if (beta == 0.0f) {
    std::memset(c, 0, sizeof(float) * static_cast<std::size_t>(m * n));
  } else if (beta != 1.0f) {
    for (long i = 0; i < m * n; ++i) c[i] *= beta;
  }
  for (long i = 0; i < m; ++i) {
    float* __restrict ci = c + i * n;
    const float* ai = a + i * k;
    for (long p = 0; p < k; ++p) {
      const float av = alpha * ai[p];
      if (av == 0.0f) continue;
      const float* __restrict bp = b + p * n;
      for (long j = 0; j < n; ++j) ci[j] += av * bp[j];
    }
  }
}

inline void gemm_at(long m, long n, long k, float alpha, const float* a,
                    const float* b, float beta, float* c) {
  if (beta == 0.0f) {
    std::memset(c, 0, sizeof(float) * static_cast<std::size_t>(m * n));
  } else if (beta != 1.0f) {
    for (long i = 0; i < m * n; ++i) c[i] *= beta;
  }
  // A stored [k,m]: A^T(i,p) = a[p*m + i].
  for (long p = 0; p < k; ++p) {
    const float* ap = a + p * m;
    const float* __restrict bp = b + p * n;
    for (long i = 0; i < m; ++i) {
      const float av = alpha * ap[i];
      if (av == 0.0f) continue;
      float* __restrict ci = c + i * n;
      for (long j = 0; j < n; ++j) ci[j] += av * bp[j];
    }
  }
}

inline void gemm_bt(long m, long n, long k, float alpha, const float* a,
                    const float* b, float beta, float* c) {
  if (beta == 0.0f) {
    std::memset(c, 0, sizeof(float) * static_cast<std::size_t>(m * n));
  } else if (beta != 1.0f) {
    for (long i = 0; i < m * n; ++i) c[i] *= beta;
  }
  // B stored [n,k]: B^T(p,j) = b[j*k + p].
  for (long i = 0; i < m; ++i) {
    const float* __restrict ai = a + i * k;
    float* ci = c + i * n;
    for (long j = 0; j < n; ++j) {
      const float* __restrict bj = b + j * k;
      float acc = 0.0f;
      for (long p = 0; p < k; ++p) acc += ai[p] * bj[p];
      ci[j] += alpha * acc;
    }
  }
}

inline void im2col_ld(const float* img, long channels, long height,
                      long width, long kh, long kw, long stride, long pad,
                      float* col, long ld) {
  const long oh = conv_out_size(height, kh, stride, pad);
  const long ow = conv_out_size(width, kw, stride, pad);
  long row = 0;
  for (long c = 0; c < channels; ++c) {
    const float* plane = img + c * height * width;
    for (long ki = 0; ki < kh; ++ki) {
      for (long kj = 0; kj < kw; ++kj, ++row) {
        float* __restrict out = col + row * ld;
        for (long y = 0; y < oh; ++y) {
          const long iy = y * stride - pad + ki;
          if (iy < 0 || iy >= height) {
            std::memset(out + y * ow, 0,
                        sizeof(float) * static_cast<std::size_t>(ow));
            continue;
          }
          const float* src = plane + iy * width;
          for (long x = 0; x < ow; ++x) {
            const long ix = x * stride - pad + kj;
            out[y * ow + x] = (ix >= 0 && ix < width) ? src[ix] : 0.0f;
          }
        }
      }
    }
  }
}

inline void col2im_ld(const float* col, long channels, long height,
                      long width, long kh, long kw, long stride, long pad,
                      float* img, long ld) {
  const long oh = conv_out_size(height, kh, stride, pad);
  const long ow = conv_out_size(width, kw, stride, pad);
  long row = 0;
  for (long c = 0; c < channels; ++c) {
    float* plane = img + c * height * width;
    for (long ki = 0; ki < kh; ++ki) {
      for (long kj = 0; kj < kw; ++kj, ++row) {
        const float* __restrict in = col + row * ld;
        for (long y = 0; y < oh; ++y) {
          const long iy = y * stride - pad + ki;
          if (iy < 0 || iy >= height) continue;
          float* dst = plane + iy * width;
          for (long x = 0; x < ow; ++x) {
            const long ix = x * stride - pad + kj;
            if (ix >= 0 && ix < width) dst[ix] += in[y * ow + x];
          }
        }
      }
    }
  }
}

// The seed Conv2d forward in training mode, one image after another, with
// bk's GEMM: im2col into cols [N, C*k*k, OH*OW], GEMM, bias.
inline void conv2d_forward(const kernels::Backend& bk,
                           const kernels::ConvShape& s, const float* x,
                           const float* weight, const float* bias, float* y,
                           float* cols) {
  const long k = s.cols_k(), spatial = s.spatial();
  for (long i = 0; i < s.n; ++i) {
    float* col = cols + i * k * spatial;
    im2col_ld(x + i * s.in_c * s.h * s.w, s.in_c, s.h, s.w, s.kernel,
              s.kernel, s.stride, s.pad, col, spatial);
    float* yi = y + i * s.out_c * spatial;
    bk.gemm(s.out_c, spatial, k, 1.0f, weight, col, 0.0f, yi);
    if (bias) {
      for (long c = 0; c < s.out_c; ++c) {
        for (long p = 0; p < spatial; ++p) yi[c * spatial + p] += bias[c];
      }
    }
  }
}

// The seed Conv2d backward, one image after another, with bk's GEMMs: each
// image's dW and db addends go straight onto grad_weight / grad_bias, in
// ascending image order. grad_in must be zeroed by the caller.
inline void conv2d_backward(const kernels::Backend& bk,
                            const kernels::ConvShape& s, const float* cols,
                            const float* grad_out, const float* weight,
                            float* grad_weight, float* grad_bias,
                            float* grad_in) {
  const long k = s.cols_k(), spatial = s.spatial();
  std::vector<float> grad_col(static_cast<std::size_t>(k * spatial));
  for (long i = 0; i < s.n; ++i) {
    const float* go = grad_out + i * s.out_c * spatial;
    bk.gemm_bt(s.out_c, k, spatial, 1.0f, go, cols + i * k * spatial, 1.0f,
               grad_weight);
    if (grad_bias) {
      for (long c = 0; c < s.out_c; ++c) {
        float acc = 0.0f;
        for (long p = 0; p < spatial; ++p) acc += go[c * spatial + p];
        grad_bias[c] += acc;
      }
    }
    bk.gemm_at(k, spatial, s.out_c, 1.0f, weight, go, 0.0f, grad_col.data());
    col2im_ld(grad_col.data(), s.in_c, s.h, s.w, s.kernel, s.kernel, s.stride,
              s.pad, grad_in + i * s.in_c * s.h * s.w, spatial);
  }
}

}  // namespace ber::test::seed
