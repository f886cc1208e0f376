// The seed implementation's GEMM and conv-lowering loops, kept verbatim as
// the bit-exactness oracle for tensor/ops.h. The library's versions are
// register-blocked and bounds-hoisted; for every output element they must
// perform these loops' float operations in the same order, so tests compare
// the two by memcmp.
#pragma once

#include <cstring>

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

}  // namespace ber::test::seed
