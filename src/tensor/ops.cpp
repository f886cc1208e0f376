#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

namespace ber {

namespace {

// Four float lanes in GCC's generic vector extension. ops.cpp is built with
// baseline codegen (SSE2 on x86-64), which has no fused multiply-add, so
// every lane rounds the product and then the sum exactly as the scalar seed
// loops do. Loads and stores go through memcpy: no alignment is assumed.
typedef float v4f __attribute__((vector_size(16)));

inline v4f load4(const float* p) {
  v4f v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store4(float* p, v4f v) { std::memcpy(p, &v, sizeof v); }

// Both register tiles cover four rows of C: gemm/gemm_at ones are kNV
// 4-lane vectors wide, gemm_bt ones (rows in the lanes) kNJ columns wide.
constexpr int kNV = 2;
constexpr int kNJ = 8;

// Prepares C as the seed loops do: zeroed for beta == 0, scaled otherwise.
void apply_beta(long m, long n, float beta, float* c) {
  if (beta == 0.0f) {
    std::memset(c, 0, sizeof(float) * static_cast<std::size_t>(m * n));
  } else if (beta != 1.0f) {
    for (long i = 0; i < m * n; ++i) c[i] *= beta;
  }
}

// Packing scratch for one GEMM call. Reductions up to kStackK long pack on
// the stack, so those GEMMs allocate nothing on any thread: conv batch
// shards call them on freshly spawned workers (kernels/conv.h). Longer
// reductions use a per-thread heap buffer whose capacity is kept across
// calls.
constexpr long kStackK = 2048;

struct PackScratch {
  float* a;
  unsigned char* sparse;
  float* edge;
};

struct StackPack {
  float a[4 * kStackK];
  unsigned char sparse[kStackK];
  float edge[4 * kStackK];
};

PackScratch pack_scratch(long k, StackPack& local) {
  if (k <= kStackK) return {local.a, local.sparse, local.edge};
  thread_local std::vector<float> a, edge;
  thread_local std::vector<unsigned char> sparse;
  const auto n = static_cast<std::size_t>(k);
  if (sparse.size() < n) {
    a.resize(4 * n);
    edge.resize(4 * n);
    sparse.resize(n);
  }
  return {a.data(), sparse.data(), edge.data()};
}

// Packs scale * A(i + r, p), A(i,p) = a[i*rs + p*ps], for the mr <= 4 rows
// of a block as ap[p*4 + r]; lanes r >= mr are zero and their results are
// never stored.
void pack_rows(long k, int mr, float scale, const float* a, long rs, long ps,
               float* ap) {
  for (long p = 0; p < k; ++p) {
    for (int r = 0; r < 4; ++r) {
      ap[p * 4 + r] = r < mr ? scale * a[r * rs + p * ps] : 0.0f;
    }
  }
}

// ------------------------------------------------------ gemm, gemm_at ---
//
// For each element of C the seed computes av = alpha * A(i,p), skips the
// term if av == 0, and otherwise adds av * B(p,j), p ascending, onto the
// beta-prepared C. The tiles below do exactly that with the C tile held in
// registers; av is the packed scale * A. Skipping (rather than adding
// 0 * b) keeps a -0 in C and keeps an inf or NaN in B behind a zero of A
// out of C.

// C tile [mr, 4*NV] (row stride ldc) += av(r,p) * B(p,:) over p ascending,
// B rows ldb apart. sparse[p] flags a p whose live av values include a
// zero, so the tile branches once per p on the common dense case.
template <int NV>
void tile_skip(long k, const float* ap, const unsigned char* sparse, int mr,
               const float* b, long ldb, float* c, long ldc) {
  v4f acc[4][NV] = {};
  for (int r = 0; r < mr; ++r)
    for (int v = 0; v < NV; ++v) acc[r][v] = load4(c + r * ldc + 4 * v);
  for (long p = 0; p < k; ++p) {
    const float* av = ap + p * 4;
    v4f bv[NV];
    for (int v = 0; v < NV; ++v) bv[v] = load4(b + p * ldb + 4 * v);
    if (!sparse[p]) {
      for (int r = 0; r < 4; ++r)
        for (int v = 0; v < NV; ++v) acc[r][v] += av[r] * bv[v];
    } else {
      for (int r = 0; r < 4; ++r) {
        if (av[r] == 0.0f) continue;
        for (int v = 0; v < NV; ++v) acc[r][v] += av[r] * bv[v];
      }
    }
  }
  for (int r = 0; r < mr; ++r)
    for (int v = 0; v < NV; ++v) store4(c + r * ldc + 4 * v, acc[r][v]);
}

// C[m,n] += A x B[k,n] in the seed's skip sequence, A(i,p) = a[i*rs + p*ps].
// Per block of four rows: column tiles of kNV vectors, then of one vector,
// then the last n % 4 columns as one vector tile on zero-padded copies of
// B's and C's edge (lanes never mix, so the padding lanes are dropped).
void gemm_skip(long m, long n, long k, float alpha, const float* a, long rs,
               long ps, const float* b, float* c) {
  StackPack local;
  const PackScratch scratch = pack_scratch(k, local);
  float* ap = scratch.a;
  unsigned char* sparse = scratch.sparse;
  for (long i = 0; i < m; i += 4) {
    const int mr = static_cast<int>(std::min(4L, m - i));
    pack_rows(k, mr, alpha, a + i * rs, rs, ps, ap);
    for (long p = 0; p < k; ++p) {
      unsigned char z = 0;
      for (int r = 0; r < mr; ++r) z |= ap[p * 4 + r] == 0.0f;
      sparse[p] = z;
    }
    float* ci = c + i * n;
    long j = 0;
    for (; j + 4 * kNV <= n; j += 4 * kNV) {
      tile_skip<kNV>(k, ap, sparse, mr, b + j, n, ci + j, n);
    }
    for (; j + 4 <= n; j += 4) {
      tile_skip<1>(k, ap, sparse, mr, b + j, n, ci + j, n);
    }
    const long nc = n - j;
    if (nc == 0) continue;
    float* be = scratch.edge;
    for (long p = 0; p < k; ++p) {
      for (long jj = 0; jj < 4; ++jj) {
        be[p * 4 + jj] = jj < nc ? b[p * n + j + jj] : 0.0f;
      }
    }
    float ce[16] = {};
    for (int r = 0; r < mr; ++r)
      for (long jj = 0; jj < nc; ++jj) ce[r * 4 + jj] = ci[r * n + j + jj];
    tile_skip<1>(k, ap, sparse, mr, be, 4, ce, 4);
    for (int r = 0; r < mr; ++r)
      for (long jj = 0; jj < nc; ++jj) ci[r * n + j + jj] = ce[r * 4 + jj];
  }
}

// ------------------------------------------------------------ gemm_bt ---
//
// For each element of C the seed sums acc = A(i,p) * B^T(p,j) from 0.0f
// over p ascending with no skipping, then adds alpha * acc onto C. Here the
// four lanes of a vector are four rows of C, so B (stored [n,k]) is read in
// place, contiguous in p for each column; only the [4, k] slice of A is
// packed.

// C[r, j..j+NJ) += alpha * sum_p A(r,p) * B(j,p) for the mr <= 4 live
// lanes; ap[p*4 + r] holds A(r,p).
template <int NJ>
void tile_dot(long k, float alpha, const float* ap, const float* b, int mr,
              float* c, long ldc) {
  v4f acc[NJ] = {};
  for (long p = 0; p < k; ++p) {
    const v4f av = load4(ap + p * 4);
    for (int jj = 0; jj < NJ; ++jj) acc[jj] += av * b[jj * k + p];
  }
  for (int r = 0; r < mr; ++r)
    for (int jj = 0; jj < NJ; ++jj) c[r * ldc + jj] += alpha * acc[jj][r];
}

}  // namespace

void gemm(long m, long n, long k, float alpha, const float* a, const float* b,
          float beta, float* c) {
  apply_beta(m, n, beta, c);
  gemm_skip(m, n, k, alpha, a, /*rs=*/k, /*ps=*/1, b, c);
}

void gemm_at(long m, long n, long k, float alpha, const float* a,
             const float* b, float beta, float* c) {
  apply_beta(m, n, beta, c);
  // A stored [k,m]: A^T(i,p) = a[p*m + i].
  gemm_skip(m, n, k, alpha, a, /*rs=*/1, /*ps=*/m, b, c);
}

void gemm_bt(long m, long n, long k, float alpha, const float* a,
             const float* b, float beta, float* c) {
  apply_beta(m, n, beta, c);
  StackPack local;
  float* ap = pack_scratch(k, local).a;
  for (long i = 0; i < m; i += 4) {
    const int mr = static_cast<int>(std::min(4L, m - i));
    pack_rows(k, mr, 1.0f, a + i * k, /*rs=*/k, /*ps=*/1, ap);
    float* ci = c + i * n;
    long j = 0;
    for (; j + kNJ <= n; j += kNJ) {
      tile_dot<kNJ>(k, alpha, ap, b + j * k, mr, ci + j, n);
    }
    for (; j < n; ++j) tile_dot<1>(k, alpha, ap, b + j * k, mr, ci + j, n);
  }
}

long conv_out_size(long in, long kernel, long stride, long pad) {
  return (in + 2 * pad - kernel) / stride + 1;
}

void im2col(const float* img, long channels, long height, long width, long kh,
            long kw, long stride, long pad, float* col) {
  const long oh = conv_out_size(height, kh, stride, pad);
  const long ow = conv_out_size(width, kw, stride, pad);
  im2col_ld(img, channels, height, width, kh, kw, stride, pad, col, oh * ow);
}

namespace {

// Output positions o in [0, out) whose input position o*stride - pad + kk
// lies inside [0, extent): o in [*lo, *hi). Used for rows (kk = ki) and
// columns (kk = kj).
void valid_range(long extent, long out, long stride, long pad, long kk,
                 long* lo, long* hi) {
  const long off = pad - kk;  // input = o*stride - off
  const long first = off > 0 ? (off + stride - 1) / stride : 0;
  const long last = extent - 1 + off;  // input < extent <=> o*stride <= last
  *lo = std::min(first, out);
  *hi = last < 0 ? *lo : std::max(*lo, std::min(last / stride + 1, out));
}

}  // namespace

void im2col_ld(const float* img, long channels, long height, long width,
               long kh, long kw, long stride, long pad, float* col, long ld) {
  const long oh = conv_out_size(height, kh, stride, pad);
  const long ow = conv_out_size(width, kw, stride, pad);
  const auto zero = [](float* p, long n) {
    for (long i = 0; i < n; ++i) p[i] = 0.0f;
  };
  long row = 0;
  for (long c = 0; c < channels; ++c) {
    const float* plane = img + c * height * width;
    for (long ki = 0; ki < kh; ++ki) {
      // Output rows outside [y0, y1) read the padding ring.
      long y0, y1;
      valid_range(height, oh, stride, pad, ki, &y0, &y1);
      for (long kj = 0; kj < kw; ++kj, ++row) {
        float* out = col + row * ld;
        long lo, hi;
        valid_range(width, ow, stride, pad, kj, &lo, &hi);
        const long off = pad - kj;
        zero(out, y0 * ow);
        zero(out + y1 * ow, (oh - y1) * ow);
        if (stride == 1 && ow == width) {
          // Consecutive output rows read consecutive input rows, so the
          // whole interior is one shifted copy: out[d] = plane[d + shift].
          // Where the shift wraps across a row boundary (or runs off the
          // plane) the element is a padding column, zeroed below.
          const long shift = (ki - pad) * width - off;
          const long d0 = std::max(y0 * ow, -shift);
          const long d1 = std::min(y1 * ow, height * width - shift);
          if (d1 > d0) {
            std::memcpy(out + d0, plane + d0 + shift,
                        sizeof(float) * static_cast<std::size_t>(d1 - d0));
          }
          for (long y = y0; y < y1; ++y) {
            zero(out + y * ow, lo);
            zero(out + y * ow + hi, ow - hi);
          }
          continue;
        }
        for (long y = y0; y < y1; ++y) {
          float* __restrict dst = out + y * ow;
          const float* src = plane + (y * stride - pad + ki) * width;
          zero(dst, lo);
          for (long x = lo; x < hi; ++x) dst[x] = src[x * stride - off];
          zero(dst + hi, ow - hi);
        }
      }
    }
  }
}

void col2im(const float* col, long channels, long height, long width, long kh,
            long kw, long stride, long pad, float* img) {
  const long oh = conv_out_size(height, kh, stride, pad);
  const long ow = conv_out_size(width, kw, stride, pad);
  col2im_ld(col, channels, height, width, kh, kw, stride, pad, img, oh * ow);
}

void col2im_ld(const float* col, long channels, long height, long width,
               long kh, long kw, long stride, long pad, float* img, long ld) {
  const long oh = conv_out_size(height, kh, stride, pad);
  const long ow = conv_out_size(width, kw, stride, pad);
  // Same (c, ki, kj, y) order as the seed loop, so every image element
  // receives its addends in the same sequence; only the bounds checks are
  // hoisted out of the inner loops.
  long row = 0;
  for (long c = 0; c < channels; ++c) {
    float* plane = img + c * height * width;
    for (long ki = 0; ki < kh; ++ki) {
      long y0, y1;
      valid_range(height, oh, stride, pad, ki, &y0, &y1);
      for (long kj = 0; kj < kw; ++kj, ++row) {
        const float* in = col + row * ld;
        long lo, hi;
        valid_range(width, ow, stride, pad, kj, &lo, &hi);
        const long off = pad - kj;
        for (long y = y0; y < y1; ++y) {
          float* dst = plane + (y * stride - pad + ki) * width;
          const float* src = in + y * ow;
          if (stride == 1) {
            float* d = dst + (lo - off);
            const float* s = src + lo;
            const long len = hi - lo;
            long x = 0;
            for (; x + 4 <= len; x += 4) {
              store4(d + x, load4(d + x) + load4(s + x));
            }
            for (; x < len; ++x) d[x] += s[x];
          } else {
            for (long x = lo; x < hi; ++x) dst[x * stride - off] += src[x];
          }
        }
      }
    }
  }
}

void softmax_rows(Tensor& logits) {
  if (logits.dim() != 2) throw std::invalid_argument("softmax_rows: need 2-D");
  const long rows = logits.shape(0);
  const long cols = logits.shape(1);
  float* data = logits.data();
  for (long r = 0; r < rows; ++r) {
    float* row = data + r * cols;
    const float mx = *std::max_element(row, row + cols);
    float sum = 0.0f;
    for (long c = 0; c < cols; ++c) {
      row[c] = std::exp(row[c] - mx);
      sum += row[c];
    }
    const float inv = 1.0f / sum;
    for (long c = 0; c < cols; ++c) row[c] *= inv;
  }
}

long argmax_row(const Tensor& m, long r) {
  const long cols = m.shape(1);
  const float* row = m.data() + r * cols;
  return std::max_element(row, row + cols) - row;
}

}  // namespace ber
