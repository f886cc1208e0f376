// Reference compute kernels: GEMM, im2col/col2im and softmax utilities.
//
// These are the "reference" backend of src/kernels/ (the blocked, packed
// backend lives in kernels/blocked_backend.*) and the determinism anchor for
// training, paper benches and fixed-seed artifacts. They are register-
// blocked and bounds-hoisted, but bit-exact with the seed loops (kept in
// tests/seed_ops.h and compared by memcmp): for every output element they
// perform the same float operations, with the same roundings, in the same
// order.
//
//   gemm, gemm_at  C is prepared by beta (zeroed for 0, scaled unless 1);
//                  then for p ascending, av = alpha * A(i,p) is computed
//                  first, the term is skipped if av == 0, and otherwise
//                  C(i,j) += av * B(p,j).
//   gemm_bt        C is prepared by beta the same way; acc = 0.0f, then
//                  acc += A(i,p) * B(j,p) for p ascending with no skipping;
//                  then C(i,j) += alpha * acc.
//   col2im         every image element receives its addends in the seed's
//                  (c, ki, kj, y) order.
//
// NaN results stay NaN, but their sign and payload may differ from the seed
// build: x86 returns the first operand's NaN, and the compiler is free to
// order the operands of + and *.
//
// ops.cpp must keep baseline codegen (no -march, target attributes or ISA
// dispatch): with an FMA-capable target the compiler may fuse a multiply
// and an add into one rounding, which would change the bits.
#pragma once

#include "tensor/tensor.h"

namespace ber {

// C[m,n] = alpha * A[m,k] x B[k,n] + beta * C. Row-major, no transposes;
// callers lay out operands accordingly.
void gemm(long m, long n, long k, float alpha, const float* a, const float* b,
          float beta, float* c);

// C[m,n] += A^T[m,k] x B[k,n] where A is stored as [k,m] (i.e. implicit
// transpose of the first operand). Used by conv backward-input.
void gemm_at(long m, long n, long k, float alpha, const float* a,
             const float* b, float beta, float* c);

// C[m,n] += A[m,k] x B^T[k,n] where B is stored as [n,k]. Used by conv
// weight gradients.
void gemm_bt(long m, long n, long k, float alpha, const float* a,
             const float* b, float beta, float* c);

// Lowers one image [C,H,W] to a column matrix [C*kh*kw, OH*OW] for
// convolution with given kernel/stride/pad (zero padding).
void im2col(const float* img, long channels, long height, long width, long kh,
            long kw, long stride, long pad, float* col);

// im2col with an explicit row stride: row r of the column matrix is written
// at col + r*ld (ld >= OH*OW). Lets batch-coalesced convolution scatter N
// images into one [C*kh*kw, N*OH*OW] matrix, image i at column offset
// i*OH*OW. im2col == im2col_ld with ld = OH*OW.
void im2col_ld(const float* img, long channels, long height, long width,
               long kh, long kw, long stride, long pad, float* col, long ld);

// Adjoint of im2col: accumulates the column matrix back into the image
// gradient buffer (which must be pre-zeroed by the caller).
void col2im(const float* col, long channels, long height, long width, long kh,
            long kw, long stride, long pad, float* img);

// col2im reading rows at col + r*ld — the adjoint of im2col_ld.
void col2im_ld(const float* col, long channels, long height, long width,
               long kh, long kw, long stride, long pad, float* img, long ld);

// Output spatial size for conv/pool arithmetic.
long conv_out_size(long in, long kernel, long stride, long pad);

// In-place row-wise softmax over a [rows, cols] matrix.
void softmax_rows(Tensor& logits);

// Index of the max element of row `r` in a [rows, cols] matrix.
long argmax_row(const Tensor& m, long r);

}  // namespace ber
