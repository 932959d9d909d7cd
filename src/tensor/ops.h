/**
 * @file
 * Tensor kernels: GEMM variants and the im2col transforms used by the
 * convolution layers.
 *
 * All GEMMs write into a caller-provided output so the training loop can
 * reuse buffers. The implementations are the cache-blocked,
 * register-tiled kernels from gemm.h; every output element accumulates
 * its k terms in ascending-p order (the same chain as the naive triple
 * loop retained in reference.h), so results are bit-exact with the
 * scalar kernels for all inputs — including non-finite ones: `0 * Inf`
 * is NaN, never a skipped term. Outputs must not alias inputs.
 *
 * Shapes the caller hands in are checked in every build: a mismatch is
 * util::fatal (FatalError), never a silent read past an operand.
 *
 * With FEDGPO_METRICS=profile, each Tensor entry point folds its wall
 * time into a `kernel.*` span (kernel.matmul, kernel.matmul_bias,
 * kernel.im2col, ...); at lower levels the probe is a single cached level
 * check. The raw-pointer gemm/gemmTransA open no span: a caller that
 * loops them over the blocks of a tensor times the loop as one span
 * through kernelSpan().
 */

#ifndef FEDGPO_TENSOR_OPS_H_
#define FEDGPO_TENSOR_OPS_H_

#include "tensor/tensor.h"

namespace fedgpo {
namespace obs {
struct SpanNode;
} // namespace obs
namespace tensor {

/**
 * C = A * B, with A of shape [m, k] and B of shape [k, n].
 * C is resized to [m, n] and fully overwritten.
 */
void matmul(const Tensor &a, const Tensor &b, Tensor &c);

/**
 * C = A * B + bias, with bias of shape [n] broadcast over rows — the
 * fused epilogue of the Dense forward pass. The bias is added after each
 * element's k-chain completes, so the result is bit-identical to matmul
 * followed by a separate bias-add pass.
 */
void matmulBias(const Tensor &a, const Tensor &b, const Tensor &bias,
                Tensor &c);

/**
 * C = A^T * B, with A of shape [k, m] and B of shape [k, n].
 * C is resized/zeroed to [m, n].
 */
void matmulTransA(const Tensor &a, const Tensor &b, Tensor &c);

/**
 * C = A * B^T, with A of shape [m, k] and B of shape [n, k].
 * C is resized to [m, n] and fully overwritten.
 */
void matmulTransB(const Tensor &a, const Tensor &b, Tensor &c);

/**
 * Like matmul but accumulates into C (C += A * B); C must already be
 * [m, n].
 */
void matmulAccum(const Tensor &a, const Tensor &b, Tensor &c);

/**
 * Raw-pointer GEMM with the matmul* mode dispatch (blocked, or fast under
 * FEDGPO_FAST_MATH): C = A * op(B) (+ bias), or C += A * op(B), under
 * blocked::gemm's contract in gemm.h. A is [m, k] with leading dimension
 * lda; op(B) is B [k, n] (ldb), or B^T with B stored [n, k] (ldb) when
 * trans_b; C is [m, n] (ldc). For operands that are blocks of a tensor,
 * such as one image of a batch. Opens no kernel span.
 */
void gemm(const float *a, std::size_t lda, const float *b, std::size_t ldb,
          bool trans_b, float *c, std::size_t ldc, std::size_t m,
          std::size_t n, std::size_t k, bool accumulate,
          const float *bias = nullptr);

/**
 * Raw-pointer C += A^T * B with the mode dispatch, under
 * blocked::gemmTransA's contract: A [k, m] (lda), B [k, n] (ldb), C [m, n]
 * (ldc), initialized by the caller. Opens no kernel span.
 */
void gemmTransA(const float *a, std::size_t lda, const float *b,
                std::size_t ldb, float *c, std::size_t ldc, std::size_t m,
                std::size_t n, std::size_t k);

/**
 * The `kernel.*` span named `name` at FEDGPO_METRICS=profile, else null
 * (one cached level check). Pass it to an obs::ScopedTimer around a loop
 * of raw gemm calls so the loop counts as one kernel call.
 */
obs::SpanNode *kernelSpan(const char *name);

/**
 * im2col for NCHW batches, tap-major per image.
 *
 * Expands input [n, c, h, w] into columns [n * c * k * k, oh * ow]. Image
 * i's block is the [c * k * k, oh * ow] matrix starting at row
 * i * c * k * k; its row (ch, ky, kx) is channel ch shifted by
 * (ky - pad, kx - pad) and sampled at `stride` — one contiguous oh * ow
 * row per tap, zero where the tap reads the padding. A convolution is
 * then one GEMM per image whose operands and result are NCHW blocks.
 */
void im2col(const Tensor &input, std::size_t k, std::size_t stride,
            std::size_t pad, Tensor &columns);

/**
 * Adjoint of im2col: scatter-add columns [n * c * k * k, oh * ow] into the
 * input-shaped gradient [n, c, h, w] (pre-shaped; zeroed first). Taps are
 * visited in descending (ky, kx), so each input pixel accumulates its
 * terms in ascending (oy, ox) order at any stride.
 */
void col2im(const Tensor &columns, std::size_t k, std::size_t stride,
            std::size_t pad, Tensor &input_grad);

/**
 * Output spatial extent of a convolution: (in + 2*pad - k) / stride + 1.
 * Fatal unless k and stride are positive and k <= in + 2*pad.
 */
std::size_t convOutExtent(std::size_t in, std::size_t k, std::size_t stride,
                          std::size_t pad);

} // namespace tensor
} // namespace fedgpo

#endif // FEDGPO_TENSOR_OPS_H_
