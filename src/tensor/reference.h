/**
 * @file
 * Naive reference kernels, retained as the semantic ground truth for the
 * blocked kernel layer in gemm.h/ops.h.
 *
 * Each reference is the plain triple loop with every output element
 * accumulating its k terms in ascending-p order from a zero (or
 * caller-provided) start. The blocked kernels must match these BIT-EXACTLY
 * for all inputs — including non-finite ones: `0 * Inf` is NaN here, never
 * a skipped term (the pre-kernel-layer GEMMs skipped zero multiplicands,
 * which silently masked diverged client updates; see
 * tests/kernel_property_test.cc).
 *
 * These run at scalar speed and exist for the property-equivalence suite
 * and for kernel_bench's before/after speedup measurement. The training
 * loop never calls them.
 */

#ifndef FEDGPO_TENSOR_REFERENCE_H_
#define FEDGPO_TENSOR_REFERENCE_H_

#include "tensor/tensor.h"

namespace fedgpo {
namespace tensor {
namespace reference {

/** C = A * B with A [m, k], B [k, n]; C resized to [m, n]. */
void matmulRef(const Tensor &a, const Tensor &b, Tensor &c);

/** C += A * B; C must already be [m, n]. */
void matmulAccumRef(const Tensor &a, const Tensor &b, Tensor &c);

/** C = A^T * B with A [k, m], B [k, n]; C resized to [m, n]. */
void matmulTransARef(const Tensor &a, const Tensor &b, Tensor &c);

/** C = A * B^T with A [m, k], B [n, k]; C resized to [m, n]. */
void matmulTransBRef(const Tensor &a, const Tensor &b, Tensor &c);

/** C = A * B + row-broadcast bias [n]; C resized to [m, n]. */
void matmulBiasRef(const Tensor &a, const Tensor &b, const Tensor &bias,
                   Tensor &c);

/**
 * Per-tap scalar-gather im2col (NCHW, tap-major per image), identical
 * contract to ops.h: columns [n * c * k * k, oh * ow], with a bounds test
 * on every element.
 */
void im2colRef(const Tensor &input, std::size_t k, std::size_t stride,
               std::size_t pad, Tensor &columns);

/**
 * Per-tap scalar-scatter col2im, identical contract to ops.h. Outputs
 * are visited in ascending (oy, ox) and the taps of each in ascending
 * (ky, kx), so every pixel folds its terms in ascending (oy, ox) order.
 */
void col2imRef(const Tensor &columns, std::size_t k, std::size_t stride,
               std::size_t pad, Tensor &input_grad);

/**
 * Depthwise convolution forward as the plain per-element loop, the ground
 * truth for tensor/depthwise.h: input [n, c, h, w], weights [c, k, k],
 * bias [c]; out resized to [n, c, oh, ow]. Each output starts from its
 * channel's bias and adds x * W for the in-range taps in ascending
 * (ky, kx) order.
 */
void depthwiseForwardRef(const Tensor &in, const Tensor &weights,
                         const Tensor &bias, std::size_t k,
                         std::size_t stride, std::size_t pad, Tensor &out);

/**
 * Depthwise input gradient as the per-element scatter: grad_in (already
 * [n, c, h, w]) is zeroed, then each output's dy * W is added to the
 * inputs its in-range taps read, outputs in ascending (oy, ox) order.
 */
void depthwiseInputGradRef(const Tensor &weights, const Tensor &grad_out,
                           std::size_t k, std::size_t stride,
                           std::size_t pad, Tensor &grad_in);

/**
 * Depthwise filter and bias gradients as the per-element loop: for every
 * output in (img, oy, ox) order, db[ch] += dy and, for each in-range tap,
 * dw[ch][ky][kx] += dy * x. Accumulates into dw [c, k, k] and db [c].
 */
void depthwiseParamGradRef(const Tensor &in, const Tensor &grad_out,
                           std::size_t k, std::size_t stride,
                           std::size_t pad, Tensor &dw, Tensor &db);

} // namespace reference
} // namespace tensor
} // namespace fedgpo

#endif // FEDGPO_TENSOR_REFERENCE_H_
