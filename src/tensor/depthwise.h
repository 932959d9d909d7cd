/**
 * @file
 * Depthwise 2-d convolution kernels: one k x k filter per channel, square
 * kernels, channel multiplier 1, NCHW. nn::DepthwiseConv2D runs its
 * forward and backward passes through them.
 *
 * Every element folds its terms in the order of the plain per-element
 * loops (tensor/reference.h), so the results match them bit for bit:
 * - y starts from the bias and adds the in-range taps in ascending
 *   (ky, kx) order;
 * - dx starts from +0 and adds the terms reaching it in descending
 *   (ky, kx) order, which is the ascending (oy, ox) order of the
 *   per-element scatter;
 * - dW and db continue from their stored values over the pixels in
 *   (img, oy, ox) order, one chain per channel and tap.
 * Out-of-range taps are skipped, never multiplied by zero padding: an Inf
 * weight or gradient times a padded zero would be a NaN the plain loops
 * never make, and a padded +0 term would turn a -0 sum into +0.
 *
 * On hosts with AVX-512F, 3x3 calls at stride 1 (both zoo depthwise
 * layers) run 16-lane kernels: forward and dx across the columns they
 * write, in 16-column blocks with one lane mask per tap column, four rows
 * at a time; dW and db across channels in 16-channel blocks, on
 * pixel-major copies of each image's x and dy. Other extents, strides and
 * hosts run per-plane loops whose K = 3 instantiations keep the taps in
 * registers.
 * Both paths issue a separate multiply and add per term;
 * src/tensor/CMakeLists.txt compiles depthwise.cc with -ffp-contract=off
 * so that target("avx512f") cannot fuse them. The kernels open no
 * `kernel.*` span: their time is the calling layer's own.
 */

#ifndef FEDGPO_TENSOR_DEPTHWISE_H_
#define FEDGPO_TENSOR_DEPTHWISE_H_

#include <cstddef>

#include "tensor/tensor.h"

namespace fedgpo {
namespace tensor {

/**
 * Extents of one call: input [n, c, h, w], filters [c, k, k], output
 * [n, c, oh, ow] with oh and ow from convOutExtent.
 */
struct DepthwiseShape
{
    std::size_t n, c, h, w, k, stride, pad;
};

/** y = bias, then the in-range taps x * W in ascending (ky, kx) order. */
void depthwiseForward(const DepthwiseShape &s, const float *x,
                      const float *filters, const float *bias, float *y);

/**
 * dx = +0, then each term dy * W reaching the input in descending
 * (ky, kx) order. Overwrites every element of dx.
 */
void depthwiseInputGrad(const DepthwiseShape &s, const float *dy,
                        const float *filters, float *dx);

/**
 * Continue the filter (dfilters, [c, k, k]) and bias (dbias, [c])
 * gradient chains over every pixel in (img, oy, ox) order: db += dy and
 * dW += dy * x for each in-range tap. No zero-skip: dy == 0 still
 * multiplies x, so 0 * Inf reaches dW as NaN. x_panel and dy_panel are
 * the caller's scratch for the pixel-major copies; resize() grows them on
 * the 16-lane path and leaves them alone elsewhere.
 */
void depthwiseParamGrad(const DepthwiseShape &s, const float *x,
                        const float *dy, float *dfilters, float *dbias,
                        Tensor &x_panel, Tensor &dy_panel);

/**
 * "avx512" where 3x3 stride-1 calls take the 16-lane kernels, else
 * "plane".
 */
const char *depthwisePath();

} // namespace tensor
} // namespace fedgpo

#endif // FEDGPO_TENSOR_DEPTHWISE_H_
