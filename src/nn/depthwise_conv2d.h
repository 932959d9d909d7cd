/**
 * @file
 * Depthwise 2-d convolution — the building block of MobileNet's
 * depthwise-separable convolutions (one filter per input channel, no
 * cross-channel mixing).
 */

#ifndef FEDGPO_NN_DEPTHWISE_CONV2D_H_
#define FEDGPO_NN_DEPTHWISE_CONV2D_H_

#include "nn/layer.h"
#include "tensor/depthwise.h"
#include "util/rng.h"

namespace fedgpo {
namespace nn {

/**
 * Depthwise convolution with square kernels and channel multiplier 1.
 *
 * Input  [n, c, h, w]
 * Output [n, c, oh, ow]
 *
 * Forward and backward run the kernels in tensor/depthwise.h, whose every
 * element folds its terms in the order of the plain per-element loops, so
 * the results are bit-identical to them at every geometry (see DESIGN.md,
 * "Layer loops").
 */
class DepthwiseConv2D : public Layer
{
  public:
    /**
     * @param c      Channel count (input == output).
     * @param k      Square kernel extent.
     * @param h, w   Input spatial extents.
     * @param stride Stride in both dimensions.
     * @param pad    Zero padding on all sides.
     * @param rng    Initialization stream (He normal).
     */
    DepthwiseConv2D(std::size_t c, std::size_t k, std::size_t h,
                    std::size_t w, std::size_t stride, std::size_t pad,
                    util::Rng &rng);

    std::string name() const override;
    LayerKind kind() const override { return LayerKind::Conv; }
    const Tensor &forward(const Tensor &in, bool train) override;
    const Tensor &backward(const Tensor &grad_out) override;
    std::vector<Tensor *> params() override { return {&weights_, &b_}; }
    std::vector<Tensor *> grads() override { return {&dw_, &db_}; }
    std::uint64_t flopsPerSample() const override;

    std::size_t outHeight() const { return oh_; }
    std::size_t outWidth() const { return ow_; }

  private:
    tensor::DepthwiseShape shape(std::size_t n) const;

    std::size_t c_, k_, in_h_, in_w_, stride_, pad_;
    std::size_t oh_, ow_;
    Tensor weights_; //!< [c, k, k]
    Tensor b_;   //!< [c]
    Tensor dw_;
    Tensor db_;
    Tensor out_buf_;
    Tensor grad_in_;
    Tensor x_panel_;  //!< pixel-major x for the filter gradient
    Tensor dy_panel_; //!< pixel-major dy for the filter gradient
    const Tensor *cached_in_ = nullptr;
};

} // namespace nn
} // namespace fedgpo

#endif // FEDGPO_NN_DEPTHWISE_CONV2D_H_
