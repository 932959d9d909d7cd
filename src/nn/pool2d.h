/**
 * @file
 * 2-d max pooling over NCHW batches.
 */

#ifndef FEDGPO_NN_POOL2D_H_
#define FEDGPO_NN_POOL2D_H_

#include "nn/layer.h"

namespace fedgpo {
namespace nn {

/**
 * Non-overlapping max pooling (kernel == stride).
 *
 * Input  [n, c, h, w] with h, w divisible by k and h * w < 2^32.
 * Output [n, c, h/k, w/k]
 *
 * Each window's max and argmax are those of a strict-`>` scan in (ky, kx)
 * order: the first maximum wins, and a NaN wins only as the window's
 * first element. The scan runs branch-free (see DESIGN.md, "Layer
 * loops"); train and eval share it.
 */
class MaxPool2D : public Layer
{
  public:
    /**
     * @param c    Channel count.
     * @param k    Pool window and stride.
     * @param h, w Input spatial extents (must be divisible by k).
     */
    MaxPool2D(std::size_t c, std::size_t k, std::size_t h, std::size_t w);

    std::string name() const override;
    LayerKind kind() const override { return LayerKind::Pool; }
    const Tensor &forward(const Tensor &in, bool train) override;
    const Tensor &backward(const Tensor &grad_out) override;
    std::uint64_t flopsPerSample() const override;

    std::size_t outHeight() const { return oh_; }
    std::size_t outWidth() const { return ow_; }

  private:
    std::size_t c_, k_, h_, w_, oh_, ow_;
    Tensor out_buf_;
    Tensor grad_in_;
    std::vector<std::uint32_t> argmax_; //!< input offset in plane, per output
    std::size_t cached_n_ = 0;
};

} // namespace nn
} // namespace fedgpo

#endif // FEDGPO_NN_POOL2D_H_
