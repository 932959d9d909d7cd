/**
 * @file
 * 2-d convolution over NCHW batches: a tap-major im2col and one GEMM per
 * image, with operands and results in NCHW throughout.
 */

#ifndef FEDGPO_NN_CONV2D_H_
#define FEDGPO_NN_CONV2D_H_

#include "nn/layer.h"
#include "util/rng.h"

namespace fedgpo {
namespace nn {

/**
 * Standard convolution with square kernels.
 *
 * Input  [n, in_c, h, w]
 * Output [n, out_c, oh, ow] with oh/ow from (extent + 2*pad - k)/stride + 1.
 *
 * The spatial input extent is fixed at construction time; the model zoo
 * builds networks for specific dataset geometries, which keeps the FLOP
 * accounting exact.
 *
 * Per image, with cols the image's [in_c*k*k, oh*ow] im2col block (the
 * input image itself for a 1x1/stride-1/pad-0 layer) and g its output
 * gradient [out_c, oh*ow]:
 * - forward: out = W^T cols from a zero start, then + b[oc] along row oc;
 * - dW: one step chained from zero across the images' cols g^T GEMMs,
 *   then added to dW; db[oc] continues its chain over each image's pixels;
 * - dX: W g into the image's block of the column gradient, which col2im
 *   folds back (a 1x1 layer writes dX directly).
 * Each result folds the float chain of its plain per-element loop
 * (DESIGN.md, "Layer loops"). Input and output-gradient shapes are
 * checked in every build (util::fatal).
 */
class Conv2D : public Layer
{
  public:
    /**
     * @param in_c   Input channels.
     * @param out_c  Output channels (filters).
     * @param k      Square kernel extent.
     * @param h, w   Input spatial extents.
     * @param stride Stride in both dimensions.
     * @param pad    Zero padding on all sides.
     * @param rng    Initialization stream (He normal).
     */
    Conv2D(std::size_t in_c, std::size_t out_c, std::size_t k,
           std::size_t h, std::size_t w, std::size_t stride,
           std::size_t pad, util::Rng &rng);

    std::string name() const override;
    LayerKind kind() const override { return LayerKind::Conv; }
    const Tensor &forward(const Tensor &in, bool train) override;
    const Tensor &backward(const Tensor &grad_out) override;
    std::vector<Tensor *> params() override { return {&weights_, &b_}; }
    std::vector<Tensor *> grads() override { return {&dw_, &db_}; }
    std::uint64_t flopsPerSample() const override;

    std::size_t outChannels() const { return out_c_; }
    std::size_t outHeight() const { return oh_; }
    std::size_t outWidth() const { return ow_; }

  private:
    /**
     * The last forward input's im2col columns, image i's block at
     * i * in_c*k*k * oh*ow: the input itself for a pointwise layer.
     */
    const float *columns() const;

    std::size_t in_c_, out_c_, k_, in_h_, in_w_, stride_, pad_;
    std::size_t oh_, ow_;
    bool pointwise_; //!< 1x1, stride 1, pad 0: the input is its own im2col
    Tensor weights_; //!< [in_c * k * k, out_c]: row (ch, ky, kx), column oc
    Tensor b_;   //!< [out_c]
    Tensor dw_;
    Tensor db_;
    Tensor wt_;         //!< [out_c, in_c * k * k]: weights_^T, dX's A
    Tensor dw_step_;    //!< [in_c * k * k, out_c]: one backward's dW step
    Tensor cols_;       //!< [n * in_c * k * k, oh * ow]; unused if pointwise
    Tensor out_buf_;    //!< [n, out_c, oh, ow]
    Tensor grad_cols_;  //!< [n * in_c * k * k, oh * ow]; unused if pointwise
    Tensor grad_in_;    //!< [n, in_c, h, w]
    const Tensor *cached_in_ = nullptr; //!< forward input (Layer contract)
};

} // namespace nn
} // namespace fedgpo

#endif // FEDGPO_NN_CONV2D_H_
