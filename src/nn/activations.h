/**
 * @file
 * Elementwise activation layers and a shape-only Flatten layer.
 */

#ifndef FEDGPO_NN_ACTIVATIONS_H_
#define FEDGPO_NN_ACTIVATIONS_H_

#include "nn/layer.h"

namespace fedgpo {
namespace nn {

/**
 * Rectified linear unit, y = max(0, x), any [n, ...] input shape.
 * backward() is fatal before a forward() and unless the gradient has the
 * output's shape.
 */
class ReLU : public Layer
{
  public:
    ReLU() = default;

    std::string name() const override { return "relu"; }
    LayerKind kind() const override { return LayerKind::Activation; }
    const Tensor &forward(const Tensor &in, bool train) override;
    const Tensor &backward(const Tensor &grad_out) override;
    std::uint64_t flopsPerSample() const override;

  private:
    Tensor out_buf_;
    Tensor grad_in_;
    std::size_t cached_batch_ = 1;
};

/**
 * Hyperbolic tangent activation, any [n, ...] input shape, under ReLU's
 * contracts.
 */
class Tanh : public Layer
{
  public:
    Tanh() = default;

    std::string name() const override { return "tanh"; }
    LayerKind kind() const override { return LayerKind::Activation; }
    const Tensor &forward(const Tensor &in, bool train) override;
    const Tensor &backward(const Tensor &grad_out) override;
    std::uint64_t flopsPerSample() const override;

  private:
    Tensor out_buf_;
    Tensor grad_in_;
    std::size_t cached_batch_ = 1;
};

/**
 * Flatten [n, ...] into [n, prod(...)]. No arithmetic.
 */
class Flatten : public Layer
{
  public:
    Flatten() = default;

    std::string name() const override { return "flatten"; }
    LayerKind kind() const override { return LayerKind::Reshape; }
    const Tensor &forward(const Tensor &in, bool train) override;
    const Tensor &backward(const Tensor &grad_out) override;
    std::uint64_t flopsPerSample() const override { return 0; }

  private:
    Tensor out_buf_;
    Tensor grad_in_;
    tensor::Shape cached_shape_;
};

} // namespace nn
} // namespace fedgpo

#endif // FEDGPO_NN_ACTIVATIONS_H_
