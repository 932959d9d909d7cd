/**
 * @file
 * Layer interface of the from-scratch NN training library.
 *
 * Contract: forward(x) returns a reference to an internal output buffer
 * and caches what backward needs; backward(dy) must be called with the
 * gradient w.r.t. that output while the input passed to the immediately
 * preceding forward is still alive and unmodified. Model enforces this by
 * owning the full activation chain. Layers own their parameters and the
 * matching gradient buffers; gradients accumulate across backward calls
 * until zeroGrad().
 *
 * The input gradient is computed only while inputGrad() is true. Model
 * clears it for its first layer, whose input gradient has no consumer;
 * a standalone layer keeps the default (true). With it cleared, Conv2D,
 * DepthwiseConv2D, Dense and LSTM skip that work and backward returns an
 * empty tensor; the parameter gradients are unchanged either way.
 */

#ifndef FEDGPO_NN_LAYER_H_
#define FEDGPO_NN_LAYER_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace fedgpo {
namespace nn {

using tensor::Tensor;

/**
 * Coarse layer taxonomy.
 *
 * FedGPO's state features count convolutional, fully-connected, and
 * recurrent layers (paper Table 1), so the kind is part of the public
 * layer interface rather than an implementation detail.
 */
enum class LayerKind {
    Conv,        //!< Standard or depthwise convolution
    Dense,       //!< Fully-connected
    Recurrent,   //!< LSTM / RNN
    Activation,  //!< Elementwise nonlinearity
    Pool,        //!< Spatial pooling
    Reshape,     //!< Flatten and friends (no math)
};

/**
 * Abstract differentiable layer.
 */
class Layer
{
  public:
    virtual ~Layer() = default;

    /** Short human-readable name, e.g. "conv3x3(1->8)". */
    virtual std::string name() const = 0;

    /** Taxonomic kind (see LayerKind). */
    virtual LayerKind kind() const = 0;

    /**
     * Run the layer on a batch and return its output.
     *
     * The returned reference points at a buffer owned by the layer and is
     * valid until the next forward() call on this layer.
     *
     * @param in    Input batch; first dimension is the batch size.
     * @param train True during training (enables any train-only behavior).
     */
    virtual const Tensor &forward(const Tensor &in, bool train) = 0;

    /**
     * Backpropagate through the layer.
     *
     * Accumulates parameter gradients and returns the gradient w.r.t. the
     * input of the preceding forward() call, or an empty tensor when
     * inputGrad() is false and the layer skips it. The returned reference
     * is owned by the layer and valid until the next backward() call.
     */
    virtual const Tensor &backward(const Tensor &grad_out) = 0;

    /** Whether backward() computes the input gradient (default true). */
    bool inputGrad() const { return input_grad_; }

    /** Set by Model from the layer's position; see the file comment. */
    void setInputGrad(bool on) { input_grad_ = on; }

    /** Mutable views of the parameter tensors (possibly empty). */
    virtual std::vector<Tensor *> params() { return {}; }

    /** Gradient tensors, parallel to params(). */
    virtual std::vector<Tensor *> grads() { return {}; }

    /** Zero all gradient buffers. */
    void zeroGrad();

    /** Total number of scalar parameters. */
    std::size_t paramCount();

    /**
     * Analytic forward FLOPs for a single sample (multiply and add counted
     * separately, the convention of the paper's GFLOPS tables). Layers with
     * no arithmetic return 0.
     */
    virtual std::uint64_t flopsPerSample() const = 0;

  protected:
    /** What backward() returns when it skips the input gradient. */
    static const Tensor &noInputGrad();

    /**
     * Shape contracts on what callers hand forward() and backward(),
     * checked in every build: util::fatal, naming the layer, unless `in`
     * is [n, item...] for some batch n, or `grad_out` is exactly `want`.
     */
    void requireInput(const Tensor &in,
                      std::initializer_list<std::size_t> item) const;
    void requireGradOut(const Tensor &grad_out,
                        std::initializer_list<std::size_t> want) const;
    void requireGradOut(const Tensor &grad_out,
                        const tensor::Shape &want) const;

    bool input_grad_ = true;
};

} // namespace nn
} // namespace fedgpo

#endif // FEDGPO_NN_LAYER_H_
