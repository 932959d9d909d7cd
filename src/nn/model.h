/**
 * @file
 * Sequential model container: the unit FedAvg ships between server and
 * clients.
 *
 * Besides running forward/backward chains, Model exposes exactly what the
 * FL layer needs: flat parameter (de)serialization for averaging, analytic
 * per-sample FLOPs for the device time model, parameter byte counts for the
 * communication model, and the layer census (#conv/#fc/#recurrent) that
 * feeds FedGPO's state features.
 */

#ifndef FEDGPO_NN_MODEL_H_
#define FEDGPO_NN_MODEL_H_

#include <memory>
#include <vector>

#include "nn/layer.h"
#include "nn/loss.h"

namespace fedgpo {

namespace obs {
struct SpanNode;
} // namespace obs

namespace nn {

/**
 * Census of trainable layer kinds, the NN-architecture component of
 * FedGPO's RL state (paper Table 1).
 */
struct LayerCensus
{
    std::size_t conv = 0;       //!< S_CONV input
    std::size_t dense = 0;      //!< S_FC input
    std::size_t recurrent = 0;  //!< S_RC input
};

/**
 * A feedforward stack of layers with a softmax-cross-entropy head.
 */
class Model
{
  public:
    Model() = default;

    // Model owns layer activation chains; moving would invalidate cached
    // pointers mid-step, so models are pinned.
    Model(const Model &) = delete;
    Model &operator=(const Model &) = delete;

    /**
     * Append a layer (takes ownership) and its parameters and gradients
     * to params() and grads(); returns *this for chaining. The first
     * layer's input gradient is switched off (Layer::inputGrad()):
     * nothing reads it.
     */
    Model &add(std::unique_ptr<Layer> layer);

    /** Number of layers. */
    std::size_t size() const { return layers_.size(); }

    /** Access layer i. */
    Layer &layer(std::size_t i) { return *layers_.at(i); }

    /**
     * Forward pass through all layers.
     * @return Logits tensor (owned by the last layer).
     */
    const Tensor &forward(const Tensor &input, bool train = false);

    /**
     * One training step on a batch: forward, loss, backward, gradient
     * accumulation. Does NOT update parameters; call an optimizer.
     *
     * @return Mean loss over the batch.
     */
    double trainStep(const Tensor &input, const std::vector<int> &labels);

    /**
     * Evaluate mean loss and accuracy on a batch without touching
     * gradients. `correct` is the exact argmax-correct count, so batched
     * evaluators can sum integer counts instead of reconstructing them
     * from the accuracy ratio (which is lossy).
     */
    struct EvalResult
    {
        double loss = 0.0;
        double accuracy = 0.0;
        std::size_t correct = 0;
    };
    EvalResult evaluate(const Tensor &input, const std::vector<int> &labels);

    /** Zero all parameter gradients. */
    void zeroGrad();

    /** All parameter tensors across layers, in layer order. */
    const std::vector<Tensor *> &params() { return params_; }

    /** All gradient tensors across layers, parallel to params(). */
    const std::vector<Tensor *> &grads() { return grads_; }

    /** Total scalar parameter count. */
    std::size_t paramCount();

    /** Parameter payload in bytes (float32), for the comm model. */
    std::size_t paramBytes();

    /** Copy all parameters into one flat vector (FedAvg upload). */
    std::vector<float> saveParams();

    /** Load parameters from a flat vector (FedAvg download). */
    void loadParams(const std::vector<float> &flat);

    /** Analytic forward FLOPs per sample, summed over layers. */
    std::uint64_t forwardFlopsPerSample() const;

    /**
     * Analytic training FLOPs per sample. Uses the standard 3x-forward
     * estimate (forward + ~2x for the backward pass).
     */
    std::uint64_t trainFlopsPerSample() const;

    /** Layer census for the FedGPO state features. */
    LayerCensus census() const;

    /** Loss head (exposes last-batch probabilities etc.). */
    SoftmaxCrossEntropy &loss() { return loss_; }

  private:
    /**
     * Resolve per-layer profile spans ("model.forward.<idx>_<kind>", and
     * the backward twins) once, lazily on the first forward pass so the
     * layer stack is complete. All null below the profile level.
     */
    void ensureSpans();

    std::vector<std::unique_ptr<Layer>> layers_;
    std::vector<Tensor *> params_; //!< built by add()
    std::vector<Tensor *> grads_;  //!< built by add(), parallel to params_
    SoftmaxCrossEntropy loss_;
    bool spans_ready_ = false;
    std::vector<obs::SpanNode *> fwd_spans_;
    std::vector<obs::SpanNode *> bwd_spans_;
};

} // namespace nn
} // namespace fedgpo

#endif // FEDGPO_NN_MODEL_H_
