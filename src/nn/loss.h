/**
 * @file
 * Softmax cross-entropy loss for classification heads.
 */

#ifndef FEDGPO_NN_LOSS_H_
#define FEDGPO_NN_LOSS_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace fedgpo {
namespace nn {

/**
 * Numerically stable softmax + cross-entropy over integer class labels.
 */
class SoftmaxCrossEntropy
{
  public:
    /**
     * Compute mean loss over the batch.
     *
     * @param logits [n, classes]
     * @param labels n class indices in [0, classes)
     * @return Mean negative log-likelihood.
     *
     * Fatal in every build unless the logits are 2-d and the labels are
     * n indices in range.
     */
    double forward(const tensor::Tensor &logits,
                   const std::vector<int> &labels);

    /**
     * Gradient of the mean loss w.r.t. the logits of the preceding
     * forward() call: (softmax - onehot) / n. Fatal before any forward().
     */
    const tensor::Tensor &backward();

    /** Softmax probabilities from the last forward() call ([n, classes]). */
    const tensor::Tensor &probs() const { return probs_; }

    /** Count of argmax-correct predictions in the last forward() batch. */
    std::size_t correct() const { return correct_; }

  private:
    tensor::Tensor probs_;
    tensor::Tensor grad_;
    std::vector<int> labels_;
    std::size_t correct_ = 0;
};

} // namespace nn
} // namespace fedgpo

#endif // FEDGPO_NN_LOSS_H_
