/**
 * @file
 * Stochastic gradient descent with optional momentum — the client-side
 * optimizer prescribed by FedAvg (paper Algorithm 1: w <- w - eta * grad).
 */

#ifndef FEDGPO_NN_SGD_H_
#define FEDGPO_NN_SGD_H_

#include <vector>

#include "nn/model.h"

namespace fedgpo {
namespace nn {

/**
 * Plain/momentum SGD over a Model's parameters.
 */
class Sgd
{
  public:
    /**
     * @param lr        Learning rate eta.
     * @param momentum  Momentum coefficient (0 = plain SGD).
     * @param clip_norm Global gradient-norm clip (0 disables). Clipping
     *                  keeps aggressive (small-B, high-lr) client configs
     *                  from diverging — without it a single exploding
     *                  client can poison the FedAvg aggregate.
     */
    explicit Sgd(double lr, double momentum = 0.0, double clip_norm = 0.0);

    /** Apply one update using the model's accumulated gradients. */
    void step(Model &model);

  private:
    double lr_;
    double momentum_;
    double clip_norm_;
    std::vector<Tensor> velocity_;
};

} // namespace nn
} // namespace fedgpo

#endif // FEDGPO_NN_SGD_H_
