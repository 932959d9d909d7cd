/**
 * @file
 * Fully-connected layer: y = x W + b.
 */

#ifndef FEDGPO_NN_DENSE_H_
#define FEDGPO_NN_DENSE_H_

#include "nn/layer.h"
#include "util/rng.h"

namespace fedgpo {
namespace nn {

/**
 * Dense layer over 2-d batches [n, in] -> [n, out].
 */
class Dense : public Layer
{
  public:
    /**
     * @param in  Input feature width.
     * @param out Output feature width.
     * @param rng Initialization stream (Xavier uniform weights, zero bias).
     */
    Dense(std::size_t in, std::size_t out, util::Rng &rng);

    std::string name() const override;
    LayerKind kind() const override { return LayerKind::Dense; }
    const Tensor &forward(const Tensor &in, bool train) override;
    const Tensor &backward(const Tensor &grad_out) override;
    std::vector<Tensor *> params() override { return {&w_, &b_}; }
    std::vector<Tensor *> grads() override { return {&dw_, &db_}; }
    std::uint64_t flopsPerSample() const override;

  private:
    std::size_t in_;
    std::size_t out_;
    Tensor w_;   //!< [in, out]
    Tensor b_;   //!< [out]
    Tensor dw_;
    Tensor db_;
    Tensor dw_step_;  //!< backward scratch, reused across calls
    Tensor out_buf_;
    Tensor grad_in_;
    const Tensor *cached_in_ = nullptr;
};

} // namespace nn
} // namespace fedgpo

#endif // FEDGPO_NN_DENSE_H_
