/**
 * @file
 * Single-layer LSTM over fixed-length sequences with full BPTT.
 *
 * The layer consumes a whole sequence batch [n, T, in] and emits the final
 * hidden state [n, hidden] — the configuration used for next-character
 * prediction (LSTM-Shakespeare in the paper): the classifier head sits on
 * the last hidden state.
 */

#ifndef FEDGPO_NN_LSTM_H_
#define FEDGPO_NN_LSTM_H_

#include "nn/layer.h"
#include "util/rng.h"

namespace fedgpo {
namespace nn {

/**
 * LSTM with gate order (i, f, g, o) packed along the last weight axis.
 */
class LSTM : public Layer
{
  public:
    /**
     * @param in     Input feature width per timestep.
     * @param hidden Hidden/cell state width.
     * @param steps  Sequence length T (fixed at construction).
     * @param rng    Initialization stream (Xavier uniform; forget-gate bias
     *               initialized to 1, the usual trick for trainability).
     */
    LSTM(std::size_t in, std::size_t hidden, std::size_t steps,
         util::Rng &rng);

    std::string name() const override;
    LayerKind kind() const override { return LayerKind::Recurrent; }
    const Tensor &forward(const Tensor &in, bool train) override;
    const Tensor &backward(const Tensor &grad_out) override;
    std::vector<Tensor *> params() override { return {&wx_, &wh_, &b_}; }
    std::vector<Tensor *> grads() override { return {&dwx_, &dwh_, &db_}; }
    std::uint64_t flopsPerSample() const override;

    std::size_t hiddenSize() const { return hidden_; }
    std::size_t steps() const { return steps_; }

  private:
    std::size_t in_, hidden_, steps_;
    Tensor wx_;  //!< [in, 4*hidden]
    Tensor wh_;  //!< [hidden, 4*hidden]
    Tensor b_;   //!< [4*hidden]
    Tensor dwx_, dwh_, db_;

    // Forward caches, resized by every call: a smaller batch reuses their
    // capacity, and only h_0/c_0 are re-zeroed (everything else is fully
    // overwritten each forward), so steps at or below the largest batch
    // seen are allocation-free.
    std::vector<Tensor> xs_;      //!< per-step inputs [n, in]
    std::vector<Tensor> hs_;      //!< h_0..h_T, each [n, hidden]
    std::vector<Tensor> cs_;      //!< c_0..c_T
    std::vector<Tensor> gates_;   //!< post-activation gates per step [n,4H]
    std::vector<Tensor> tanh_c_;  //!< tanh(c_t) per step
    Tensor pre_x_, pre_h_;        //!< per-step GEMM outputs [n, 4H]
    Tensor out_buf_;
    Tensor grad_in_;
    // Backward scratch, persistent so steady-state BPTT is allocation-free
    // (one stable-shape buffer per matmul output instead of reshaping a
    // shared temporary every timestep).
    Tensor dh_;        //!< running hidden gradient [n, hidden]
    Tensor dc_;        //!< running cell gradient [n, hidden]
    Tensor dpre_;      //!< pre-activation gate gradient [n, 4H]
    Tensor dwx_step_;  //!< [in, 4H]
    Tensor dwh_step_;  //!< [hidden, 4H]
    Tensor dx_step_;   //!< [n, in]
    std::size_t cached_n_ = 0;
};

} // namespace nn
} // namespace fedgpo

#endif // FEDGPO_NN_LSTM_H_
