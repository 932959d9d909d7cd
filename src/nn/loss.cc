#include "nn/loss.h"

#include <cmath>
#include <string>

#include "util/logging.h"

namespace fedgpo {
namespace nn {

double
SoftmaxCrossEntropy::forward(const tensor::Tensor &logits,
                             const std::vector<int> &labels)
{
    if (logits.ndim() != 2)
        util::fatal("SoftmaxCrossEntropy: logits " +
                    tensor::shapeToString(logits.shape()) +
                    ", expected [n, classes]");
    const std::size_t n = logits.dim(0);
    const std::size_t c = logits.dim(1);
    if (labels.size() != n)
        util::fatal("SoftmaxCrossEntropy: " + std::to_string(labels.size()) +
                    " labels for " + std::to_string(n) + " rows");
    for (const int y : labels)
        if (y < 0 || static_cast<std::size_t>(y) >= c)
            util::fatal("SoftmaxCrossEntropy: label " + std::to_string(y) +
                        " outside [0, " + std::to_string(c) + ")");
    labels_ = labels;
    probs_.resize(logits.shape());
    const float *pl = logits.data();
    float *pp = probs_.data();
    double loss = 0.0;
    correct_ = 0;
    for (std::size_t r = 0; r < n; ++r) {
        const float *row = pl + r * c;
        float *prow = pp + r * c;
        float max_v = row[0];
        std::size_t argmax = 0;
        for (std::size_t j = 1; j < c; ++j) {
            if (row[j] > max_v) {
                max_v = row[j];
                argmax = j;
            }
        }
        double denom = 0.0;
        for (std::size_t j = 0; j < c; ++j) {
            prow[j] = std::exp(row[j] - max_v);
            denom += prow[j];
        }
        for (std::size_t j = 0; j < c; ++j)
            prow[j] = static_cast<float>(prow[j] / denom);
        const int y = labels[r];
        // Clamp genuine underflow only. std::max(1e-12, p) would also
        // swallow NaN (the comparison is false, so the clamp wins),
        // silently reporting a finite loss for a diverged model; the
        // flipped comparison lets NaN fall through and propagate.
        const double p = static_cast<double>(prow[y]);
        loss -= std::log(p < 1e-12 ? 1e-12 : p);
        if (argmax == static_cast<std::size_t>(y))
            ++correct_;
    }
    return loss / static_cast<double>(n);
}

const tensor::Tensor &
SoftmaxCrossEntropy::backward()
{
    if (probs_.ndim() != 2)
        util::fatal("SoftmaxCrossEntropy: backward before forward");
    const std::size_t n = probs_.dim(0);
    const std::size_t c = probs_.dim(1);
    grad_.resize(probs_.shape());
    const float *pp = probs_.data();
    float *pg = grad_.data();
    const float inv_n = 1.0f / static_cast<float>(n);
    for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t j = 0; j < c; ++j)
            pg[r * c + j] = pp[r * c + j] * inv_n;
        pg[r * c + static_cast<std::size_t>(labels_[r])] -= inv_n;
    }
    return grad_;
}

} // namespace nn
} // namespace fedgpo
