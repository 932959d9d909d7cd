#include "data/dataset.h"

#include <algorithm>
#include <string>

#include "util/logging.h"

namespace fedgpo {
namespace data {

Dataset::Dataset(tensor::Tensor features, std::vector<int> labels,
                 std::size_t classes)
    : features_(std::move(features)), labels_(std::move(labels)),
      classes_(classes)
{
    if (features_.ndim() < 2)
        util::fatal("Dataset: features must have a batch dimension");
    if (features_.dim(0) != labels_.size())
        util::fatal("Dataset: feature/label count mismatch");
    sample_shape_.assign(features_.shape().begin() + 1,
                         features_.shape().end());
    sample_numel_ = tensor::shapeNumel(sample_shape_);
    for (const int y : labels_)
        if (y < 0 || static_cast<std::size_t>(y) >= classes_)
            util::fatal("Dataset: label " + std::to_string(y) +
                        " outside [0, " + std::to_string(classes_) + ")");
}

void
Dataset::gather(const std::vector<std::size_t> &indices,
                tensor::Tensor &batch, std::vector<int> &labels) const
{
    tensor::Shape shape{indices.size()};
    shape.insert(shape.end(), sample_shape_.begin(), sample_shape_.end());
    batch.resize(shape);
    labels.resize(indices.size());
    const float *src = features_.data();
    float *dst = batch.data();
    for (std::size_t i = 0; i < indices.size(); ++i) {
        const std::size_t idx = indices[i];
        if (idx >= size())
            util::fatal("Dataset::gather: index " + std::to_string(idx) +
                        " outside a dataset of " + std::to_string(size()));
        std::copy(src + idx * sample_numel_,
                  src + (idx + 1) * sample_numel_,
                  dst + i * sample_numel_);
        labels[i] = labels_[idx];
    }
}

std::vector<std::size_t>
Dataset::classHistogram(const std::vector<std::size_t> &indices) const
{
    std::vector<std::size_t> hist(classes_, 0);
    for (std::size_t idx : indices)
        ++hist[static_cast<std::size_t>(labels_.at(idx))];
    return hist;
}

std::size_t
Dataset::classesPresent(const std::vector<std::size_t> &indices) const
{
    auto hist = classHistogram(indices);
    std::size_t present = 0;
    for (std::size_t count : hist)
        if (count > 0)
            ++present;
    return present;
}

} // namespace data
} // namespace fedgpo
