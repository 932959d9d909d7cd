/**
 * @file
 * In-memory labeled dataset used by the FL clients.
 *
 * Samples live in one contiguous tensor whose first dimension indexes the
 * sample; batch assembly gathers rows by index, so client shards are just
 * index lists into the shared store (no per-client copies of the data).
 */

#ifndef FEDGPO_DATA_DATASET_H_
#define FEDGPO_DATA_DATASET_H_

#include <vector>

#include "tensor/tensor.h"

namespace fedgpo {
namespace data {

/**
 * Dense labeled dataset.
 */
class Dataset
{
  public:
    Dataset() = default;

    /**
     * @param features [N, ...sample dims]
     * @param labels   N class indices, each in [0, classes)
     * @param classes  Number of distinct classes
     *
     * Fatal in every build on a count mismatch or a label out of range.
     */
    Dataset(tensor::Tensor features, std::vector<int> labels,
            std::size_t classes);

    /** Number of samples. */
    std::size_t size() const { return labels_.size(); }

    /** Number of label classes. */
    std::size_t numClasses() const { return classes_; }

    /** Shape of one sample (batch dimension stripped). */
    const tensor::Shape &sampleShape() const { return sample_shape_; }

    /** All labels. */
    const std::vector<int> &labels() const { return labels_; }

    /** Label of sample i. */
    int label(std::size_t i) const { return labels_.at(i); }

    /**
     * Gather the samples at `indices` into a batch tensor shaped
     * [indices.size(), ...sample dims] (Tensor::resize, so a smaller
     * batch reuses the buffer) plus the matching label vector. Fatal in
     * every build unless every index is below size().
     */
    void gather(const std::vector<std::size_t> &indices,
                tensor::Tensor &batch, std::vector<int> &labels) const;

    /** Per-class sample counts for an index subset. */
    std::vector<std::size_t>
    classHistogram(const std::vector<std::size_t> &indices) const;

    /** Number of classes with at least one sample in the subset. */
    std::size_t classesPresent(const std::vector<std::size_t> &indices) const;

  private:
    tensor::Tensor features_;
    std::vector<int> labels_;
    std::size_t classes_ = 0;
    tensor::Shape sample_shape_;
    std::size_t sample_numel_ = 0;
};

} // namespace data
} // namespace fedgpo

#endif // FEDGPO_DATA_DATASET_H_
