/**
 * @file
 * Minimal dense float32 tensor used by the NN training library.
 *
 * Tensors are row-major, owning, and resizable. The API is deliberately
 * small: the NN layers only need construction, resize, element access,
 * fill, elementwise arithmetic, and GEMM (provided in ops.h). No views or
 * broadcasting — shapes must match exactly, which keeps the gradient code
 * easy to audit.
 */

#ifndef FEDGPO_TENSOR_TENSOR_H_
#define FEDGPO_TENSOR_TENSOR_H_

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

namespace fedgpo {
namespace tensor {

/** Shape of a tensor: one extent per dimension. */
using Shape = std::vector<std::size_t>;

/** Total number of elements implied by a shape (1 for scalars). */
std::size_t shapeNumel(const Shape &shape);

/** Human-readable rendering, e.g. "[32, 1, 12, 12]". */
std::string shapeToString(const Shape &shape);

/**
 * Dense row-major float tensor.
 */
class Tensor
{
  public:
    /** Empty 0-d tensor. */
    Tensor() = default;

    /** Allocate a zero-initialized tensor of the given shape. */
    explicit Tensor(Shape shape);

    /** Allocate with an explicit fill value. */
    Tensor(Shape shape, float fill);

    /** Construct from shape + data; data.size() must equal numel. */
    Tensor(Shape shape, std::vector<float> data);

    /** The tensor's shape. */
    const Shape &shape() const { return shape_; }

    /** Number of dimensions. */
    std::size_t ndim() const { return shape_.size(); }

    /** Extent of dimension d. */
    std::size_t dim(std::size_t d) const { return shape_.at(d); }

    /** Total element count. */
    std::size_t numel() const { return data_.size(); }

    /** Raw storage access. */
    float *data() { return data_.data(); }
    const float *data() const { return data_.data(); }

    /** Flat element access. */
    float &operator[](std::size_t i) { return data_[i]; }
    float operator[](std::size_t i) const { return data_[i]; }

    /**
     * 2-d indexed access; fatal in every build unless ndim() == 2 and
     * (r, c) lies inside the shape.
     */
    float &at(std::size_t r, std::size_t c);
    float at(std::size_t r, std::size_t c) const;

    /** Set every element to the given value. */
    void fill(float value);

    /** Set every element to zero. */
    void zero() { fill(0.0f); }

    /**
     * Reinterpret the underlying buffer with a new shape of equal numel.
     * The data is not moved.
     */
    void reshape(Shape shape);

    /**
     * Give the tensor `shape`, keeping the buffer's capacity. A new shape
     * zero-fills every element, exactly as Tensor(shape) does, and
     * allocates only when the buffer is too small for it; the current
     * shape leaves the data alone.
     */
    void resize(const Shape &shape);

    /** resize() from the extents themselves: builds no temporary Shape. */
    void resize(std::initializer_list<std::size_t> extents);

    /** Elementwise in-place operations; shapes must match exactly. */
    Tensor &operator+=(const Tensor &other);
    Tensor &operator-=(const Tensor &other);
    Tensor &operator*=(float scalar);

    /** this += scalar * other (axpy); shapes must match exactly. */
    void addScaled(const Tensor &other, float scalar);

    /** Sum of all elements. */
    double sum() const;

    /** Squared L2 norm of all elements. */
    double squaredNorm() const;

  private:
    void requireIndex(std::size_t r, std::size_t c) const;

    Shape shape_;
    std::vector<float> data_;
};

} // namespace tensor
} // namespace fedgpo

#endif // FEDGPO_TENSOR_TENSOR_H_
