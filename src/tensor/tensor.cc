#include "tensor/tensor.h"

#include <algorithm>
#include <sstream>

#include "util/logging.h"

namespace fedgpo {
namespace tensor {

std::size_t
shapeNumel(const Shape &shape)
{
    std::size_t n = 1;
    for (auto d : shape)
        n *= d;
    return n;
}

std::string
shapeToString(const Shape &shape)
{
    std::ostringstream os;
    os << "[";
    for (std::size_t i = 0; i < shape.size(); ++i) {
        if (i)
            os << ", ";
        os << shape[i];
    }
    os << "]";
    return os.str();
}

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)), data_(shapeNumel(shape_), 0.0f)
{
}

Tensor::Tensor(Shape shape, float fill)
    : shape_(std::move(shape)), data_(shapeNumel(shape_), fill)
{
}

Tensor::Tensor(Shape shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data))
{
    if (data_.size() != shapeNumel(shape_)) {
        util::fatal("Tensor: data size " + std::to_string(data_.size()) +
                    " does not match shape " + shapeToString(shape_));
    }
}

void
Tensor::requireIndex(std::size_t r, std::size_t c) const
{
    if (ndim() != 2 || r >= shape_[0] || c >= shape_[1])
        util::fatal("Tensor::at: (" + std::to_string(r) + ", " +
                    std::to_string(c) + ") outside " +
                    shapeToString(shape_));
}

float &
Tensor::at(std::size_t r, std::size_t c)
{
    requireIndex(r, c);
    return data_[r * shape_[1] + c];
}

float
Tensor::at(std::size_t r, std::size_t c) const
{
    requireIndex(r, c);
    return data_[r * shape_[1] + c];
}

void
Tensor::fill(float value)
{
    std::fill(data_.begin(), data_.end(), value);
}

void
Tensor::reshape(Shape shape)
{
    if (shapeNumel(shape) != data_.size()) {
        util::fatal("Tensor::reshape: numel mismatch " +
                    shapeToString(shape_) + " -> " + shapeToString(shape));
    }
    shape_ = std::move(shape);
}

void
Tensor::resize(const Shape &shape)
{
    if (shape == shape_)
        return;
    shape_ = shape;
    data_.assign(shapeNumel(shape_), 0.0f);
}

void
Tensor::resize(std::initializer_list<std::size_t> extents)
{
    if (std::equal(extents.begin(), extents.end(), shape_.begin(),
                   shape_.end()))
        return;
    shape_.assign(extents);
    data_.assign(shapeNumel(shape_), 0.0f);
}

namespace {

/** Fatal unless an elementwise op's operands have one shape. */
void
requireSameShape(const char *op, const Shape &lhs, const Shape &rhs)
{
    if (lhs != rhs)
        util::fatal(std::string("Tensor::") + op + ": shape " +
                    shapeToString(lhs) + " vs " + shapeToString(rhs));
}

} // namespace

Tensor &
Tensor::operator+=(const Tensor &other)
{
    requireSameShape("operator+=", shape_, other.shape_);
    for (std::size_t i = 0; i < data_.size(); ++i)
        data_[i] += other.data_[i];
    return *this;
}

Tensor &
Tensor::operator-=(const Tensor &other)
{
    requireSameShape("operator-=", shape_, other.shape_);
    for (std::size_t i = 0; i < data_.size(); ++i)
        data_[i] -= other.data_[i];
    return *this;
}

Tensor &
Tensor::operator*=(float scalar)
{
    for (auto &x : data_)
        x *= scalar;
    return *this;
}

void
Tensor::addScaled(const Tensor &other, float scalar)
{
    requireSameShape("addScaled", shape_, other.shape_);
    for (std::size_t i = 0; i < data_.size(); ++i)
        data_[i] += scalar * other.data_[i];
}

double
Tensor::sum() const
{
    double total = 0.0;
    for (float x : data_)
        total += x;
    return total;
}

double
Tensor::squaredNorm() const
{
    double total = 0.0;
    for (float x : data_)
        total += static_cast<double>(x) * x;
    return total;
}

} // namespace tensor
} // namespace fedgpo
