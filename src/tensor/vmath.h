/**
 * @file
 * Elementwise tanh and logistic sigmoid over float arrays, bit-identical
 * to the host libm.
 *
 * On x86-64 hosts with AVX-512F, FMA and AVX2 (probed once at runtime)
 * both kernels evaluate glibc 2.36's own algorithms 16 lanes at a time:
 * tanh is fdlibm's tanhf and expm1f, in float with every multiply and add
 * rounded on its own; the sigmoid's exponential is `__expf_fma`, the
 * variant glibc's ifunc selects on such hosts, in double lanes with its
 * explicit FMAs. Every lane performs the scalar code's operations in its
 * order, and each branch becomes a select, so each output equals the
 * scalar call's bit for bit, NaN payloads included. Sigmoid lanes whose
 * exponential overflows, underflows or is not finite call std::exp
 * itself, so their values and errno are libm's. Elsewhere both run the
 * per-element libm loop. tests/tensor_test.cc holds the kernels against
 * libm; a libm with other algorithms fails those tests.
 */

#ifndef FEDGPO_TENSOR_VMATH_H_
#define FEDGPO_TENSOR_VMATH_H_

#include <cstddef>

namespace fedgpo {
namespace tensor {

/** out[i] = std::tanh(in[i]) for i < n. `in` may alias `out`. */
void tanhArray(const float *in, float *out, std::size_t n);

/**
 * out[i] = 1.0f / (1.0f + std::exp(-in[i])) for i < n. `in` may alias
 * `out`.
 */
void sigmoidArray(const float *in, float *out, std::size_t n);

/** The path both kernels take on this host: "avx512" or "libm". */
const char *vmathPath();

} // namespace tensor
} // namespace fedgpo

#endif // FEDGPO_TENSOR_VMATH_H_
