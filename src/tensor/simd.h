/**
 * @file
 * <immintrin.h> for the runtime-dispatched x86-64 kernels (gemm.cc,
 * vmath.cc, depthwise.cc), and the AVX-512F probe they share.
 *
 * FEDGPO_X86_SIMD is 1 on x86-64 GCC and Clang builds. There the wider
 * kernels are compiled through per-function target attributes and picked
 * at run time, so the baseline build stays plain SSE2; elsewhere it is 0
 * and only the portable code is compiled.
 */

#ifndef FEDGPO_TENSOR_SIMD_H_
#define FEDGPO_TENSOR_SIMD_H_

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define FEDGPO_X86_SIMD 1
#pragma GCC diagnostic push
#if !defined(__clang__)
// GCC 12's _mm512_undefined_* initialize themselves from themselves,
// which -Wmaybe-uninitialized reports wherever they inline (GCC PR
// 105593).
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
#include <immintrin.h>
#pragma GCC diagnostic pop
#else
#define FEDGPO_X86_SIMD 0
#endif

namespace fedgpo {
namespace tensor {

/** True when the CPU runs AVX-512F code; probed once per process. */
inline bool
haveAvx512f()
{
#if FEDGPO_X86_SIMD
    static const bool have = __builtin_cpu_supports("avx512f");
    return have;
#else
    return false;
#endif
}

} // namespace tensor
} // namespace fedgpo

#endif // FEDGPO_TENSOR_SIMD_H_
