#include "tensor/vmath.h"

#include <cmath>
#include <cstdint>

// The kernels below transcribe glibc 2.36's scalar code lane for lane.
// fdlibm's tanhf and expm1f round every multiply and add on its own, and
// target("avx512f") has FMA instructions that GCC's default
// -ffp-contract=fast would fuse them into; src/tensor/CMakeLists.txt
// compiles this file with -ffp-contract=off. The exponential mirrors
// __expf_fma, whose FMAs are explicit intrinsics that the flag leaves
// alone.
#include "tensor/simd.h"

namespace fedgpo {
namespace tensor {

namespace {

#if FEDGPO_X86_SIMD

/**
 * True when the vector kernels can run and glibc's expf ifunc picks
 * __expf_fma (FMA and AVX2 usable); probed once.
 */
bool
haveAvx512()
{
    static const bool have = haveAvx512f() &&
                             __builtin_cpu_supports("fma") &&
                             __builtin_cpu_supports("avx2");
    return have;
}

#define FEDGPO_LANES __attribute__((target("avx512f"), always_inline)) inline

FEDGPO_LANES __m512i
splat(std::uint32_t bits)
{
    return _mm512_set1_epi32(static_cast<int>(bits));
}

FEDGPO_LANES __m512
splatBits(std::uint32_t bits)
{
    return _mm512_castsi512_ps(splat(bits));
}

FEDGPO_LANES __mmask16
below(__m512i v, std::uint32_t bound)
{
    return _mm512_cmplt_epi32_mask(v, splat(bound));
}

/** Lanes i < n of a 16-lane block. */
FEDGPO_LANES __mmask16
headMask(std::size_t n)
{
    return n >= 16 ? static_cast<__mmask16>(0xffff)
                   : static_cast<__mmask16>((1u << n) - 1);
}

/**
 * fdlibm's expm1f (s_expm1f.c) on the arguments tanhf passes it:
 * 2|x| in [2, 44) and -2|x| in (-2, -2^-54]. The argument reduction and
 * the rational approximation run on every lane; the reconstructions
 * become selects on k, which these arguments keep in {-3, ..., 0} and
 * [3, 63]. expm1f's returns for k = 1, for |x| >= 27 ln2 with x < 0 and
 * for overflow and non-finite x are out of that range and left out.
 */
FEDGPO_LANES __m512
expm1ForTanh(__m512 x)
{
    const __m512i bits = _mm512_castps_si512(x);
    const __m512i hx = _mm512_and_si512(bits, splat(0x7fffffff));
    const __mmask16 neg =
        _mm512_cmplt_epi32_mask(bits, _mm512_setzero_si512());
    const __m512 one = _mm512_set1_ps(1.0f), half = _mm512_set1_ps(0.5f);

    // k = (int)(x / ln2 +- 0.5); -1 on (-1.5 ln2, -0.5 ln2) and 0 on
    // [-0.5 ln2, 0.5 ln2], as fdlibm forces them.
    const __m512 bias = _mm512_mask_blend_ps(neg, half, splatBits(0xbf000000));
    __m512i k = _mm512_cvttps_epi32(
        _mm512_add_ps(_mm512_mul_ps(splatBits(0x3fb8aa3b), x), bias));
    k = _mm512_mask_blend_epi32(neg & below(hx, 0x3f851592), k, splat(~0u));
    k = _mm512_mask_blend_epi32(below(hx, 0x3eb17219), k,
                                _mm512_setzero_si512());
    const __m512 t = _mm512_cvtepi32_ps(k);
    const __m512 hi = _mm512_sub_ps(x, _mm512_mul_ps(t, splatBits(0x3f317180)));
    const __m512 lo = _mm512_mul_ps(t, splatBits(0x3717f7d1));
    const __m512 r = _mm512_sub_ps(hi, lo); // x itself where k = 0
    const __m512 c = _mm512_sub_ps(_mm512_sub_ps(hi, r), lo);

    // r1 = 1 + hxs * (Q1 + hxs * (Q2 + ... + hxs * Q5)).
    const __m512 hfx = _mm512_mul_ps(half, r);
    const __m512 hxs = _mm512_mul_ps(r, hfx);
    const std::uint32_t q[] = {0x36867e54, 0xb8a670cd, 0x3ad00d01,
                               0xbd088889};
    __m512 p = _mm512_mul_ps(splatBits(0xb457edbb), hxs);
    for (const std::uint32_t qi : q)
        p = _mm512_mul_ps(_mm512_add_ps(p, splatBits(qi)), hxs);
    const __m512 r1 = _mm512_add_ps(p, one);
    const __m512 tt =
        _mm512_sub_ps(_mm512_set1_ps(3.0f), _mm512_mul_ps(r1, hfx));
    __m512 e = _mm512_mul_ps(
        hxs, _mm512_div_ps(_mm512_sub_ps(r1, tt),
                           _mm512_sub_ps(_mm512_set1_ps(6.0f),
                                         _mm512_mul_ps(r, tt))));
    const __m512 y0 = _mm512_sub_ps(r, _mm512_sub_ps(_mm512_mul_ps(r, e), hxs));

    e = _mm512_sub_ps(
        _mm512_sub_ps(_mm512_mul_ps(r, _mm512_sub_ps(e, c)), c), hxs);
    const __m512 ym1 =
        _mm512_sub_ps(_mm512_mul_ps(half, _mm512_sub_ps(r, e)), half);
    // Far (k <= -2 or k > 56): 2^k (1 - (e - x)) - 1. Below 23:
    // 2^k ((1 - 2^-k) - (e - x)). The rest: 2^k ((x - (e + 2^-k)) + 1).
    // The scale by 2^k adds k to the exponent field.
    const __mmask16 far = _mm512_cmplt_epi32_mask(k, splat(~0u)) |
                          _mm512_cmpgt_epi32_mask(k, splat(56));
    const __mmask16 wide = ~far & _mm512_cmpge_epi32_mask(k, splat(23));
    const __m512i lead = _mm512_mask_blend_epi32(
        far,
        _mm512_sub_epi32(splat(0x3f800000),
                         _mm512_srlv_epi32(splat(0x1000000), k)),
        splat(0x3f800000));
    __m512 y = _mm512_sub_ps(_mm512_castsi512_ps(lead), _mm512_sub_ps(e, r));
    const __m512 tail = _mm512_castsi512_ps(
        _mm512_slli_epi32(_mm512_sub_epi32(splat(0x7f), k), 23));
    y = _mm512_mask_add_ps(y, wide,
                           _mm512_sub_ps(r, _mm512_add_ps(e, tail)), one);
    y = _mm512_castsi512_ps(_mm512_add_epi32(_mm512_castps_si512(y),
                                             _mm512_slli_epi32(k, 23)));
    y = _mm512_mask_sub_ps(y, far, y, one);

    const __m512i zero = _mm512_setzero_si512();
    y = _mm512_mask_blend_ps(_mm512_cmpeq_epi32_mask(k, splat(~0u)), y, ym1);
    y = _mm512_mask_blend_ps(_mm512_cmpeq_epi32_mask(k, zero), y, y0);
    // |x| < 2^-25 returns x.
    return _mm512_mask_blend_ps(below(hx, 0x33000000), y, x);
}

/** fdlibm's tanhf (s_tanhf.c) on 16 lanes. */
FEDGPO_LANES __m512
tanh16(__m512 x)
{
    const __m512i bits = _mm512_castps_si512(x);
    const __m512i sign = _mm512_and_si512(bits, splat(0x80000000));
    const __m512i ix = _mm512_and_si512(bits, splat(0x7fffffff));
    const __m512 one = _mm512_set1_ps(1.0f), two = _mm512_set1_ps(2.0f);

    // |x| >= 1: 1 - 2 / (expm1f(2|x|) + 2). Below: -t / (t + 2) with
    // t = expm1f(-2|x|). One division on the selected numerator.
    const __mmask16 big = _mm512_cmpge_epi32_mask(ix, splat(0x3f800000));
    const __m512i twice =
        _mm512_castps_si512(_mm512_add_ps(_mm512_castsi512_ps(ix),
                                          _mm512_castsi512_ps(ix)));
    const __m512 t = expm1ForTanh(_mm512_castsi512_ps(
        _mm512_mask_or_epi32(twice, ~big, twice, splat(0x80000000))));
    const __m512 neg_t = _mm512_castsi512_ps(
        _mm512_xor_si512(_mm512_castps_si512(t), splat(0x80000000)));
    const __m512 q = _mm512_div_ps(_mm512_mask_blend_ps(big, neg_t, two),
                                   _mm512_add_ps(t, two));
    __m512 z = _mm512_mask_sub_ps(q, big, one, q);
    // |x| >= 22: 1 - 1e-30, which rounds to 1.
    z = _mm512_mask_blend_ps(~below(ix, 0x41b00000), z, one);
    z = _mm512_castsi512_ps(
        _mm512_xor_si512(_mm512_castps_si512(z), sign));
    // |x| < 2^-55: x * (1 + x), which is x for +-0 as well.
    z = _mm512_mask_blend_ps(below(ix, 0x24000000), z,
                             _mm512_mul_ps(_mm512_add_ps(one, x), x));
    // Inf and NaN: 1/x + 1 for a clear sign bit, 1/x - 1 for a set one.
    const __mmask16 nonfinite = ~below(ix, 0x7f800000);
    if (nonfinite != 0) {
        const __m512 unit = _mm512_castsi512_ps(
            _mm512_or_si512(_mm512_castps_si512(one), sign));
        z = _mm512_mask_add_ps(z, nonfinite,
                               _mm512_div_ps(one, x), unit);
    }
    return z;
}

__attribute__((target("avx512f"))) void
tanhAvx512(const float *in, float *out, std::size_t n)
{
    for (std::size_t i = 0; i < n; i += 16) {
        const __mmask16 m = headMask(n - i);
        _mm512_mask_storeu_ps(out + i, m,
                              tanh16(_mm512_maskz_loadu_ps(m, in + i)));
    }
}

// glibc's __exp2f_data: 2^(i/32) as double bits minus i << 47, so that
// adding the rounded k << 47 lands on 2^(k/32); then 32/ln2, the
// round-to-integer shift 1.5 * 2^52 and the cubic's coefficients scaled
// by 1/32.
alignas(64) const std::uint64_t kExp2Table[32] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f,
    0x3fef9301d0125b51, 0x3fef72b83c7d517b, 0x3fef54873168b9aa,
    0x3fef387a6e756238, 0x3fef1e9df51fdee1, 0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429,
    0x3feea47eb03a5585, 0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74,
    0x3feea11473eb0187, 0x3feea589994cce13, 0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c,
    0x3fef3720dcef9069, 0x3fef5818dcfba487, 0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
};
constexpr std::uint64_t kInvLn2N = 0x40471547652b82fe;
constexpr std::uint64_t kShift = 0x4338000000000000;
constexpr std::uint64_t kExpC0 = 0x3ebc6af84b912394;
constexpr std::uint64_t kExpC1 = 0x3f2ebfce50fac4f3;
constexpr std::uint64_t kExpC2 = 0x3f962e42ff0c52d6;

FEDGPO_LANES __m512d
splatDouble(std::uint64_t bits)
{
    return _mm512_castsi512_pd(
        _mm512_set1_epi64(static_cast<long long>(bits)));
}

/** __expf_fma (e_expf.c built with FMA) on 8 lanes in double. */
FEDGPO_LANES __m256
expf8(__m256 x, const __m512i table[4])
{
    const __m512d xd = _mm512_cvtps_pd(x);
    const __m512d inv = splatDouble(kInvLn2N), shift = splatDouble(kShift);
    // x * 32/ln2 = k + r: k rounded to nearest even in the low mantissa
    // bits of z, r the remainder, both from one exact product.
    const __m512d z = _mm512_fmadd_pd(inv, xd, shift);
    const __m512i ki = _mm512_castpd_si512(z);
    const __m512d r = _mm512_fmsub_pd(inv, xd, _mm512_sub_pd(z, shift));
    // s = 2^(k/32): the table entry for k mod 32 plus k << 47.
    const __m512i lo = _mm512_permutex2var_epi64(table[0], ki, table[1]);
    const __m512i hi = _mm512_permutex2var_epi64(table[2], ki, table[3]);
    const __mmask8 upper = _mm512_test_epi64_mask(ki, _mm512_set1_epi64(16));
    const __m512d s = _mm512_castsi512_pd(
        _mm512_add_epi64(_mm512_mask_blend_epi64(upper, lo, hi),
                         _mm512_slli_epi64(ki, 47)));
    const __m512d p =
        _mm512_fmadd_pd(splatDouble(kExpC0), r, splatDouble(kExpC1));
    const __m512d r2 = _mm512_mul_pd(r, r);
    __m512d y =
        _mm512_fmadd_pd(splatDouble(kExpC2), r, _mm512_set1_pd(1.0));
    y = _mm512_fmadd_pd(p, r2, y);
    return _mm512_cvtpd_ps(_mm512_mul_pd(y, s));
}

__attribute__((target("avx512f"))) void
sigmoidAvx512(const float *in, float *out, std::size_t n)
{
    __m512i table[4];
    for (int q = 0; q < 4; ++q)
        table[q] = _mm512_load_si512(kExp2Table + 8 * q);
    const __m512 one = _mm512_set1_ps(1.0f);
    for (std::size_t i = 0; i < n; i += 16) {
        const __mmask16 m = headMask(n - i);
        const __m512i bits = _mm512_xor_si512(
            _mm512_castps_si512(_mm512_maskz_loadu_ps(m, in + i)),
            splat(0x80000000));
        const __m512 v = _mm512_castsi512_ps(bits); // -in
        const __m256 e_lo = expf8(_mm512_castps512_ps256(v), table);
        const __m256 e_hi = expf8(
            _mm256_castpd_ps(_mm512_extractf64x4_pd(_mm512_castps_pd(v), 1)),
            table);
        __m512 e = _mm512_castpd_ps(_mm512_insertf64x4(
            _mm512_castpd256_pd512(_mm256_castps_pd(e_lo)),
            _mm256_castps_pd(e_hi), 1));
        // __expf_fma leaves its main path where the top 12 bits of |v|
        // pass 0x42a: |v| >= 88, Inf and NaN.
        const __mmask16 special =
            m & ~below(_mm512_and_si512(bits, splat(0x7fffffff)),
                       0x42b00000);
        if (special != 0) {
            alignas(64) float ev[16], vv[16];
            _mm512_store_ps(ev, e);
            _mm512_store_ps(vv, v);
            for (int l = 0; l < 16; ++l)
                if ((special >> l) & 1)
                    ev[l] = std::exp(vv[l]);
            e = _mm512_load_ps(ev);
        }
        _mm512_mask_storeu_ps(out + i, m,
                              _mm512_div_ps(one, _mm512_add_ps(one, e)));
    }
}

#undef FEDGPO_LANES

#endif

} // namespace

void
tanhArray(const float *in, float *out, std::size_t n)
{
#if FEDGPO_X86_SIMD
    if (haveAvx512()) {
        tanhAvx512(in, out, n);
        return;
    }
#endif
    for (std::size_t i = 0; i < n; ++i)
        out[i] = std::tanh(in[i]);
}

void
sigmoidArray(const float *in, float *out, std::size_t n)
{
#if FEDGPO_X86_SIMD
    if (haveAvx512()) {
        sigmoidAvx512(in, out, n);
        return;
    }
#endif
    for (std::size_t i = 0; i < n; ++i)
        out[i] = 1.0f / (1.0f + std::exp(-in[i]));
}

const char *
vmathPath()
{
#if FEDGPO_X86_SIMD
    if (haveAvx512())
        return "avx512";
#endif
    return "libm";
}

} // namespace tensor
} // namespace fedgpo
