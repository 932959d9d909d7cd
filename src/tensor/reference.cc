#include "tensor/reference.h"

#include <cassert>

namespace fedgpo {
namespace tensor {
namespace reference {

namespace {

void
prepareOut(Tensor &c, std::size_t m, std::size_t n)
{
    if (c.ndim() != 2 || c.dim(0) != m || c.dim(1) != n)
        c = Tensor({m, n});
    else
        c.zero();
}

} // namespace

void
matmulRef(const Tensor &a, const Tensor &b, Tensor &c)
{
    assert(a.ndim() == 2 && b.ndim() == 2);
    const std::size_t m = a.dim(0), n = b.dim(1);
    assert(b.dim(0) == a.dim(1));
    prepareOut(c, m, n);
    matmulAccumRef(a, b, c);
}

void
matmulAccumRef(const Tensor &a, const Tensor &b, Tensor &c)
{
    assert(a.ndim() == 2 && b.ndim() == 2 && c.ndim() == 2);
    const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
    assert(b.dim(0) == k && c.dim(0) == m && c.dim(1) == n);
    const float *pa = a.data();
    const float *pb = b.data();
    float *pc = c.data();
    for (std::size_t i = 0; i < m; ++i) {
        const float *arow = pa + i * k;
        float *crow = pc + i * n;
        for (std::size_t p = 0; p < k; ++p) {
            const float av = arow[p];
            const float *brow = pb + p * n;
            for (std::size_t j = 0; j < n; ++j)
                crow[j] += av * brow[j];
        }
    }
}

void
matmulTransARef(const Tensor &a, const Tensor &b, Tensor &c)
{
    assert(a.ndim() == 2 && b.ndim() == 2);
    const std::size_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
    assert(b.dim(0) == k);
    prepareOut(c, m, n);
    const float *pa = a.data();
    const float *pb = b.data();
    float *pc = c.data();
    // C[i][j] = sum_p A[p][i] * B[p][j]; p outer keeps both reads
    // row-contiguous and gives each element an ascending-p chain.
    for (std::size_t p = 0; p < k; ++p) {
        const float *arow = pa + p * m;
        const float *brow = pb + p * n;
        for (std::size_t i = 0; i < m; ++i) {
            const float av = arow[i];
            float *crow = pc + i * n;
            for (std::size_t j = 0; j < n; ++j)
                crow[j] += av * brow[j];
        }
    }
}

void
matmulTransBRef(const Tensor &a, const Tensor &b, Tensor &c)
{
    assert(a.ndim() == 2 && b.ndim() == 2);
    const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
    assert(b.dim(1) == k);
    prepareOut(c, m, n);
    const float *pa = a.data();
    const float *pb = b.data();
    float *pc = c.data();
    for (std::size_t i = 0; i < m; ++i) {
        const float *arow = pa + i * k;
        float *crow = pc + i * n;
        for (std::size_t j = 0; j < n; ++j) {
            const float *brow = pb + j * k;
            float acc = 0.0f;
            for (std::size_t p = 0; p < k; ++p)
                acc += arow[p] * brow[p];
            crow[j] = acc;
        }
    }
}

void
matmulBiasRef(const Tensor &a, const Tensor &b, const Tensor &bias,
              Tensor &c)
{
    assert(bias.ndim() == 1 && bias.dim(0) == b.dim(1));
    matmulRef(a, b, c);
    const std::size_t m = c.dim(0), n = c.dim(1);
    float *pc = c.data();
    const float *pb = bias.data();
    for (std::size_t i = 0; i < m; ++i)
        for (std::size_t j = 0; j < n; ++j)
            pc[i * n + j] += pb[j];
}

void
im2colRef(const Tensor &input, std::size_t k, std::size_t stride,
          std::size_t pad, Tensor &columns)
{
    assert(input.ndim() == 4);
    const std::size_t n = input.dim(0), c = input.dim(1);
    const std::size_t h = input.dim(2), w = input.dim(3);
    const std::size_t oh = (h + 2 * pad - k) / stride + 1;
    const std::size_t ow = (w + 2 * pad - k) / stride + 1;
    const std::size_t rows = n * c * k * k;
    if (columns.ndim() != 2 || columns.dim(0) != rows ||
        columns.dim(1) != oh * ow) {
        columns = Tensor({rows, oh * ow});
    }
    const float *in = input.data();
    float *out = columns.data();
    for (std::size_t plane = 0; plane < n * c; ++plane) {
        const float *src = in + plane * h * w;
        for (std::size_t ky = 0; ky < k; ++ky) {
            for (std::size_t kx = 0; kx < k; ++kx) {
                float *row = out + ((plane * k + ky) * k + kx) * oh * ow;
                for (std::size_t oy = 0; oy < oh; ++oy) {
                    const long iy = static_cast<long>(oy * stride + ky) -
                                    static_cast<long>(pad);
                    for (std::size_t ox = 0; ox < ow; ++ox) {
                        const long ix = static_cast<long>(ox * stride + kx) -
                                        static_cast<long>(pad);
                        row[oy * ow + ox] =
                            (iy < 0 || iy >= static_cast<long>(h) || ix < 0 ||
                             ix >= static_cast<long>(w))
                                ? 0.0f
                                : src[iy * w + ix];
                    }
                }
            }
        }
    }
}

void
col2imRef(const Tensor &columns, std::size_t k, std::size_t stride,
          std::size_t pad, Tensor &input_grad)
{
    assert(input_grad.ndim() == 4);
    const std::size_t n = input_grad.dim(0), c = input_grad.dim(1);
    const std::size_t h = input_grad.dim(2), w = input_grad.dim(3);
    const std::size_t oh = (h + 2 * pad - k) / stride + 1;
    const std::size_t ow = (w + 2 * pad - k) / stride + 1;
    assert(columns.ndim() == 2);
    assert(columns.dim(0) == n * c * k * k && columns.dim(1) == oh * ow);
    input_grad.zero();
    const float *in = columns.data();
    float *out = input_grad.data();
    for (std::size_t plane = 0; plane < n * c; ++plane) {
        float *dst = out + plane * h * w;
        for (std::size_t oy = 0; oy < oh; ++oy) {
            for (std::size_t ox = 0; ox < ow; ++ox) {
                for (std::size_t ky = 0; ky < k; ++ky) {
                    const long iy = static_cast<long>(oy * stride + ky) -
                                    static_cast<long>(pad);
                    for (std::size_t kx = 0; kx < k; ++kx) {
                        const long ix = static_cast<long>(ox * stride + kx) -
                                        static_cast<long>(pad);
                        if (iy < 0 || iy >= static_cast<long>(h) || ix < 0 ||
                            ix >= static_cast<long>(w))
                            continue;
                        const float *row =
                            in + ((plane * k + ky) * k + kx) * oh * ow;
                        dst[iy * w + ix] += row[oy * ow + ox];
                    }
                }
            }
        }
    }
}

void
depthwiseForwardRef(const Tensor &in, const Tensor &weights,
                    const Tensor &bias, std::size_t k, std::size_t stride,
                    std::size_t pad, Tensor &out)
{
    const std::size_t n = in.dim(0), c = in.dim(1);
    const std::size_t in_h = in.dim(2), in_w = in.dim(3);
    const std::size_t oh = (in_h + 2 * pad - k) / stride + 1;
    const std::size_t ow = (in_w + 2 * pad - k) / stride + 1;
    out = Tensor({n, c, oh, ow});
    const float *pi = in.data();
    const float *pw = weights.data();
    const float *pb = bias.data();
    float *po = out.data();
    for (std::size_t img = 0; img < n; ++img) {
        for (std::size_t ch = 0; ch < c; ++ch) {
            const float *x = pi + (img * c + ch) * in_h * in_w;
            const float *f = pw + ch * k * k;
            float *y = po + (img * c + ch) * oh * ow;
            for (std::size_t oy = 0; oy < oh; ++oy) {
                for (std::size_t ox = 0; ox < ow; ++ox) {
                    float acc = pb[ch];
                    for (std::size_t ky = 0; ky < k; ++ky) {
                        const long iy = static_cast<long>(oy * stride + ky) -
                                        static_cast<long>(pad);
                        if (iy < 0 || iy >= static_cast<long>(in_h))
                            continue;
                        for (std::size_t kx = 0; kx < k; ++kx) {
                            const long ix =
                                static_cast<long>(ox * stride + kx) -
                                static_cast<long>(pad);
                            if (ix < 0 || ix >= static_cast<long>(in_w))
                                continue;
                            acc += f[ky * k + kx] * x[iy * in_w + ix];
                        }
                    }
                    y[oy * ow + ox] = acc;
                }
            }
        }
    }
}

void
depthwiseInputGradRef(const Tensor &weights, const Tensor &grad_out,
                      std::size_t k, std::size_t stride, std::size_t pad,
                      Tensor &grad_in)
{
    const std::size_t n = grad_in.dim(0), c = grad_in.dim(1);
    const std::size_t in_h = grad_in.dim(2), in_w = grad_in.dim(3);
    const std::size_t oh = grad_out.dim(2), ow = grad_out.dim(3);
    grad_in.zero();
    const float *pw = weights.data();
    const float *pg = grad_out.data();
    float *pdi = grad_in.data();
    for (std::size_t img = 0; img < n; ++img) {
        for (std::size_t ch = 0; ch < c; ++ch) {
            const float *f = pw + ch * k * k;
            const float *dy = pg + (img * c + ch) * oh * ow;
            float *dx = pdi + (img * c + ch) * in_h * in_w;
            for (std::size_t oy = 0; oy < oh; ++oy) {
                for (std::size_t ox = 0; ox < ow; ++ox) {
                    const float g = dy[oy * ow + ox];
                    for (std::size_t ky = 0; ky < k; ++ky) {
                        const long iy = static_cast<long>(oy * stride + ky) -
                                        static_cast<long>(pad);
                        if (iy < 0 || iy >= static_cast<long>(in_h))
                            continue;
                        for (std::size_t kx = 0; kx < k; ++kx) {
                            const long ix =
                                static_cast<long>(ox * stride + kx) -
                                static_cast<long>(pad);
                            if (ix < 0 || ix >= static_cast<long>(in_w))
                                continue;
                            dx[iy * in_w + ix] += g * f[ky * k + kx];
                        }
                    }
                }
            }
        }
    }
}

void
depthwiseParamGradRef(const Tensor &in, const Tensor &grad_out,
                      std::size_t k, std::size_t stride, std::size_t pad,
                      Tensor &dw, Tensor &db)
{
    const std::size_t n = in.dim(0), c = in.dim(1);
    const std::size_t in_h = in.dim(2), in_w = in.dim(3);
    const std::size_t oh = grad_out.dim(2), ow = grad_out.dim(3);
    const float *pi = in.data();
    const float *pg = grad_out.data();
    float *pdw = dw.data();
    float *pdb = db.data();
    for (std::size_t img = 0; img < n; ++img) {
        for (std::size_t ch = 0; ch < c; ++ch) {
            const float *x = pi + (img * c + ch) * in_h * in_w;
            const float *dy = pg + (img * c + ch) * oh * ow;
            float *df = pdw + ch * k * k;
            for (std::size_t oy = 0; oy < oh; ++oy) {
                for (std::size_t ox = 0; ox < ow; ++ox) {
                    const float g = dy[oy * ow + ox];
                    pdb[ch] += g;
                    for (std::size_t ky = 0; ky < k; ++ky) {
                        const long iy = static_cast<long>(oy * stride + ky) -
                                        static_cast<long>(pad);
                        if (iy < 0 || iy >= static_cast<long>(in_h))
                            continue;
                        for (std::size_t kx = 0; kx < k; ++kx) {
                            const long ix =
                                static_cast<long>(ox * stride + kx) -
                                static_cast<long>(pad);
                            if (ix < 0 || ix >= static_cast<long>(in_w))
                                continue;
                            df[ky * k + kx] += g * x[iy * in_w + ix];
                        }
                    }
                }
            }
        }
    }
}

} // namespace reference
} // namespace tensor
} // namespace fedgpo
