/**
 * @file
 * Throughput benchmark for the tensor kernel layer.
 *
 * Times the GEMMs and the im2col/col2im transforms on the actual shapes
 * the three model-zoo workloads produce (CNN-MNIST, LSTM-Shakespeare,
 * MobileNet-ImageNet at a typical local batch), reporting throughput for
 * three implementations side by side: the bit-exact blocked kernels in
 * tensor/ops.h, the retained naive references in tensor/reference.h (the
 * pre-kernel-layer implementations, so "speedup" is the before/after of
 * the rebuild), and the FEDGPO_FAST_MATH FMA kernels ("fast_speedup" is
 * fast over blocked).
 *
 * Dense and LSTM layers run every matmul* variant on their tensor shapes.
 * Each convolution layer gets the three per-image GEMMs nn::Conv2D runs
 * on a batch: conv_forward (W^T cols), conv_dw (cols g^T, accumulated
 * across the images) and conv_dx (W g, through the transposed filter
 * bank). A conv row reports the per-image m, k, n and the throughput of
 * the whole batch, one call per image; its naive column runs the
 * reference kernel per image. The im2col rows time the tap-major
 * transform of the layers that run one, and the col2im row its adjoint in
 * the one layer that needs an input gradient. The two gate rows time
 * tensor::tanhArray and tensor::sigmoidArray on one LSTM step's [8, 128]
 * gate block against the per-element libm loops they match bit for bit.
 * The depthwise rows time the kernels nn::DepthwiseConv2D runs
 * (tensor/depthwise.h) on the zoo's two depthwise layers at batch 8 and
 * 64: forward, dx, and dW + db together, each against its per-element
 * loop in tensor/reference.h; m is the batch, k the taps and n one
 * image's outputs (c * oh * ow).
 *
 * Both modes are measured in the same process by pinning
 * tensor::setFastMath around each timing window, so the environment
 * cannot skew either column. Every kernel runs on the calling thread in
 * both modes, as it does inside the simulator. GEMM rows report GFLOP/s
 * (`*_gflops`); the transforms move data, so their rows report GB/s
 * (`*_gbps`): the column bytes plus the image bytes, each moved once, per
 * second. The gate and depthwise rows report ns per output element
 * (`*_ns_per_elem`, lower is better), with the kernel in the blocked
 * column and the per-element loop in the reference one; their speedups
 * stay kernel over loop.
 *
 * Each column of a row is the median of several timing windows, and the
 * row's columns take turns window by window, so a host slowdown lands on
 * all of them rather than on one; one window on a shared host swung
 * single rows up to 2.3x between runs.
 *
 * Results are mirrored into BENCH_kernels.json (override with -o PATH),
 * whose header names the widest register tile the blocked column ran
 * (`blocked_tiles`: "avx512", "avx" or "scalar"), the gate kernels' path
 * (`vmath_path`: "avx512" or "libm"), the depthwise kernels' path for
 * 3x3 filters at stride 1 (`depthwise_path`: "avx512" or "plane") and
 * the windows per column (`windows`).
 * --smoke shrinks each window and times one per column so CI can
 * exercise the full harness in a couple of seconds.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "tensor/depthwise.h"
#include "tensor/gemm.h"
#include "tensor/kernel_mode.h"
#include "tensor/ops.h"
#include "tensor/reference.h"
#include "tensor/tensor.h"
#include "tensor/vmath.h"

namespace {

using fedgpo::tensor::Tensor;
namespace ops = fedgpo::tensor;
namespace ref = fedgpo::tensor::reference;

void
fillRandom(Tensor &t, std::mt19937 &gen)
{
    std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
    for (std::size_t i = 0; i < t.numel(); ++i)
        t[i] = dist(gen);
}

/** Seconds per call over one window of `reps` calls. */
double
secondsPerCall(const std::function<void()> &op, std::size_t reps)
{
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < reps; ++r)
        op();
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    return dt.count() / static_cast<double>(reps);
}

/**
 * Calls per timing window of `op`: the count doubles until one window
 * lasts at least `min_time` seconds (long enough to trust).
 */
std::size_t
callsPerWindow(const std::function<void()> &op, double min_time)
{
    op(); // warm-up: size outputs, grow the pack panel, fault-in pages
    std::size_t reps = 1;
    while (secondsPerCall(op, reps) * static_cast<double>(reps) < min_time &&
           reps < (1u << 24))
        reps *= 2;
    return reps;
}

/** Median of `v` (the upper middle for an even count). */
double
median(std::vector<double> v)
{
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
}

struct Row {
    std::string workload;
    std::string layer;
    std::string kernel;
    std::size_t m, k, n;       // logical GEMM dims (k = reduction extent)
    const char *unit = "gflops"; // "gflops", "gbps" or "ns_per_elem"
    double blocked = 0.0;       // in `unit`
    double reference = 0.0;
    double speedup = 0.0;       // blocked over reference
    double fast = 0.0;          // FEDGPO_FAST_MATH=1 kernels
    double fast_speedup = 0.0;  // fast over blocked
};

/** Pin the kernel mode for one timing window; restores on destruction. */
struct FastMathScope {
    explicit FastMathScope(bool on) { fedgpo::tensor::setFastMath(on); }
    ~FastMathScope() { fedgpo::tensor::setFastMath(false); }
};

/** Forward GEMM shape of one dense or recurrent layer: [m, k] x [k, n]. */
struct GemmCase {
    const char *workload;
    const char *layer;
    std::size_t m, k, n;
};

// The zoo's dense and recurrent GEMMs at local batch 8
// (src/models/zoo.cc).
const GemmCase kGemmCases[] = {
    {"cnn_mnist", "dense1", 8, 256, 32},
    {"cnn_mnist", "dense2", 8, 32, 10},
    {"lstm_shakespeare", "lstm_wx", 8, 28, 128},
    {"lstm_shakespeare", "lstm_wh", 8, 32, 128},
    {"lstm_shakespeare", "head", 8, 32, 28},
    {"mobilenet_imagenet", "head", 8, 512, 20},
};

/** One convolution layer on a batch of n images. */
struct ConvCase {
    const char *workload;
    const char *layer;
    std::size_t n, c, out_c, h, w, k, stride, pad;
};

// The zoo's Conv2D layers at local batch 8 (16x16 inputs).
const ConvCase kConvLayers[] = {
    {"cnn_mnist", "conv1_3x3", 8, 1, 8, 16, 16, 3, 1, 1},
    {"cnn_mnist", "conv2_3x3", 8, 8, 16, 8, 8, 3, 1, 1},
    {"mobilenet_imagenet", "stem_3x3", 8, 3, 8, 16, 16, 3, 1, 1},
    {"mobilenet_imagenet", "pw1_1x1", 8, 8, 16, 16, 16, 1, 1, 0},
    {"mobilenet_imagenet", "pw2_1x1", 8, 16, 32, 8, 8, 1, 1, 0},
};

// The layers that run im2col (a 1x1/stride-1/pad-0 layer uses its input
// as its columns).
const ConvCase kIm2colCases[] = {
    {"cnn_mnist", "conv1_3x3", 8, 1, 8, 16, 16, 3, 1, 1},
    {"cnn_mnist", "conv2_3x3", 8, 8, 16, 8, 8, 3, 1, 1},
    {"mobilenet_imagenet", "stem_3x3", 8, 3, 8, 16, 16, 3, 1, 1},
};

// The one layer that runs col2im: conv1 and the stem are first layers,
// which compute no input gradient.
const ConvCase kCol2imCases[] = {
    {"cnn_mnist", "conv2_3x3", 8, 8, 16, 8, 8, 3, 1, 1},
};

// The zoo's depthwise layers at a training step's batch (8) and an
// evaluation batch (64); out_c is c.
const ConvCase kDepthwiseLayers[] = {
    {"mobilenet_imagenet", "dw1_3x3", 8, 8, 8, 16, 16, 3, 1, 1},
    {"mobilenet_imagenet", "dw1_3x3", 64, 8, 8, 16, 16, 3, 1, 1},
    {"mobilenet_imagenet", "dw2_3x3", 8, 16, 16, 8, 8, 3, 1, 1},
    {"mobilenet_imagenet", "dw2_3x3", 64, 16, 16, 8, 8, 3, 1, 1},
};

void
printRow(const Row &r)
{
    const char *label = std::strcmp(r.unit, "gbps") == 0        ? "GB/s"
                        : std::strcmp(r.unit, "ns_per_elem") == 0 ? "ns/el"
                                                                  : "GF/s";
    std::printf("%-20s %-10s %-15s m=%-5zu k=%-4zu n=%-4zu "
                "%8.3f %s  (naive %7.3f)  %5.2fx  fast %8.3f  %5.2fx\n",
                r.workload.c_str(), r.layer.c_str(), r.kernel.c_str(), r.m,
                r.k, r.n, r.blocked, label, r.reference, r.speedup, r.fast,
                r.fast_speedup);
    std::fflush(stdout);
}

/** One timed kernel call and its naive counterpart, with the row's dims. */
struct Variant {
    const char *kernel;
    std::size_t m, k, n;
    std::function<void()> blocked;
    std::function<void()> naive;
};

/** How long and how often each column of a row is timed. */
struct Timing {
    double min_time; // seconds per window, at least
    int windows;     // windows per column; the column reports the median
};

/**
 * Fill r's throughput columns: `work` (GFLOP or GB) per call of `blocked`
 * in each kernel mode, and per call of `naive`. The three columns take
 * turns window by window.
 */
void
measure(Row &r, double work, const std::function<void()> &blocked,
        const std::function<void()> &naive, const Timing &timing)
{
    struct Column {
        const std::function<void()> *op;
        bool fast;
        double *out;
        std::size_t reps = 0;
        std::vector<double> seconds;
    };
    Column columns[] = {{&blocked, false, &r.blocked, 0, {}},
                        {&blocked, true, &r.fast, 0, {}},
                        {&naive, false, &r.reference, 0, {}}};
    for (Column &c : columns) {
        FastMathScope mode(c.fast);
        c.reps = callsPerWindow(*c.op, timing.min_time);
    }
    for (int w = 0; w < timing.windows; ++w) {
        for (Column &c : columns) {
            FastMathScope mode(c.fast);
            c.seconds.push_back(secondsPerCall(*c.op, c.reps));
        }
    }
    for (Column &c : columns)
        *c.out = work / median(c.seconds);
    r.speedup = r.blocked / r.reference;
    r.fast_speedup = r.fast / r.blocked;
}

/** Time each variant of one layer into its own row. */
void
addRows(const char *workload, const char *layer, std::size_t batch,
        const std::vector<Variant> &variants, const Timing &timing,
        std::vector<Row> &rows)
{
    for (const auto &v : variants) {
        Row r;
        r.workload = workload;
        r.layer = layer;
        r.kernel = v.kernel;
        r.m = v.m;
        r.k = v.k;
        r.n = v.n;
        measure(r, 2.0 * batch * v.m * v.k * v.n / 1e9, v.blocked, v.naive,
                timing);
        printRow(r);
        rows.push_back(r);
    }
}

/**
 * Time one im2col or col2im call of `cc` into a row. Pure data movement:
 * the throughput is the column matrix plus the image, each moved once, in
 * GB/s. It takes no FMA path; the fast column re-times it anyway so every
 * column is populated (the honest answer hovers around 1.0x).
 */
void
addTransformRow(const ConvCase &cc, const char *kernel,
                const std::function<void()> &blocked,
                const std::function<void()> &naive, const Timing &timing,
                std::vector<Row> &rows)
{
    Row r;
    r.workload = cc.workload;
    r.layer = cc.layer;
    r.kernel = kernel;
    r.unit = "gbps";
    // The tap-major columns: one row per (image, channel, tap).
    r.m = cc.n * cc.c * cc.k * cc.k;
    r.k = 1;
    r.n = ops::convOutExtent(cc.h, cc.k, cc.stride, cc.pad) *
          ops::convOutExtent(cc.w, cc.k, cc.stride, cc.pad);
    const double floats = static_cast<double>(r.m) * r.n +
                          static_cast<double>(cc.n * cc.c * cc.h * cc.w);
    measure(r, floats * sizeof(float) / 1e9, blocked, naive, timing);
    printRow(r);
    rows.push_back(r);
}

/**
 * Time a kernel that writes m * n elements into a row: `kernel_op` in the
 * blocked column and `ref_op` in the reference one, in ns per element.
 * These kernels have no fast mode; the fast column re-times `kernel_op`
 * so every column is populated.
 */
void
addElementRow(const char *workload, const char *layer, const char *kernel,
              std::size_t m, std::size_t k, std::size_t n,
              const std::function<void()> &kernel_op,
              const std::function<void()> &ref_op, const Timing &timing,
              std::vector<Row> &rows)
{
    Row r;
    r.workload = workload;
    r.layer = layer;
    r.kernel = kernel;
    r.unit = "ns_per_elem";
    r.m = m;
    r.k = k;
    r.n = n;
    // Elements per ns, inverted: the speedups keep their direction.
    measure(r, static_cast<double>(r.m * r.n) * 1e-9, kernel_op, ref_op,
            timing);
    r.blocked = 1.0 / r.blocked;
    r.reference = 1.0 / r.reference;
    r.fast = 1.0 / r.fast;
    printRow(r);
    rows.push_back(r);
}

void
writeJson(const std::vector<Row> &rows, const std::string &path, bool smoke,
          int windows)
{
    std::ofstream out(path);
    out << "{\n  \"schema\": \"fedgpo.kernel_bench.v6\",\n"
        << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
        << "  \"windows\": " << windows << ",\n"
        << "  \"fast_math_available\": "
        << (fedgpo::tensor::fast::available() ? "true" : "false") << ",\n"
        << "  \"blocked_tiles\": \"" << fedgpo::tensor::blocked::tileClass()
        << "\",\n"
        << "  \"vmath_path\": \"" << fedgpo::tensor::vmathPath() << "\",\n"
        << "  \"depthwise_path\": \"" << fedgpo::tensor::depthwisePath()
        << "\",\n"
        << "  \"batch\": 8,\n  \"results\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        out << "    {\"workload\": \"" << r.workload << "\", \"layer\": \""
            << r.layer << "\", \"kernel\": \"" << r.kernel
            << "\", \"m\": " << r.m << ", \"k\": " << r.k
            << ", \"n\": " << r.n << ", \"blocked_" << r.unit
            << "\": " << r.blocked << ", \"reference_" << r.unit
            << "\": " << r.reference << ", \"speedup\": " << r.speedup
            << ", \"fast_" << r.unit << "\": " << r.fast
            << ", \"fast_speedup\": " << r.fast_speedup << "}"
            << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string out_path = "BENCH_kernels.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else if (std::strcmp(argv[i], "-o") == 0 && i + 1 < argc)
            out_path = argv[++i];
    }
    const Timing timing = smoke ? Timing{0.003, 1} : Timing{0.08, 5};

    // Both kernel modes are timed explicitly below; start from the
    // bit-exact default regardless of the process environment.
    fedgpo::tensor::setFastMath(false);

    std::mt19937 gen(20260806);
    std::vector<Row> rows;

    for (const auto &gc : kGemmCases) {
        // Operands for every variant of this layer's GEMM. The transposed
        // variants are the layer's actual backward GEMMs: dW reduces over
        // the batch-rows (transA), dX reduces over the output features
        // (transB).
        Tensor a({gc.m, gc.k}), b({gc.k, gc.n}), bias({gc.n});
        // dy is the upstream gradient of the layer's output: the transA
        // variant reduces a^T dy over the batch-rows, so its right-hand
        // operand has gc.m rows, not gc.k.
        Tensor dy({gc.m, gc.n}), bt({gc.n, gc.k});
        Tensor acc({gc.m, gc.n});
        fillRandom(a, gen);
        fillRandom(b, gen);
        fillRandom(bias, gen);
        fillRandom(dy, gen);
        fillRandom(bt, gen);
        fillRandom(acc, gen);
        Tensor c;
        addRows(gc.workload, gc.layer, 1,
                {{"matmul", gc.m, gc.k, gc.n,
                  [&] { ops::matmul(a, b, c); },
                  [&] { ref::matmulRef(a, b, c); }},
                 {"matmul_bias", gc.m, gc.k, gc.n,
                  [&] { ops::matmulBias(a, b, bias, c); },
                  [&] { ref::matmulBiasRef(a, b, bias, c); }},
                 {"matmul_accum", gc.m, gc.k, gc.n,
                  [&] { ops::matmulAccum(a, b, acc); },
                  [&] { ref::matmulAccumRef(a, b, acc); }},
                 {"matmul_trans_a", gc.k, gc.m, gc.n,
                  [&] { ops::matmulTransA(a, dy, c); },
                  [&] { ref::matmulTransARef(a, dy, c); }},
                 {"matmul_trans_b", gc.m, gc.n, gc.k,
                  [&] { ops::matmulTransB(a, bt, c); },
                  [&] { ref::matmulTransBRef(a, bt, c); }}},
                timing, rows);
    }

    for (const auto &cc : kConvLayers) {
        const std::size_t taps = cc.c * cc.k * cc.k;
        const std::size_t spatial =
            ops::convOutExtent(cc.h, cc.k, cc.stride, cc.pad) *
            ops::convOutExtent(cc.w, cc.k, cc.stride, cc.pad);
        // The batch's blocks as Conv2D holds them: the filter bank W and
        // its transpose, every image's [taps, spatial] columns and
        // [out_c, spatial] output gradient, and the GEMM results.
        Tensor w({taps, cc.out_c}), wt({cc.out_c, taps});
        Tensor cols({cc.n * taps, spatial}), dy({cc.n * cc.out_c, spatial});
        Tensor out({cc.n * cc.out_c, spatial}), dw({taps, cc.out_c});
        Tensor dcols({cc.n * taps, spatial});
        fillRandom(w, gen);
        fillRandom(wt, gen);
        fillRandom(cols, gen);
        fillRandom(dy, gen);
        // The same blocks as separate tensors for the naive kernels.
        std::vector<Tensor> cols_img, dy_img;
        for (std::size_t img = 0; img < cc.n; ++img) {
            cols_img.emplace_back(
                fedgpo::tensor::Shape{taps, spatial},
                std::vector<float>(cols.data() + img * taps * spatial,
                                   cols.data() + (img + 1) * taps * spatial));
            dy_img.emplace_back(
                fedgpo::tensor::Shape{cc.out_c, spatial},
                std::vector<float>(dy.data() + img * cc.out_c * spatial,
                                   dy.data() +
                                       (img + 1) * cc.out_c * spatial));
        }
        auto col = [&](std::size_t img) {
            return cols.data() + img * taps * spatial;
        };
        auto grad = [&](std::size_t img) {
            return dy.data() + img * cc.out_c * spatial;
        };
        Tensor c;
        addRows(cc.workload, cc.layer, cc.n,
                {{"conv_forward", cc.out_c, taps, spatial,
                  [&] {
                      out.zero();
                      for (std::size_t img = 0; img < cc.n; ++img)
                          ops::gemmTransA(w.data(), cc.out_c, col(img),
                                          spatial,
                                          out.data() + img * cc.out_c * spatial,
                                          spatial, cc.out_c, spatial, taps);
                  },
                  [&] {
                      for (std::size_t img = 0; img < cc.n; ++img)
                          ref::matmulTransARef(w, cols_img[img], c);
                  }},
                 {"conv_dw", taps, spatial, cc.out_c,
                  [&] {
                      dw.zero();
                      for (std::size_t img = 0; img < cc.n; ++img)
                          ops::gemm(col(img), spatial, grad(img), spatial,
                                    /*trans_b=*/true, dw.data(), cc.out_c,
                                    taps, cc.out_c, spatial,
                                    /*accumulate=*/true);
                  },
                  [&] {
                      for (std::size_t img = 0; img < cc.n; ++img)
                          ref::matmulTransBRef(cols_img[img], dy_img[img], c);
                  }},
                 {"conv_dx", taps, cc.out_c, spatial,
                  [&] {
                      dcols.zero();
                      for (std::size_t img = 0; img < cc.n; ++img)
                          ops::gemmTransA(wt.data(), taps, grad(img), spatial,
                                          dcols.data() + img * taps * spatial,
                                          spatial, taps, spatial, cc.out_c);
                  },
                  [&] {
                      for (std::size_t img = 0; img < cc.n; ++img)
                          ref::matmulRef(w, dy_img[img], c);
                  }}},
                timing, rows);
    }

    for (const auto &cc : kIm2colCases) {
        Tensor in({cc.n, cc.c, cc.h, cc.w});
        fillRandom(in, gen);
        Tensor cols;
        addTransformRow(
            cc, "im2col",
            [&] { ops::im2col(in, cc.k, cc.stride, cc.pad, cols); },
            [&] { ref::im2colRef(in, cc.k, cc.stride, cc.pad, cols); },
            timing, rows);
    }

    for (const auto &cc : kCol2imCases) {
        Tensor cols({cc.n * cc.c * cc.k * cc.k,
                     ops::convOutExtent(cc.h, cc.k, cc.stride, cc.pad) *
                         ops::convOutExtent(cc.w, cc.k, cc.stride, cc.pad)});
        fillRandom(cols, gen);
        Tensor grad({cc.n, cc.c, cc.h, cc.w});
        addTransformRow(
            cc, "col2im",
            [&] { ops::col2im(cols, cc.k, cc.stride, cc.pad, grad); },
            [&] { ref::col2imRef(cols, cc.k, cc.stride, cc.pad, grad); },
            timing, rows);
    }

    {
        // Pre-activations spread over [-4, 4), across tanhf's |x| = 1
        // branch.
        Tensor pre({8, 128}), act({8, 128});
        fillRandom(pre, gen);
        pre *= 4.0f;
        const float *in = pre.data();
        float *out = act.data();
        const std::size_t n = pre.numel();
        addElementRow(
            "lstm_shakespeare", "gates", "tanh", 8, 1, 128,
            [&] { ops::tanhArray(in, out, n); },
            [&] {
                for (std::size_t i = 0; i < n; ++i)
                    out[i] = std::tanh(in[i]);
            },
            timing, rows);
        addElementRow(
            "lstm_shakespeare", "gates", "sigmoid", 8, 1, 128,
            [&] { ops::sigmoidArray(in, out, n); },
            [&] {
                for (std::size_t i = 0; i < n; ++i)
                    out[i] = 1.0f / (1.0f + std::exp(-in[i]));
            },
            timing, rows);
    }

    for (const auto &cc : kDepthwiseLayers) {
        const ops::DepthwiseShape shape{cc.n,   cc.c,      cc.h,  cc.w,
                                        cc.k,   cc.stride, cc.pad};
        const std::size_t oh = ops::convOutExtent(cc.h, cc.k, cc.stride,
                                                  cc.pad);
        const std::size_t ow = ops::convOutExtent(cc.w, cc.k, cc.stride,
                                                  cc.pad);
        Tensor x({cc.n, cc.c, cc.h, cc.w}), dy({cc.n, cc.c, oh, ow});
        Tensor w({cc.c, cc.k, cc.k}), bias({cc.c});
        fillRandom(x, gen);
        fillRandom(dy, gen);
        fillRandom(w, gen);
        fillRandom(bias, gen);
        Tensor y(dy.shape()), dx(x.shape()), dw(w.shape()), db(bias.shape());
        Tensor x_panel, dy_panel;
        const std::size_t taps = cc.k * cc.k, plane = cc.c * oh * ow;
        addElementRow(
            cc.workload, cc.layer, "depthwise_forward", cc.n, taps, plane,
            [&] {
                ops::depthwiseForward(shape, x.data(), w.data(), bias.data(),
                                      y.data());
            },
            [&] {
                ref::depthwiseForwardRef(x, w, bias, cc.k, cc.stride, cc.pad,
                                         y);
            },
            timing, rows);
        addElementRow(
            cc.workload, cc.layer, "depthwise_dx", cc.n, taps, plane,
            [&] {
                ops::depthwiseInputGrad(shape, dy.data(), w.data(),
                                        dx.data());
            },
            [&] {
                ref::depthwiseInputGradRef(w, dy, cc.k, cc.stride, cc.pad,
                                           dx);
            },
            timing, rows);
        addElementRow(
            cc.workload, cc.layer, "depthwise_dw", cc.n, taps, plane,
            [&] {
                ops::depthwiseParamGrad(shape, x.data(), dy.data(), dw.data(),
                                        db.data(), x_panel, dy_panel);
            },
            [&] {
                ref::depthwiseParamGradRef(x, dy, cc.k, cc.stride, cc.pad, dw,
                                           db);
            },
            timing, rows);
    }

    writeJson(rows, out_path, smoke, timing.windows);
    std::printf("wrote %s (%zu rows)\n", out_path.c_str(), rows.size());
    return 0;
}
