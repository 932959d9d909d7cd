/**
 * @file
 * Update-codec benchmark: encode/decode throughput of Identity, Int8
 * quantization, and TopK sparsification on the three model-zoo
 * parameter-vector sizes, plus the modeled end-to-end bytes each codec
 * saves per upload.
 *
 * Throughput is reported in M params/s (host wall time of the simulated
 * encode — this is the Encode-stage cost a sync round pays, so it
 * bounds how much fleet the host can simulate per second).
 *
 * Results are mirrored into BENCH_comm.json (override with -o PATH).
 * --smoke shrinks the measurement window so CI can exercise the full
 * harness in under a second.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "comm/codec.h"
#include "models/zoo.h"
#include "util/rng.h"

namespace {

using namespace fedgpo;

/** Seconds per call over a self-scaling measurement window. */
double
secondsPerCall(const std::function<void()> &op, double min_time)
{
    op(); // warm-up: size buffers, fault-in pages
    std::size_t reps = 1;
    for (;;) {
        const auto t0 = std::chrono::steady_clock::now();
        for (std::size_t r = 0; r < reps; ++r)
            op();
        const std::chrono::duration<double> dt =
            std::chrono::steady_clock::now() - t0;
        if (dt.count() >= min_time || reps >= (1u << 24))
            return dt.count() / static_cast<double>(reps);
        reps *= 2;
    }
}

struct Row
{
    std::string workload;
    std::string codec;
    std::size_t params = 0;
    std::uint64_t raw_bytes = 0;
    std::uint64_t payload_bytes = 0;
    double compression = 0.0;
    double encode_mparams_s = 0.0;
    double decode_mparams_s = 0.0;
};

void
printRow(const Row &r)
{
    std::printf("%-22s %-10s params=%-8zu payload=%-8llu %5.2fx  "
                "enc %8.1f Mp/s  dec %8.1f Mp/s\n",
                r.workload.c_str(), r.codec.c_str(), r.params,
                static_cast<unsigned long long>(r.payload_bytes),
                r.compression, r.encode_mparams_s, r.decode_mparams_s);
    std::fflush(stdout);
}

void
writeJson(const std::vector<Row> &rows, const std::string &path, bool smoke)
{
    std::ofstream out(path);
    out << "{\n  \"schema\": \"fedgpo.comm_bench.v1\",\n"
        << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
        << "  \"results\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        out << "    {\"workload\": \"" << r.workload << "\", \"codec\": \""
            << r.codec << "\", \"params\": " << r.params
            << ", \"raw_bytes\": " << r.raw_bytes
            << ", \"payload_bytes\": " << r.payload_bytes
            << ", \"compression\": " << r.compression
            << ", \"encode_mparams_s\": " << r.encode_mparams_s
            << ", \"decode_mparams_s\": " << r.decode_mparams_s << "}"
            << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string out_path = "BENCH_comm.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else if (std::strcmp(argv[i], "-o") == 0 && i + 1 < argc)
            out_path = argv[++i];
    }
    const double min_time = smoke ? 0.003 : 0.08;

    const models::Workload workloads[] = {
        models::Workload::CnnMnist, models::Workload::LstmShakespeare,
        models::Workload::MobileNetImageNet};

    comm::CommConfig comm_config; // paper-default knobs
    std::vector<Row> rows;
    for (const models::Workload w : workloads) {
        auto model = models::buildModel(w, 7);
        const std::size_t n = model->paramCount();

        // A realistic update delta: small, zero-heavy, sign-mixed.
        std::vector<float> delta(n);
        util::Rng fill(11);
        for (std::size_t i = 0; i < n; ++i) {
            const double u = fill.uniform();
            delta[i] = u < 0.3 ? 0.0f
                               : static_cast<float>((u - 0.65) * 0.02);
        }

        for (std::size_t ci = 0; ci < comm::kNumCodecs; ++ci) {
            const comm::Codec codec = static_cast<comm::Codec>(ci);
            const auto impl = comm::makeCodec(codec, comm_config);
            util::Rng rng(31);
            std::vector<float> residual;
            comm::Encoded enc;
            std::vector<float> back;

            Row row;
            row.workload = models::workloadName(w);
            row.codec = comm::codecName(codec);
            row.params = n;
            row.raw_bytes = static_cast<std::uint64_t>(n) * 4;
            row.payload_bytes = impl->payloadBytes(n);
            row.compression = static_cast<double>(row.raw_bytes) /
                              static_cast<double>(row.payload_bytes);
            const double enc_s = secondsPerCall(
                [&] { impl->encode(delta, residual, rng, enc); },
                min_time);
            const double dec_s = secondsPerCall(
                [&] { impl->decode(enc, back); }, min_time);
            row.encode_mparams_s = static_cast<double>(n) / enc_s / 1e6;
            row.decode_mparams_s = static_cast<double>(n) / dec_s / 1e6;
            printRow(row);
            rows.push_back(row);
        }
    }

    writeJson(rows, out_path, smoke);
    std::printf("\nwrote %s\n", out_path.c_str());
    return 0;
}
