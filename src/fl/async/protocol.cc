#include "fl/async/protocol.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "util/logging.h"

namespace fedgpo {
namespace fl {
namespace async {

void
validateAsyncConfig(AsyncConfig &config, std::size_t n_devices)
{
    if (!(config.mix > 0.0 && config.mix <= 1.0))
        util::fatal("AsyncConfig: mix must be in (0, 1], got " +
                    std::to_string(config.mix));
    if (!(config.staleness_exponent > 0.0) &&
        config.staleness != StalenessKind::Constant) {
        util::fatal("AsyncConfig: staleness_exponent must be > 0, got " +
                    std::to_string(config.staleness_exponent));
    }
    if (config.staleness_knee < 0)
        util::fatal("AsyncConfig: staleness_knee must be >= 0, got " +
                    std::to_string(config.staleness_knee));
    if (config.max_staleness < 0)
        util::fatal("AsyncConfig: max_staleness must be >= 0, got " +
                    std::to_string(config.max_staleness));
    if (config.buffer_size <= 0)
        util::fatal("AsyncConfig: buffer_size must be >= 1, got " +
                    std::to_string(config.buffer_size));
    // <= 0 disables the timeout; NaN must not pass for that silently.
    if (!std::isfinite(config.buffer_timeout_s))
        util::fatal("AsyncConfig: buffer_timeout_s must be finite, got " +
                    std::to_string(config.buffer_timeout_s));
    if (config.folds_per_epoch < 0)
        util::fatal("AsyncConfig: folds_per_epoch must be >= 0, got " +
                    std::to_string(config.folds_per_epoch));
    if (n_devices > 0 &&
        static_cast<std::size_t>(config.buffer_size) > n_devices) {
        util::logWarn("AsyncConfig: buffer_size " +
                      std::to_string(config.buffer_size) +
                      " exceeds fleet of " + std::to_string(n_devices) +
                      "; clamping");
        config.buffer_size = static_cast<int>(n_devices);
    }
}

double
stalenessWeight(const AsyncConfig &config, int tau)
{
    tau = std::max(tau, 0);
    switch (config.staleness) {
      case StalenessKind::Constant:
        return 1.0;
      case StalenessKind::Polynomial:
        return std::pow(1.0 + static_cast<double>(tau),
                        -config.staleness_exponent);
      case StalenessKind::Hinge:
        if (tau <= config.staleness_knee)
            return 1.0;
        return 1.0 / (1.0 + config.staleness_exponent *
                                static_cast<double>(
                                    tau - config.staleness_knee));
    }
    return 1.0;
}

} // namespace async
} // namespace fl
} // namespace fedgpo
