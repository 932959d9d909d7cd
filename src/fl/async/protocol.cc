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
    if (config.max_staleness < 0)
        util::fatal("AsyncConfig: max_staleness must be >= 0, got " +
                    std::to_string(config.max_staleness));
    if (config.buffer_size <= 0)
        util::fatal("AsyncConfig: buffer_size must be >= 1, got " +
                    std::to_string(config.buffer_size));
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
stalenessWeight(int tau)
{
    return std::pow(1.0 + static_cast<double>(std::max(tau, 0)), -0.5);
}

} // namespace async
} // namespace fl
} // namespace fedgpo
