#include "tensor/kernel_mode.h"

#include <atomic>
#include <cstdlib>
#include <string>

#include "util/logging.h"

namespace fedgpo {
namespace tensor {

namespace {

/** -1 = not yet resolved from the environment; 0 = default; 1 = fast. */
std::atomic<int> g_fast_math{-1};

int
fastMathFromEnv()
{
    const char *env = std::getenv("FEDGPO_FAST_MATH");
    if (env == nullptr || *env == '\0')
        return 0;
    const std::string v(env);
    if (v == "1" || v == "on" || v == "true")
        return 1;
    if (v == "0" || v == "off" || v == "false")
        return 0;
    util::logWarn("FEDGPO_FAST_MATH: unrecognized value '" + v +
                  "' (want 0|1|on|off|true|false); fast math stays off");
    return 0;
}

} // namespace

bool
fastMath()
{
    int v = g_fast_math.load(std::memory_order_acquire);
    if (v < 0) {
        v = fastMathFromEnv();
        int expected = -1;
        // First resolver wins; a concurrent setFastMath() is preserved.
        g_fast_math.compare_exchange_strong(expected, v,
                                            std::memory_order_acq_rel);
        v = g_fast_math.load(std::memory_order_acquire);
    }
    return v != 0;
}

void
setFastMath(bool on)
{
    g_fast_math.store(on ? 1 : 0, std::memory_order_release);
}

void
resetFastMathFromEnvForTest()
{
    g_fast_math.store(-1, std::memory_order_release);
}

} // namespace tensor
} // namespace fedgpo
