#include "fleet/fleet_config.h"

#include "util/logging.h"

namespace fedgpo {
namespace fleet {

void
validateFleetConfig(const FleetConfig &, std::size_t fleet_size)
{
    if (fleet_size == 0)
        util::fatal("FleetConfig: fleet size must be positive");
}

} // namespace fleet
} // namespace fedgpo
