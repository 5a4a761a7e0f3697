#include "service/service_config.hh"

#include "core/env_util.hh"

namespace vpred::service
{

ServiceConfig
ServiceConfig::fromEnv()
{
    ServiceConfig cfg;
    cfg.shards = static_cast<unsigned>(
            envUIntOr("REPRO_SERVICE_SHARDS", cfg.shards, 0, 256));
    return cfg;
}

} // namespace vpred::service
