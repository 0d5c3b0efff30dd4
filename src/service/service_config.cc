#include "service/service_config.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <string>

#include "core/slot_store.h"
#include "util/check.h"

namespace pccheck {
namespace {

/** splitmix64 finalizer: cheap, well-mixed, and frozen forever —
 *  the shard routing below is part of the on-media contract. */
std::uint64_t splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

}  // namespace

int service_shard_of(std::uint64_t tenant_id, int shards)
{
    PCCHECK_CHECK_MSG(shards >= 1, "service_shard_of: shards must be >= 1");
    return static_cast<int>(splitmix64(tenant_id) %
                            static_cast<std::uint64_t>(shards));
}

bool tenant_coalesced(const TenantSpec& spec,
                      const CoalescerConfig& coalescer)
{
    return spec.state_bytes <= coalescer.threshold_bytes;
}

ConfigDiagnostics ServiceConfig::validate() const
{
    ConfigDiagnostics diag;
    if (tenants.empty()) {
        diag.error("tenants", "service needs at least one tenant");
    }
    if (shards < 1) {
        diag.error("shards", "must be >= 1");
    }
    if (writer_threads < 1) {
        diag.error("writer_threads", "must be >= 1");
    }

    // The budget paces the shard throttle in both modes (0 there means
    // unthrottled) and refills the admission buckets with QoS on.
    const double budget = qos.device_budget_bytes_per_sec;
    if (!std::isfinite(budget) || budget < 0) {
        diag.error("qos.device_budget_bytes_per_sec",
                   "must be finite and >= 0");
    } else if (qos.enabled && budget <= 0) {
        diag.error("qos.device_budget_bytes_per_sec",
                   "QoS needs a positive shard bandwidth budget");
    }
    if (qos.arbiter_quantum == 0) {
        diag.error("qos.arbiter_quantum", "must be > 0");
    }

    if (coalescer.segments_per_backend < 2) {
        diag.error("coalescer.segments_per_backend",
                   "ring needs >= 2 segments so one can seal while "
                   "another fills");
    }
    if (coalescer.segment_bytes == 0) {
        diag.error("coalescer.segment_bytes", "must be > 0");
    }

    std::set<std::uint64_t> seen;
    for (std::size_t i = 0; i < tenants.size(); ++i) {
        const TenantSpec& spec = tenants[i];
        const std::string prefix = "tenants[" + std::to_string(i) + "]";
        if (!seen.insert(spec.id).second) {
            diag.error(prefix + ".id",
                       "duplicate tenant id " + std::to_string(spec.id));
        }
        if (spec.state_bytes == 0) {
            diag.error(prefix + ".state_bytes", "must be > 0");
        }
        if (!std::isfinite(spec.weight) || !(spec.weight > 0.0)) {
            diag.error(prefix + ".weight", "must be finite and > 0");
        }
        if (tenant_coalesced(spec, coalescer)) {
            // A coalesced record must fit a segment alongside its
            // header, the dead-tail sentinel, and the seal manifest.
            const Bytes overhead = 4 * 64 + 64;  // headers + one entry
            if (coalescer.segment_bytes > 0 &&
                spec.state_bytes + overhead > coalescer.segment_bytes) {
                diag.error(prefix + ".state_bytes",
                           "coalesced record does not fit one segment "
                           "(raise coalescer.segment_bytes or lower "
                           "coalescer.threshold_bytes)");
            }
        }
        diag.merge(prefix + ".checkpoint", spec.checkpoint.validate());
    }
    return diag;
}

ShardLayout plan_shard_layout(const ServiceConfig& config, int shard)
{
    PCCHECK_CHECK_MSG(shard >= 0 && shard < config.shards,
                  "plan_shard_layout: shard out of range");
    ShardLayout layout;
    layout.shard = shard;
    // Gather this shard's tenants in ascending id order so the layout
    // is independent of the order tenants appear in the config.
    std::vector<const TenantSpec*> mine;
    for (const TenantSpec& spec : config.tenants) {
        if (service_shard_of(spec.id, config.shards) == shard) {
            mine.push_back(&spec);
        }
    }
    std::sort(mine.begin(), mine.end(),
              [](const TenantSpec* a, const TenantSpec* b) {
                  return a->id < b->id;
              });

    Bytes cursor = 0;
    bool any_coalesced = false;
    for (const TenantSpec* spec : mine) {
        TenantPlacement placement;
        placement.id = spec->id;
        placement.coalesced = tenant_coalesced(*spec, config.coalescer);
        if (placement.coalesced) {
            any_coalesced = true;
        } else {
            const PCcheckConfig& ck = spec->checkpoint;
            placement.window_offset = cursor;
            placement.window_bytes = SlotStore::required_size(
                ck.concurrent_checkpoints + 1, spec->state_bytes,
                ck.delta_log_bytes);
            cursor += placement.window_bytes;
        }
        layout.tenants.push_back(placement);
    }
    layout.segment_offset = cursor;
    layout.segment_bytes =
        any_coalesced ? Bytes{config.coalescer.segments_per_backend} *
                            config.coalescer.segment_bytes
                      : 0;
    layout.required_bytes = layout.segment_offset + layout.segment_bytes;
    return layout;
}

}  // namespace pccheck
