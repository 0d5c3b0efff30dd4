#ifndef PCCHECK_SERVICE_QOS_H_
#define PCCHECK_SERVICE_QOS_H_

/**
 * @file
 * Admission control for the multi-tenant CheckpointService
 * (docs/SERVICE.md §qos).
 *
 * AdmissionController keeps a token bucket per tenant, refilled at the
 * tenant's weighted share of the shard bandwidth budget. A checkpoint
 * is admitted only if the tenant's bucket covers its whole size;
 * otherwise it is REJECTED and the service converts it into a skipped
 * checkpoint (never a stall — the PCcheck contract that training never
 * blocks extends tenant-wide here). Admitted persist bytes are then
 * paced by the shard's BandwidthThrottle in weighted turns
 * (util/throttle.h).
 *
 * Metrics: pccheck.service.admitted / .rejected.
 */

#include <cstdint>
#include <map>
#include <memory>

#include "service/service_config.h"
#include "service/token_bucket.h"
#include "util/annotations.h"
#include "util/bytes.h"
#include "util/clock.h"

namespace pccheck {

/** Per-tenant admission decision counters. */
struct AdmissionStats {
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;
};

/**
 * Per-shard admission controller. Thread-safe; admit() never blocks.
 */
class AdmissionController {
  public:
    /**
     * @param config QoS knobs (budget, burst); disabled => admit all
     * @param clock time source for the buckets (must outlive this)
     */
    AdmissionController(const QosConfig& config,
                        const Clock& clock = MonotonicClock::instance());

    /**
     * Register a tenant. Every registration rebalances all bucket
     * refill rates to budget * weight / sum(weights) so shares track
     * the live tenant set.
     * @param state_bytes used to derive the burst cap when
     *        config.burst_bytes == 0 (two checkpoints of burst)
     */
    void register_tenant(std::uint64_t tenant, double weight,
                         Bytes state_bytes);

    /** Drop a tenant (killed); survivors inherit its share. */
    void remove_tenant(std::uint64_t tenant);

    /**
     * Should this checkpoint run? True consumes @p bytes of the
     * tenant's budget. False means over budget right now: skip the
     * checkpoint, do not stall. Unregistered tenants are rejected.
     */
    bool admit(std::uint64_t tenant, Bytes bytes);

    /** Decision counters for @p tenant (zeros when unknown). */
    AdmissionStats stats(std::uint64_t tenant) const;

    /** Service-wide totals across all tenants. */
    AdmissionStats totals() const;

  private:
    void rebalance_locked() PCCHECK_REQUIRES(mu_);

    struct Tenant {
        double weight = 1.0;
        std::unique_ptr<TokenBucket> bucket;
        AdmissionStats stats;
    };

    const QosConfig config_;
    const Clock& clock_;
    mutable Mutex mu_;
    std::map<std::uint64_t, Tenant> tenants_ PCCHECK_GUARDED_BY(mu_);
};

}  // namespace pccheck

#endif  // PCCHECK_SERVICE_QOS_H_
