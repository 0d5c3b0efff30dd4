#ifndef PCCHECK_SERVICE_SERVICE_CONFIG_H_
#define PCCHECK_SERVICE_SERVICE_CONFIG_H_

/**
 * @file
 * Multi-tenant CheckpointService configuration (docs/SERVICE.md).
 *
 * A ServiceConfig describes a fleet of simulated training tenants
 * multiplexed onto a set of sharded storage backends:
 *  - every tenant keeps its own PCcheckCheckpointer knobs
 *    (TenantSpec.checkpoint);
 *  - QosConfig governs the shared-bandwidth tier: per-tenant token
 *    buckets for admission plus the weighted turns in which each
 *    shard's bandwidth throttle paces persist work onto its budget;
 *  - CoalescerConfig routes tiny tenants into the shared CRC-framed
 *    segment log instead of a private slot arena.
 *
 * The on-backend layout is a pure function of the config
 * (plan_shard_layout), so a recovery process armed with nothing but
 * the ServiceConfig and the backend devices can resolve any tenant id
 * to its newest durable record.
 */

#include <cstdint>
#include <vector>

#include "core/config.h"
#include "util/bytes.h"
#include "util/validation.h"

namespace pccheck {

/** One simulated training job hosted by the service. */
struct TenantSpec {
    /** Service-wide unique tenant id. */
    std::uint64_t id = 0;
    /** Checkpointable state size m for this tenant. */
    Bytes state_bytes = 64 * kKiB;
    /** QoS weight: share of the shard budget relative to the other
     *  tenants on the shard (buckets + throttle turns scale with it). */
    double weight = 1.0;
    /** Orchestrator knobs, validated for every tenant. A tenant with
     *  a private slot arena uses all of them. A coalesced tenant uses
     *  only concurrent_checkpoints: its N staging buffers, so it keeps
     *  up to N records in flight. */
    PCcheckConfig checkpoint;
};

/** Admission-control + bandwidth-QoS knobs (per backend shard). */
struct QosConfig {
    /**
     * Master switch. Disabled, the service still shares each shard's
     * bandwidth budget, but as a blind FIFO channel: no admission
     * control, no weighted turns — the contention baseline
     * fig_service compares against.
     */
    bool enabled = true;
    /** Aggregate persist bandwidth of one backend shard, bytes/sec. */
    double device_budget_bytes_per_sec = 2.0e9;
    /**
     * Token-bucket capacity per tenant; 0 derives 2x the tenant's
     * state (one checkpoint of burst on top of the steady share).
     */
    Bytes burst_bytes = 0;
    /** Turn size of each shard's bandwidth throttle with QoS on: a
     *  tenant of weight w reserves up to arbiter_quantum x w bytes per
     *  turn. Unused with QoS off, where each write is one FIFO turn. */
    Bytes arbiter_quantum = 64 * kKiB;
};

/** Small-checkpoint coalescer knobs (docs/SERVICE.md §coalescing). */
struct CoalescerConfig {
    /** Tenants with state_bytes <= threshold share segment files
     *  instead of private slot arenas. */
    Bytes threshold_bytes = 64 * kKiB;
    /** Size of one segment file in the per-shard segment region. */
    Bytes segment_bytes = kMiB;
    /** Segments per backend shard (ring; >= 2 so one can seal while
     *  another fills). */
    std::uint32_t segments_per_backend = 8;
};

/** The whole service: tenants, shards, QoS. */
struct ServiceConfig {
    std::vector<TenantSpec> tenants;
    /** Storage backends; tenants hash across them by id. */
    int shards = 1;
    QosConfig qos;
    CoalescerConfig coalescer;
    /** Shared persist writer pool serving every tenant's engine. */
    int writer_threads = 8;
    bool pin_writer_threads = false;

    /** Range + cross-field checks over the service and every nested
     *  tenant/QoS/coalescer config; see util/validation.h. */
    [[nodiscard]] ConfigDiagnostics validate() const;
};

/**
 * Stable tenant → shard routing (splitmix64 of the id). Pure function
 * so recovery re-derives the same placement from config alone; the
 * mapping is part of the on-media contract and must never change for
 * formatted backends.
 */
int service_shard_of(std::uint64_t tenant_id, int shards);

/** True when @p spec rides the coalescer instead of a private arena. */
bool tenant_coalesced(const TenantSpec& spec,
                      const CoalescerConfig& coalescer);

/** One tenant's placement on its shard backend. */
struct TenantPlacement {
    std::uint64_t id = 0;
    bool coalesced = false;
    /** Private slot-arena window (big tenants; 0/0 when coalesced). */
    Bytes window_offset = 0;
    Bytes window_bytes = 0;
};

/** Deterministic layout of one shard backend:
 *  [ big-tenant windows (ascending id) | segment region ]. */
struct ShardLayout {
    int shard = 0;
    std::vector<TenantPlacement> tenants;  ///< tenants on this shard
    Bytes segment_offset = 0;   ///< start of the coalescer region
    Bytes segment_bytes = 0;    ///< coalescer region capacity
    Bytes required_bytes = 0;   ///< minimum backend size
};

/** Compute the layout of @p shard under @p config (validated). */
ShardLayout plan_shard_layout(const ServiceConfig& config, int shard);

}  // namespace pccheck

#endif  // PCCHECK_SERVICE_SERVICE_CONFIG_H_
