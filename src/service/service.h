#ifndef PCCHECK_SERVICE_SERVICE_H_
#define PCCHECK_SERVICE_SERVICE_H_

/**
 * @file
 * Sharded multi-tenant CheckpointService (docs/SERVICE.md).
 *
 * One service fronts many concurrent simulated training tenants. Each
 * tenant keeps the full PCcheck machinery it would have alone — big
 * tenants get a private slot arena (a RegionStorage window on their
 * shard backend) driven by their own PCcheckCheckpointer — while the
 * expensive substrates are shared:
 *
 *  - one persist writer ThreadPool serves every tenant's engine
 *    (CheckpointerSubstrate);
 *  - each shard's bandwidth is governed by an AdmissionController
 *    (token buckets; over-budget checkpoints become SKIPS, not
 *    stalls) and one BandwidthThrottle that paces every write:
 *    weighted turns with QoS, FIFO without (the no-QoS baseline);
 *  - tiny tenants coalesce into the shard's shared SegmentLog
 *    instead of owning arenas.
 *
 * Storage shards by tenant-id hash (service_shard_of); the layout of
 * every backend is the pure function plan_shard_layout of the config,
 * which is what lets resolve_tenant() recover any tenant id from raw
 * crash images alone — private windows via the RecoveryPlanner's
 * local survey, coalesced tenants via a SegmentSource.
 *
 * Faults: kill_tenant / kill_backend (wired to FaultInjector's
 * kill_tenant= / kill_backend= actions via arm_faults). A dead tenant
 * stops checkpointing and donates its bandwidth share to survivors; a
 * dead backend fails every write on its shard, aborting in-flight
 * checkpoints without touching other shards.
 */

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "concurrent/thread_pool.h"
#include "core/orchestrator.h"
#include "core/recovery_planner.h"
#include "faults/fault.h"
#include "service/qos.h"
#include "service/segment_log.h"
#include "service/segment_source.h"
#include "service/service_config.h"
#include "storage/device.h"
#include "storage/region_storage.h"
#include "trainsim/checkpointer.h"
#include "trainsim/training_state.h"
#include "util/annotations.h"
#include "util/sync.h"
#include "util/throttle.h"

namespace pccheck {

/** Newest durable checkpoint of one tenant, as the service knows it. */
struct TenantWatermark {
    bool valid = false;  ///< false: nothing durable yet
    std::uint64_t counter = 0;
    std::uint64_t iteration = 0;
};

/** Service-wide aggregate counters. */
struct ServiceStats {
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;   ///< admission skips (QoS backpressure)
    /** Writes that queued more than 500 µs behind other writes on
     *  their shard's throttle (both QoS modes). */
    std::uint64_t throttled = 0;
    std::uint64_t requested = 0;  ///< checkpoints reaching the tenants
    std::uint64_t completed = 0;
    std::uint64_t aborted = 0;
    Seconds stall_time = 0;  ///< summed training stall across tenants
    std::uint64_t coalesced_records = 0;
    std::uint64_t segment_seals = 0;
    std::uint64_t segment_recycles = 0;
};

/** Result of statically recovering one tenant from backend images. */
struct TenantRecovery {
    bool found = false;
    RecoveryResult result;
    std::vector<std::uint8_t> image;
    /** Winning source ("slots", "segments"). Static lifetime. */
    const char* source = "";
};

/** Multi-tenant checkpoint host over sharded backends. */
class CheckpointService {
  public:
    /**
     * Build the service and format every backend for its layout.
     * @param config validated service description (checked here)
     * @param backends one device per shard, each at least
     *        plan_shard_layout(config, s).required_bytes large;
     *        borrowed — must outlive the service
     * @param clock time source for QoS pacing and stats
     */
    CheckpointService(const ServiceConfig& config,
                      std::vector<StorageDevice*> backends,
                      const Clock& clock = MonotonicClock::instance());
    ~CheckpointService();

    CheckpointService(const CheckpointService&) = delete;
    CheckpointService& operator=(const CheckpointService&) = delete;

    /**
     * Attach tenant @p id's training state and return its session —
     * a Checkpointer the tenant's training loop drives exactly like a
     * private PCcheckCheckpointer. Owned by the service; valid until
     * destruction. Call once per configured tenant, before traffic.
     */
    Checkpointer* attach_tenant(std::uint64_t id, TrainingState& state);

    /** The session previously attached (nullptr when unknown). */
    Checkpointer* session(std::uint64_t id) const;

    /** Newest durable checkpoint of @p id (live query). */
    TenantWatermark watermark(std::uint64_t id) const;

    /** Stop @p id's checkpoint traffic; survivors inherit its
     *  bandwidth share. In-flight work drains normally. */
    void kill_tenant(std::uint64_t id);

    /** Fail every future write on shard @p shard (dead device). */
    void kill_backend(int shard);

    bool tenant_alive(std::uint64_t id) const;
    bool backend_alive(int shard) const;

    /** Route the injector's kill_tenant= / kill_backend= actions to
     *  this service. @p faults must outlive the service. */
    void arm_faults(FaultInjector& faults);

    /** Drain all sessions (end of run). */
    void finish();

    ServiceStats stats() const;

    int shards() const { return static_cast<int>(shards_.size()); }

    /**
     * Resolve @p tenant to its newest durable checkpoint across the
     * raw backend images (crash images or live media): big tenants
     * via the RecoveryPlanner over their private window (delta replay
     * included), coalesced tenants via a SegmentSource over their
     * shard's segment region. Static — needs no live service, which
     * is how post-crash recovery runs.
     */
    static TenantRecovery resolve_tenant(
        const ServiceConfig& config,
        const std::vector<StorageDevice*>& backends,
        std::uint64_t tenant);

  private:
    class GateStorage;
    class PacedStorage;
    class TenantSession;
    class CoalescedSession;

    struct Shard {
        StorageDevice* backend = nullptr;
        ShardLayout layout;
        /** Alive gate every tenant window and the segment log sit on. */
        std::unique_ptr<GateStorage> gate;
        std::unique_ptr<AdmissionController> admission;
        /** The shard budget: weighted turns with QoS, FIFO without. */
        std::unique_ptr<BandwidthThrottle> channel;
        /** Coalescer; null when no tenant of this shard coalesces. */
        std::unique_ptr<SegmentLog> segments;
    };

    const TenantSpec* spec_of(std::uint64_t id) const;
    /** Pay @p bytes of shard bandwidth at @p weight; counts throttling. */
    void pace(int shard, double weight, Bytes bytes);
    /** Reclaim-gate verdict for a coalesced record (tenant, counter). */
    bool may_reclaim(std::uint64_t tenant, std::uint64_t counter) const;
    void note_durable(std::uint64_t tenant, std::uint64_t counter,
                      std::uint64_t iteration);

    ServiceConfig config_;
    const Clock* clock_;
    std::unique_ptr<ThreadPool> pool_;
    std::vector<Shard> shards_;
    std::map<std::uint64_t, std::unique_ptr<TenantSession>> sessions_;
    /** ServiceStats::throttled; relaxed monitoring counter. */
    Atomic<std::uint64_t> throttled_{0};

    mutable Mutex wm_mu_;
    /** Coalesced tenants' durable watermarks (fed by the segment
     *  log's durable hook; big tenants read their SlotStore live). */
    std::map<std::uint64_t, TenantWatermark> coalesced_wm_
        PCCHECK_GUARDED_BY(wm_mu_);
    /** Tenants killed by fault actions. */
    std::map<std::uint64_t, bool> dead_tenants_
        PCCHECK_GUARDED_BY(wm_mu_);
};

}  // namespace pccheck

#endif  // PCCHECK_SERVICE_SERVICE_H_
