#include "service/service.h"

#include <algorithm>
#include <utility>

#include "util/check.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/sync.h"

namespace pccheck {

namespace {

/** Queueing past a write's own service time that counts as throttled. */
constexpr Seconds kThrottledQueueDelay = 500e-6;

}  // namespace

/**
 * Alive gate at the bottom of every shard stack: once the backend is
 * "killed" every operation fails permanently, exactly like a revoked
 * NVMe namespace. Decorator — forwards set_observe_hook (lint rule
 * storage-decorator-forwards-hooks).
 */
class CheckpointService::GateStorage final : public StorageDevice {
  public:
    explicit GateStorage(StorageDevice& inner) : inner_(&inner) {}

    void kill()
    {
        // relaxed: a kill only needs to become visible eventually;
        // the racing write it fails (or not) is itself the test's
        // nondeterminism, not a protocol ordering edge.
        alive_.store(false, std::memory_order_relaxed);
    }
    bool alive() const
    {
        // relaxed: monitoring read, see kill().
        return alive_.load(std::memory_order_relaxed);
    }

    Bytes size() const override { return inner_->size(); }
    StorageStatus write(Bytes offset, const void* src, Bytes len) override
    {
        if (!alive()) {
            return StorageStatus::permanent_error("backend dead");
        }
        return inner_->write(offset, src, len);
    }
    StorageStatus read(Bytes offset, void* dst, Bytes len) const override
    {
        if (!alive()) {
            return StorageStatus::permanent_error("backend dead");
        }
        return inner_->read(offset, dst, len);
    }
    StorageStatus persist(Bytes offset, Bytes len) override
    {
        if (!alive()) {
            return StorageStatus::permanent_error("backend dead");
        }
        return inner_->persist(offset, len);
    }
    StorageStatus fence() override
    {
        if (!alive()) {
            return StorageStatus::permanent_error("backend dead");
        }
        return inner_->fence();
    }
    StorageKind kind() const override { return inner_->kind(); }
    void set_observe_hook(
        std::function<void(const StorageOp&)> hook) override
    {
        inner_->set_observe_hook(std::move(hook));
    }

  private:
    StorageDevice* inner_;
    Atomic<bool> alive_{true};
};

/**
 * Bandwidth decorator over one tenant's window: every write pays the
 * shard's bandwidth throttle at the tenant's weight BEFORE reaching
 * the device, so persist traffic of all tenants is scheduled by one
 * mechanism and the backends themselves stay unthrottled. Decorator —
 * forwards set_observe_hook.
 */
class CheckpointService::PacedStorage final : public StorageDevice {
  public:
    PacedStorage(StorageDevice& inner, CheckpointService* service,
                 int shard, double weight)
        : inner_(&inner), service_(service), shard_(shard), weight_(weight)
    {
    }

    Bytes size() const override { return inner_->size(); }
    StorageStatus write(Bytes offset, const void* src, Bytes len) override
    {
        service_->pace(shard_, weight_, len);
        return inner_->write(offset, src, len);
    }
    StorageStatus read(Bytes offset, void* dst, Bytes len) const override
    {
        return inner_->read(offset, dst, len);
    }
    StorageStatus persist(Bytes offset, Bytes len) override
    {
        return inner_->persist(offset, len);
    }
    StorageStatus fence() override { return inner_->fence(); }
    StorageKind kind() const override { return inner_->kind(); }
    void set_observe_hook(
        std::function<void(const StorageOp&)> hook) override
    {
        inner_->set_observe_hook(std::move(hook));
    }

  private:
    StorageDevice* inner_;
    CheckpointService* service_;
    const int shard_;
    const double weight_;
};

/**
 * One big tenant's session: admission in front of a private
 * PCcheckCheckpointer whose arena is a paced window of the shard
 * backend.
 */
class CheckpointService::TenantSession : public Checkpointer {
  public:
    TenantSession(CheckpointService* service, const TenantSpec& spec,
                  int shard)
        : service_(service), spec_(spec), shard_(shard)
    {
    }
    ~TenantSession() override = default;

    std::string name() const override { return "pccheck-service"; }

    void before_update(std::uint64_t iteration) override
    {
        if (inner_) {
            inner_->before_update(iteration);
        }
    }

    void request_checkpoint(std::uint64_t iteration) override
    {
        if (!service_->tenant_alive(spec_.id) ||
            !service_->backend_alive(shard_)) {
            return;
        }
        if (!service_->shards_[shard_].admission->admit(
                spec_.id, spec_.state_bytes)) {
            return;  // over budget: skip, never stall
        }
        inner_->request_checkpoint(iteration);
    }

    void request_delta(std::uint64_t iteration) override
    {
        if (!service_->tenant_alive(spec_.id) ||
            !service_->backend_alive(shard_)) {
            return;
        }
        inner_->request_delta(iteration);
    }

    void finish() override
    {
        if (inner_) {
            inner_->finish();
        }
    }

    CheckpointerStats stats() const override
    {
        return inner_ ? inner_->stats() : CheckpointerStats{};
    }

    /** Two-phase init: the window devices must have stable addresses
     *  before the orchestrator grabs them. */
    void attach(TrainingState& state, StorageDevice& shard_gate,
                const TenantPlacement& placement, ThreadPool* pool,
                const Clock& clock)
    {
        window_ = std::make_unique<RegionStorage>(
            shard_gate, placement.window_offset, placement.window_bytes);
        paced_ = std::make_unique<PacedStorage>(*window_, service_,
                                                shard_, spec_.weight);
        CheckpointerSubstrate substrate;
        substrate.persist_pool = pool;
        inner_ = std::make_unique<PCcheckCheckpointer>(
            state, *paced_, spec_.checkpoint, substrate, clock);
    }

    PCcheckCheckpointer* orchestrator() { return inner_.get(); }

  protected:
    CheckpointService* service_;
    const TenantSpec spec_;
    const int shard_;

  private:
    std::unique_ptr<RegionStorage> window_;
    std::unique_ptr<PacedStorage> paced_;
    std::unique_ptr<PCcheckCheckpointer> inner_;
};

/**
 * One coalesced tenant's session: admission, then a GPU→host snapshot
 * into a free staging buffer, queued as that buffer's record for the
 * shard's SegmentLog flusher. The session owns N =
 * spec.checkpoint.concurrent_checkpoints buffers, each with its own
 * record, allocated here at attach. The training thread waits only
 * while all N records are in flight — PCcheck's bounded backpressure,
 * the same N as a big tenant's slots — and for the copy. The records
 * become durable behind it; finish() drains every one of them.
 */
class CheckpointService::CoalescedSession final : public TenantSession {
  public:
    CoalescedSession(CheckpointService* service, const TenantSpec& spec,
                     int shard, TrainingState& state, const Clock& clock)
        : TenantSession(service, spec, shard),
          state_(&state),
          clock_(&clock),
          staging_(static_cast<std::size_t>(
              spec.checkpoint.concurrent_checkpoints)),
          in_flight_(staging_.size(), false)
    {
        for (std::size_t i = 0; i < staging_.size(); ++i) {
            Staging& staging = staging_[i];
            staging.scratch.resize(state.size());
            staging.record.tenant = spec.id;
            staging.record.data = staging.scratch.data();
            staging.record.data_len = staging.scratch.size();
            staging.record.on_done = [this, i] { on_record_done(i); };
        }
    }

    ~CoalescedSession() override { finish(); }

    std::string name() const override { return "pccheck-coalesced"; }

    void before_update(std::uint64_t) override {}

    void request_checkpoint(std::uint64_t iteration) override
    {
        if (!service_->tenant_alive(spec_.id) ||
            !service_->backend_alive(shard_)) {
            return;
        }
        Shard& shard = service_->shards_[shard_];
        {
            MutexLock lock(mu_);
            ++requested_;
        }
        if (!shard.admission->admit(spec_.id, spec_.state_bytes)) {
            return;  // over budget: skip, never stall
        }
        const Seconds t0 = clock_->now();
        // The flusher hands this tenant's verdicts back in the order
        // it queued the records, so the next buffer in turn holds the
        // oldest: it is free as soon as fewer than N are in flight.
        const std::size_t i = next_;
        next_ = (next_ + 1) % staging_.size();
        {
            MutexLock lock(mu_);
            while (in_flight_[i]) {
                cv_.wait(mu_);
            }
            in_flight_[i] = true;
        }
        Staging& staging = staging_[i];
        staging.request_time = t0;
        state_->gpu().copy_to_host(staging.scratch.data(),
                                   state_->device_ptr(), 0,
                                   staging.scratch.size(),
                                   /*pinned=*/false);
        staging.record.counter = ++counter_;
        staging.record.iteration = iteration;
        const Seconds stall = clock_->now() - t0;
        {
            MutexLock lock(mu_);
            stall_time_ += stall;
        }
        shard.segments->submit(&staging.record);
    }

    void request_delta(std::uint64_t) override {}

    void finish() override
    {
        MutexLock lock(mu_);
        for (std::size_t i = 0; i < in_flight_.size(); ++i) {
            while (in_flight_[i]) {
                cv_.wait(mu_);
            }
        }
    }

    CheckpointerStats stats() const override
    {
        MutexLock lock(mu_);
        CheckpointerStats stats;
        stats.requested = requested_;
        stats.completed = completed_;
        stats.aborted = aborted_;
        stats.stall_time = stall_time_;
        stats.checkpoint_latency = latency_;
        return stats;
    }

  private:
    /** One staging buffer and the record that carries it. Like the
     *  record, it is the flusher's from submit() to the verdict. */
    struct Staging {
        /** The snapshot: the record's payload while in flight. */
        std::vector<std::uint8_t> scratch;
        SegmentRecord record;
        Seconds request_time = 0;
    };

    /** The flusher's verdict on buffer @p i's record (flusher thread). */
    void on_record_done(std::size_t i)
    {
        const Seconds now = clock_->now();
        const Staging& staging = staging_[i];
        MutexLock lock(mu_);
        if (staging.record.result.ok()) {
            ++completed_;
            latency_.add(now - staging.request_time);
        } else {
            ++aborted_;
        }
        in_flight_[i] = false;
        // Notify under the lock: finish(), and the destructor behind
        // it, return as soon as no buffer is in flight.
        cv_.notify_all();
    }

    TrainingState* state_;
    const Clock* clock_;
    /** N buffers, sized once: records point into them while queued. */
    std::vector<Staging> staging_;
    /** Buffer the next request takes (training thread only). */
    std::size_t next_ = 0;
    /** Tenant-monotonic checkpoint counter (training thread only). */
    std::uint64_t counter_ = 0;

    mutable Mutex mu_;
    CondVar cv_;  ///< an in_flight_ flag cleared
    /** Buffer i's record is queued or being flushed. */
    std::vector<bool> in_flight_ PCCHECK_GUARDED_BY(mu_);
    std::uint64_t requested_ PCCHECK_GUARDED_BY(mu_) = 0;
    std::uint64_t completed_ PCCHECK_GUARDED_BY(mu_) = 0;
    std::uint64_t aborted_ PCCHECK_GUARDED_BY(mu_) = 0;
    Seconds stall_time_ PCCHECK_GUARDED_BY(mu_) = 0;
    RunningStat latency_ PCCHECK_GUARDED_BY(mu_);
};

CheckpointService::CheckpointService(const ServiceConfig& config,
                                     std::vector<StorageDevice*> backends,
                                     const Clock& clock)
    : config_(config), clock_(&clock)
{
    config_.validate().check("ServiceConfig");
    PCCHECK_CHECK_MSG(static_cast<int>(backends.size()) == config_.shards,
                      "CheckpointService: one backend per shard");
    pool_ = std::make_unique<ThreadPool>(
        static_cast<std::size_t>(config_.writer_threads),
        config_.pin_writer_threads);

    // The segment log's batches are paced at the summed weight of the
    // shard's coalesced tenants.
    std::vector<double> coalesced_weight(backends.size(), 0.0);
    for (const TenantSpec& spec : config_.tenants) {
        if (tenant_coalesced(spec, config_.coalescer)) {
            coalesced_weight[service_shard_of(spec.id, config_.shards)] +=
                spec.weight;
        }
    }

    shards_.resize(backends.size());
    for (int s = 0; s < config_.shards; ++s) {
        Shard& shard = shards_[s];
        shard.backend = backends[s];
        shard.layout = plan_shard_layout(config_, s);
        PCCHECK_CHECK_MSG(shard.layout.required_bytes <=
                              backends[s]->size(),
                          "CheckpointService: backend too small for its "
                          "shard layout");
        shard.gate = std::make_unique<GateStorage>(*backends[s]);
        shard.admission =
            std::make_unique<AdmissionController>(config_.qos, clock);
        shard.channel = std::make_unique<BandwidthThrottle>(
            config_.qos.device_budget_bytes_per_sec, clock,
            config_.qos.enabled ? config_.qos.arbiter_quantum : 0);
        if (shard.layout.segment_bytes > 0) {
            SegmentLogConfig seg_config;
            seg_config.segment_bytes = config_.coalescer.segment_bytes;
            seg_config.segments = config_.coalescer.segments_per_backend;
            shard.segments = std::make_unique<SegmentLog>(
                *shard.gate, shard.layout.segment_offset, seg_config);
            const StorageStatus formatted = shard.segments->format();
            PCCHECK_CHECK_MSG(formatted.ok(),
                              "service: segment format failed");
            shard.segments->set_reclaim_gate(
                [this](std::uint64_t tenant, std::uint64_t counter) {
                    return may_reclaim(tenant, counter);
                });
            shard.segments->set_durable_hook(
                [this](std::uint64_t tenant, std::uint64_t counter,
                       std::uint64_t iteration) {
                    note_durable(tenant, counter, iteration);
                });
            shard.segments->set_pacer(
                [this, s, weight = coalesced_weight[s]](Bytes bytes) {
                    pace(s, weight, bytes);
                });
        }
    }

    // Register every configured tenant with its shard's admission
    // tier up front: shares are defined by the config, not by attach
    // order.
    for (const TenantSpec& spec : config_.tenants) {
        shards_[service_shard_of(spec.id, config_.shards)]
            .admission->register_tenant(spec.id, spec.weight,
                                        spec.state_bytes);
    }
}

CheckpointService::~CheckpointService()
{
    // Sessions (and their orchestrators' worker threads) die before
    // the shared pool and the shard substrates they write through.
    sessions_.clear();
    shards_.clear();
    pool_.reset();
}

const TenantSpec* CheckpointService::spec_of(std::uint64_t id) const
{
    for (const TenantSpec& spec : config_.tenants) {
        if (spec.id == id) {
            return &spec;
        }
    }
    return nullptr;
}

Checkpointer* CheckpointService::attach_tenant(std::uint64_t id,
                                               TrainingState& state)
{
    const TenantSpec* spec = spec_of(id);
    PCCHECK_CHECK_MSG(spec != nullptr,
                      "attach_tenant: unknown tenant id");
    PCCHECK_CHECK_MSG(sessions_.find(id) == sessions_.end(),
                      "attach_tenant: tenant already attached");
    PCCHECK_CHECK_MSG(state.size() == spec->state_bytes,
                      "attach_tenant: state size does not match spec");
    const int s = service_shard_of(id, config_.shards);
    const Shard& shard = shards_[s];

    std::unique_ptr<TenantSession> session;
    if (tenant_coalesced(*spec, config_.coalescer)) {
        session = std::make_unique<CoalescedSession>(this, *spec, s,
                                                     state, *clock_);
    } else {
        const TenantPlacement* placement = nullptr;
        for (const TenantPlacement& p : shard.layout.tenants) {
            if (p.id == id) {
                placement = &p;
            }
        }
        PCCHECK_CHECK(placement != nullptr);
        session = std::make_unique<TenantSession>(this, *spec, s);
        session->attach(state, *shard.gate, *placement, pool_.get(),
                        *clock_);
    }
    Checkpointer* handle = session.get();
    sessions_[id] = std::move(session);
    return handle;
}

Checkpointer* CheckpointService::session(std::uint64_t id) const
{
    auto it = sessions_.find(id);
    return it == sessions_.end() ? nullptr : it->second.get();
}

TenantWatermark CheckpointService::watermark(std::uint64_t id) const
{
    const TenantSpec* spec = spec_of(id);
    if (spec == nullptr) {
        return {};
    }
    if (tenant_coalesced(*spec, config_.coalescer)) {
        MutexLock lock(wm_mu_);
        auto it = coalesced_wm_.find(id);
        return it == coalesced_wm_.end() ? TenantWatermark{} : it->second;
    }
    auto it = sessions_.find(id);
    if (it == sessions_.end()) {
        return {};
    }
    PCcheckCheckpointer* inner = it->second->orchestrator();
    if (inner == nullptr) {
        return {};
    }
    const std::optional<CheckpointPointer> published =
        inner->slot_store().last_published();
    if (!published) {
        return {};
    }
    TenantWatermark wm;
    wm.valid = true;
    wm.counter = published->counter;
    wm.iteration = published->iteration;
    return wm;
}

void CheckpointService::kill_tenant(std::uint64_t id)
{
    {
        MutexLock lock(wm_mu_);
        dead_tenants_[id] = true;
    }
    const TenantSpec* spec = spec_of(id);
    if (spec != nullptr) {
        // Survivors inherit the dead tenant's bandwidth share.
        shards_[service_shard_of(id, config_.shards)]
            .admission->remove_tenant(id);
    }
    LOG_INFO("service: tenant " << id << " killed");
}

void CheckpointService::kill_backend(int shard)
{
    PCCHECK_CHECK(shard >= 0 &&
                  shard < static_cast<int>(shards_.size()));
    shards_[shard].gate->kill();
    LOG_INFO("service: backend " << shard << " killed");
}

bool CheckpointService::tenant_alive(std::uint64_t id) const
{
    MutexLock lock(wm_mu_);
    auto it = dead_tenants_.find(id);
    return it == dead_tenants_.end() || !it->second;
}

bool CheckpointService::backend_alive(int shard) const
{
    return shard >= 0 && shard < static_cast<int>(shards_.size()) &&
           shards_[shard].gate->alive();
}

void CheckpointService::arm_faults(FaultInjector& faults)
{
    faults.set_kill_tenant_handler(
        [this](std::uint64_t tenant) { kill_tenant(tenant); });
    faults.set_kill_backend_handler([this](std::uint64_t backend) {
        kill_backend(static_cast<int>(backend));
    });
}

void CheckpointService::finish()
{
    for (auto& [id, session] : sessions_) {
        session->finish();
    }
}

void CheckpointService::pace(int shard, double weight, Bytes bytes)
{
    static Counter& throttled_metric =
        MetricsRegistry::global().counter("pccheck.service.throttled");
    BandwidthThrottle& channel = *shards_[shard].channel;
    const Seconds modeled = channel.acquire(bytes, weight);
    // Modeled time minus this write's own service time is the time it
    // queued behind other writes on the shard.
    if (modeled - channel.service_time(bytes) > kThrottledQueueDelay) {
        // relaxed: monitoring counter, no ordering required.
        throttled_.fetch_add(1, std::memory_order_relaxed);
        throttled_metric.add();
    }
}

bool CheckpointService::may_reclaim(std::uint64_t tenant,
                                    std::uint64_t counter) const
{
    MutexLock lock(wm_mu_);
    // Safe only when a strictly newer record is durable elsewhere.
    // This deliberately covers killed tenants too: they donate their
    // bandwidth share, not their storage — the newest durable record
    // stays pinned (it is what a restart of the job recovers from),
    // while every older record recycles as usual.
    auto it = coalesced_wm_.find(tenant);
    return it != coalesced_wm_.end() && it->second.valid &&
           it->second.counter > counter;
}

void CheckpointService::note_durable(std::uint64_t tenant,
                                     std::uint64_t counter,
                                     std::uint64_t iteration)
{
    MutexLock lock(wm_mu_);
    TenantWatermark& wm = coalesced_wm_[tenant];
    if (!wm.valid || counter > wm.counter) {
        wm.valid = true;
        wm.counter = counter;
        wm.iteration = iteration;
    }
}

ServiceStats CheckpointService::stats() const
{
    ServiceStats total;
    // relaxed: monitoring read; staleness is acceptable.
    total.throttled = throttled_.load(std::memory_order_relaxed);
    for (const Shard& shard : shards_) {
        const AdmissionStats admission = shard.admission->totals();
        total.admitted += admission.admitted;
        total.rejected += admission.rejected;
        if (shard.segments) {
            const SegmentLogStats segments = shard.segments->stats();
            total.coalesced_records += segments.records;
            total.segment_seals += segments.seals;
            total.segment_recycles += segments.recycles;
        }
    }
    for (const auto& [id, session] : sessions_) {
        const CheckpointerStats stats = session->stats();
        total.requested += stats.requested;
        total.completed += stats.completed;
        total.aborted += stats.aborted;
        total.stall_time += stats.stall_time;
    }
    return total;
}

TenantRecovery CheckpointService::resolve_tenant(
    const ServiceConfig& config,
    const std::vector<StorageDevice*>& backends, std::uint64_t tenant)
{
    TenantRecovery recovery;
    const TenantSpec* spec = nullptr;
    for (const TenantSpec& candidate : config.tenants) {
        if (candidate.id == tenant) {
            spec = &candidate;
        }
    }
    if (spec == nullptr) {
        return recovery;
    }
    const int s = service_shard_of(tenant, config.shards);
    if (s >= static_cast<int>(backends.size()) ||
        backends[s] == nullptr) {
        return recovery;
    }
    StorageDevice& backend = *backends[s];
    const ShardLayout layout = plan_shard_layout(config, s);

    RecoveryPlanner::Options options;
    options.salvage = false;  // crash images are evidence: read-only
    options.quarantine = false;

    if (tenant_coalesced(*spec, config.coalescer)) {
        SegmentLogConfig seg_config;
        seg_config.segment_bytes = config.coalescer.segment_bytes;
        seg_config.segments = config.coalescer.segments_per_backend;
        SegmentSource source(backend, layout.segment_offset, seg_config,
                             tenant);
        RecoveryPlanner planner(nullptr, options);
        planner.add_source(&source);
        std::vector<std::uint8_t> image;
        const std::optional<PlannedRecovery> planned =
            planner.recover(&image);
        if (planned) {
            recovery.found = true;
            recovery.result = planned->result;
            recovery.image = std::move(image);
            recovery.source = "segments";
        }
        return recovery;
    }

    for (const TenantPlacement& placement : layout.tenants) {
        if (placement.id != tenant) {
            continue;
        }
        RegionStorage window(backend, placement.window_offset,
                             placement.window_bytes);
        RecoveryPlanner planner(&window, options);
        std::vector<std::uint8_t> image;
        const std::optional<PlannedRecovery> planned =
            planner.recover(&image);
        if (planned) {
            recovery.found = true;
            recovery.result = planned->result;
            recovery.image = std::move(image);
            recovery.source = "slots";
        }
        return recovery;
    }
    return recovery;
}

}  // namespace pccheck
