#ifndef PCCHECK_CORE_ORCHESTRATOR_H_
#define PCCHECK_CORE_ORCHESTRATOR_H_

/**
 * @file
 * The PCcheck orchestrator (§3.1 "Life of a Checkpoint") — the main
 * public entry point of the library, implementing the Checkpointer
 * interface used by the training loop.
 *
 * Data path per checkpoint:
 *   ① training reaches a checkpoint iteration;
 *   ② a ticket (global counter + free slot from the lock-free queue)
 *     is taken — concurrently with up to N-1 other checkpoints;
 *   ③ the snapshot thread drives the GPU copy engines to stage the
 *     state into pinned DRAM chunk buffers;
 *   ④ the persist engine writes each staged chunk to its slot with p
 *     parallel writer threads; the last writer of the last chunk runs
 *     the Listing-1 commit (CAS on CHECK_ADDR + durable pointer).
 *
 * Training interaction: request_checkpoint() only registers the
 * request; the next before_update() blocks until the GPU→DRAM copy of
 * every registered snapshot has finished (the T→U stall of Fig. 6) —
 * never until persistence completes. Persist backpressure arises only
 * through free-slot (N) and free-chunk (M) exhaustion, which is the
 * throughput-memory tradeoff of §3.2.
 */

#include <cstdint>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "concurrent/mpmc_queue.h"
#include "core/concurrent_commit.h"
#include "core/config.h"
#include "core/persist_engine.h"
#include "core/slot_store.h"
#include "delta/delta_log.h"
#include "delta/dirty_tracker.h"
#include "gpusim/gpu.h"
#include "psan/psan_storage.h"
#include "remote/replication.h"
#include "trainsim/checkpointer.h"
#include "trainsim/training_state.h"
#include "util/annotations.h"
#include "util/parking_lot.h"

namespace pccheck {

/**
 * Shared infrastructure handed down by a multi-tenant host
 * (docs/SERVICE.md). Default-constructed: the orchestrator owns
 * everything itself (the single-tenant behavior).
 */
struct CheckpointerSubstrate {
    /** Shared persist writer pool; nullptr = engine owns its pool.
     *  Must outlive the orchestrator. */
    ThreadPool* persist_pool = nullptr;
};

/** PCcheck's concurrent checkpointing orchestrator. */
class PCcheckCheckpointer final : public Checkpointer {
  public:
    /**
     * Format @p device for the configured N and attach to the
     * training state. All references must outlive the orchestrator.
     *
     * @param state training state to checkpoint (defines m)
     * @param device persistent device; must hold (N+1)·m plus metadata
     * @param config Table 2 knobs
     * @param clock time source for stall accounting
     */
    PCcheckCheckpointer(TrainingState& state, StorageDevice& device,
                        const PCcheckConfig& config,
                        const Clock& clock = MonotonicClock::instance());

    /**
     * Multi-tenant variant: like the primary constructor but drawing
     * shared infrastructure (the persist writer pool) from
     * @p substrate instead of owning per-instance copies — the
     * CheckpointService uses this so 256 tenants share one writer
     * pool instead of spawning 256 of them.
     */
    PCcheckCheckpointer(TrainingState& state, StorageDevice& device,
                        const PCcheckConfig& config,
                        const CheckpointerSubstrate& substrate,
                        const Clock& clock = MonotonicClock::instance());

    ~PCcheckCheckpointer() override;

    std::string name() const override { return "pccheck"; }
    void before_update(std::uint64_t iteration) override;
    void request_checkpoint(std::uint64_t iteration) override;

    /**
     * Incremental checkpoint tier (docs/DELTA_LOG.md): synchronously
     * seal one delta frame holding every chunk dirtied since the last
     * frame. Requires config.delta_log_bytes > 0 (no-op otherwise)
     * and a durable full checkpoint to base the chain on (requests
     * before the first publish are counted as skipped). Runs on the
     * caller's thread — WAL semantics: when this returns, the frame
     * is durable or the request was skipped, never half-appended.
     */
    void request_delta(std::uint64_t iteration) override;

    void finish() override;
    CheckpointerStats stats() const override;

    /** The commit protocol (exposed for tests and tools). */
    ConcurrentCommit& commit_protocol() { return *commit_; }
    SlotStore& slot_store() { return *store_; }
    /** Delta appender; nullptr when the tier is disabled. */
    DeltaLog* delta_log() { return delta_log_.get(); }
    /** Dirty tracker; nullptr when the tier is disabled. */
    DirtyTracker* dirty_tracker() { return tracker_.get(); }

    /**
     * Attach the peer-replication tier (docs/REPLICATION.md). Each
     * staged chunk then streams to the engine's peers concurrently
     * with the local persist, and the commit CAS waits for the
     * engine's write quorum (await_quorum) before publishing the
     * replicated watermark. Call before any checkpoint is requested;
     * the engine must outlive the orchestrator. nullptr detaches.
     * Not used on the direct_to_storage ablation path, which stages
     * nothing in DRAM for the network to read.
     */
    void attach_replication(ReplicationEngine* engine);

    /** DRAM actually allocated for staging buffers (Table 1 audit). */
    Bytes staging_bytes() const { return staging_.size(); }
    /** Device bytes the layout occupies, delta region included
     *  (Table 1 audit). */
    Bytes storage_bytes() const
    {
        return SlotStore::required_size(store_->slot_count(),
                                        store_->slot_size()) +
               store_->delta_bytes();
    }

  private:
    struct Request {
        std::uint64_t iteration = 0;
        Seconds request_time = 0;
        std::uint64_t trace_begin_ns = 0;  ///< lifecycle span anchor
        bool stop = false;
    };

    void snapshot_worker();
    void run_snapshot(const Request& request);
    void note_delta_skipped(std::uint64_t iteration, const char* reason);
    std::uint8_t* acquire_chunk_buffer();
    void release_chunk_buffer(std::uint8_t* buffer);
    void on_checkpoint_complete(std::uint64_t iteration,
                                Seconds request_time);
    void on_checkpoint_aborted(std::uint64_t iteration);

    TrainingState* state_;
    StorageDevice* device_;
    PCcheckConfig config_;
    const Clock* clock_;

    Bytes chunk_bytes_;        ///< effective chunk size (m if unpipelined)
    std::size_t chunk_count_;  ///< staging buffers available (c = M / b)
    Bytes region_offset_ = 0;  ///< shard start within the state (§3.1)
    Bytes region_bytes_ = 0;   ///< shard length (m)

    /** Sanitizer interposed over the caller's device when config.psan
     *  is set (docs/PSAN.md). Declared before store_/delta_log_ so it
     *  outlives everything holding a pointer into it. */
    std::unique_ptr<PsanStorage> psan_device_;
    std::unique_ptr<SlotStore> store_;
    std::unique_ptr<ConcurrentCommit> commit_;
    std::unique_ptr<PersistEngine> engine_;
    /** Optional peer-replication tier (not owned; may be null). */
    ReplicationEngine* replication_ = nullptr;

    /** Incremental tier (null unless config.delta_log_bytes > 0).
     *  request_delta runs on the training thread only; the tracker is
     *  internally synchronized against the snapshot worker. */
    std::unique_ptr<DirtyTracker> tracker_;
    std::unique_ptr<DeltaLog> delta_log_;
    /** Host staging for the dirty chunks of one frame. */
    std::vector<std::uint8_t> delta_scratch_;

    /** Staging arena + free-buffer queue (step ② of Fig. 5). */
    std::vector<std::uint8_t> staging_;
    std::unique_ptr<MpmcBoundedQueue<std::uint8_t*>> free_buffers_;
    ParkingLot buffer_waiters_;  ///< snapshot thread out of buffers

    /** Request queue feeding the snapshot worker. */
    mutable Mutex mu_;
    CondVar request_cv_;   ///< worker wakeups
    CondVar snapshot_cv_;  ///< before_update wakeups
    CondVar complete_cv_;  ///< finish() wakeups
    std::deque<Request> requests_ PCCHECK_GUARDED_BY(mu_);
    /** requested, GPU copy not done */
    std::size_t snapshots_pending_ PCCHECK_GUARDED_BY(mu_) = 0;
    std::uint64_t requested_ PCCHECK_GUARDED_BY(mu_) = 0;
    std::uint64_t completed_ PCCHECK_GUARDED_BY(mu_) = 0;
    /** Attempts abandoned on storage failure (slot recycled). */
    std::uint64_t aborted_ PCCHECK_GUARDED_BY(mu_) = 0;
    Seconds stall_time_ PCCHECK_GUARDED_BY(mu_) = 0;
    RunningStat latency_ PCCHECK_GUARDED_BY(mu_);
    std::uint64_t delta_frames_ PCCHECK_GUARDED_BY(mu_) = 0;
    std::uint64_t delta_bytes_ PCCHECK_GUARDED_BY(mu_) = 0;
    std::uint64_t delta_skipped_ PCCHECK_GUARDED_BY(mu_) = 0;

    std::thread worker_;
};

}  // namespace pccheck

#endif  // PCCHECK_CORE_ORCHESTRATOR_H_
