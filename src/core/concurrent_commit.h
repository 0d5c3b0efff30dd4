#ifndef PCCHECK_CORE_CONCURRENT_COMMIT_H_
#define PCCHECK_CORE_CONCURRENT_COMMIT_H_

/**
 * @file
 * The concurrent checkpoint commit protocol — the C++ realization of
 * the paper's Listing 1.
 *
 * A checkpoint's life:
 *   1. begin(): sample the current CHECK_ADDR, take a ticket from the
 *      monotonically increasing global counter (atomic_add, line 5),
 *      and dequeue a free slot (lines 6-11, blocking while all N are
 *      in flight).
 *   2. The caller persists the checkpoint data into the slot (the
 *      persist threads of Listing 1, lines 12-15 — done by
 *      PersistEngine).
 *   3. commit(): CAS loop on CHECK_ADDR (lines 16-34). The winner
 *      durably publishes the new pointer record (BARRIER) and then
 *      recycles the superseded checkpoint's slot; a loser that
 *      observes a newer registered counter recycles its own slot.
 *
 * CHECK_ADDR is a single 64-bit word packing (counter, slot); the full
 * checkpoint descriptor lives in a per-slot side table written before
 * the CAS attempt. This keeps the hot path to one CAS and avoids
 * pointer-reclamation hazards while preserving the algorithm's
 * structure and guarantees:
 *
 *  - at least one fully persisted checkpoint always exists (the
 *    latest durable pointer record always references a slot that is
 *    not in the free queue);
 *  - old checkpoints never overwrite newer ones (CAS legality: a
 *    ticket only replaces a strictly smaller counter, guaranteed
 *    because CHECK_ADDR is sampled before the counter is taken);
 *  - with at most N concurrent writers the protocol is lock-free.
 */

#include <cstdint>
#include <memory>
#include <vector>

#include "core/free_slot_queue.h"
#include "core/slot_store.h"
#include "faults/retry.h"
#include "util/clock.h"
#include "util/parking_lot.h"
#include "util/sync.h"

namespace pccheck {

/** Ticket identifying one in-flight checkpoint. */
struct CheckpointTicket {
    std::uint64_t counter = 0;    ///< ordering ticket (global counter)
    std::uint32_t slot = 0;       ///< slot reserved for the data
    std::uint64_t last_check = 0; ///< packed CHECK_ADDR sampled at begin
};

/** Outcome of a commit() call. */
struct CommitResult {
    bool won = false;            ///< became the latest checkpoint
    /** Winner only: the new pointer record is durable. A winner with
     *  published == false could not persist the record (storage
     *  failure after retries); it rolls the in-memory CHECK_ADDR back
     *  and recycles its slot, so the previously durable checkpoint
     *  remains the recovery target and capacity is not lost. */
    bool published = false;
    std::uint32_t freed_slot = 0;
};

/** Listing-1 commit protocol over a SlotStore. */
class ConcurrentCommit {
  public:
    /**
     * @param store formatted slot arena (slot_count = N + 1)
     * @param queue_kind free-slot queue implementation (ablation)
     * @param clock paces the retry of a transiently full slot enqueue
     */
    explicit ConcurrentCommit(
        SlotStore& store,
        SlotQueueKind queue_kind = SlotQueueKind::kVyukov,
        const Clock& clock = MonotonicClock::instance());

    /**
     * Start a checkpoint: returns a ticket with a fresh counter and a
     * reserved slot. Parks while all N slots are in flight until a
     * commit, abort or restore returns one — this is the training
     * stall of §3.2 when DRAM/storage cannot keep up.
     */
    CheckpointTicket begin();

    /**
     * Non-blocking variant; returns false when no slot is free.
     * The ticket is only valid when true is returned.
     */
    bool try_begin(CheckpointTicket* ticket);

    /**
     * Publish the ticket's checkpoint after its data is durable.
     * Implements Listing 1 lines 16-34.
     *
     * @param data_len valid bytes written into the slot
     * @param iteration training iteration the data represents
     * @param data_crc CRC-32C of the slot data (recovery validation)
     */
    CommitResult commit(const CheckpointTicket& ticket, Bytes data_len,
                        std::uint64_t iteration, std::uint32_t data_crc);

    /**
     * Abort an in-flight ticket: returns the slot to the free queue
     * without publishing. This is the production error path — when the
     * persist engine reports a permanent storage failure (or exhausts
     * its transient retries) the orchestrator aborts the attempt so
     * the slot is recycled instead of leaking, and the previously
     * committed checkpoint remains the recovery target.
     */
    void abort(const CheckpointTicket& ticket);

    /**
     * Return a repaired slot to the free pool. Quarantined slots are
     * withheld from the pool (parked) at construction and when a
     * commit supersedes a quarantined CHECK_ADDR slot (a corrupt slot
     * must not be handed out as scratch while its quarantine marks the
     * payload as the last copy worth repairing); after the scrubber
     * repairs and releases one, this puts it back in service. The slot
     * must be released from quarantine first.
     *
     * Only slots this protocol actually parked are re-admitted: a
     * restore of a slot that is free or owned by an in-flight ticket
     * is a no-op, so a stray release/restore can never enqueue the
     * same slot twice (two commits writing one slot would let a
     * successful commit publish bytes another writer is clobbering).
     */
    void restore_slot(std::uint32_t slot);

    /** Retry schedule for the durable pointer-record publish inside
     *  commit(); jitter is derived from (seed, ticket counter). */
    void set_retry(const RetryPolicy& policy, std::uint64_t seed);

    /** In-memory view of the latest committed checkpoint counter. */
    std::uint64_t latest_counter() const;

    /**
     * In-memory view of the latest committed checkpoint descriptor;
     * std::nullopt before the first commit. Reads the side table
     * without synchronization, so call it from a quiescent point or
     * treat the value as advisory (monitoring / coordination).
     */
    std::optional<CheckpointPointer> latest_pointer() const;

    /**
     * Record that checkpoint @p counter is both durably published
     * locally and replica-quorum-acked — the replication tier's
     * durable-publish watermark. Monotonic max; called by the
     * orchestrator only after ReplicationEngine::await_quorum
     * succeeded and the winner's pointer record is durable, so the
     * watermark never names a counter an un-acked replica would have
     * to serve.
     */
    void note_replicated(std::uint64_t counter);

    /** Newest counter known durable + quorum-acked (0 before any). */
    std::uint64_t replicated_watermark() const
    {
        // relaxed: advisory watermark for recovery assertions and
        // monitoring; no ordering required.
        return replicated_watermark_.load(std::memory_order_relaxed);
    }

    /** Number of checkpoints that won commit so far. */
    std::uint64_t commits_won() const
    {
        // relaxed: monitoring counter, no ordering required.
        return wins_.load(std::memory_order_relaxed);
    }

    /** Number of commits superseded by a newer concurrent one. */
    std::uint64_t commits_superseded() const
    {
        // relaxed: monitoring counter, no ordering required.
        return losses_.load(std::memory_order_relaxed);
    }

    /** Number of tickets aborted without publishing. */
    std::uint64_t commits_aborted() const
    {
        // relaxed: monitoring counter, no ordering required.
        return aborts_.load(std::memory_order_relaxed);
    }

    /** Number of winner publishes that failed after retries. */
    std::uint64_t publish_failures() const
    {
        // relaxed: monitoring counter, no ordering required.
        return publish_failures_.load(std::memory_order_relaxed);
    }

    SlotStore& store() { return *store_; }

  private:
    struct SlotMeta {
        Bytes data_len = 0;
        std::uint64_t iteration = 0;
        std::uint32_t data_crc = 0;
    };

    static constexpr std::uint32_t kNoSlot = 0xFFFF;

    static std::uint64_t pack(std::uint64_t counter, std::uint32_t slot);
    static std::uint64_t counter_of(std::uint64_t packed);
    static std::uint32_t slot_of(std::uint64_t packed);

    /** Return @p slot to the free queue and wake parked begin()s. */
    void recycle(std::uint32_t slot);

    SlotStore* store_;
    const Clock* clock_;
    std::unique_ptr<FreeSlotQueue> free_slots_;
    ParkingLot slot_waiters_;  ///< begin() callers out of free slots
    /** Slot i was withheld from the free pool for quarantine (true
     *  until restore_slot re-admits it). Guards against restoring a
     *  slot the pool never lost. */
    std::vector<Atomic<bool>> parked_;
    Atomic<std::uint64_t> g_counter_{0};
    Atomic<std::uint64_t> check_addr_;  ///< packed (counter, slot)
    std::vector<SlotMeta> meta_;        ///< side table, one per slot
    Atomic<std::uint64_t> wins_{0};
    Atomic<std::uint64_t> losses_{0};
    Atomic<std::uint64_t> aborts_{0};
    Atomic<std::uint64_t> publish_failures_{0};
    Atomic<std::uint64_t> replicated_watermark_{0};
    RetryPolicy retry_;
    std::uint64_t retry_seed_ = 1;
};

}  // namespace pccheck

#endif  // PCCHECK_CORE_CONCURRENT_COMMIT_H_
