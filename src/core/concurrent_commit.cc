#include "core/concurrent_commit.h"

#include "obs/stage.h"
#include "psan/psan_storage.h"
#include "util/check.h"
#include "util/metrics.h"

namespace pccheck {
namespace {

/** Backoff between retries of a transiently full slot enqueue. */
constexpr Seconds kSlotBackoff = 20e-6;

}  // namespace

std::uint64_t
ConcurrentCommit::pack(std::uint64_t counter, std::uint32_t slot)
{
    PCCHECK_CHECK(counter < (1ULL << 48));
    return (counter << 16) | (slot & 0xFFFF);
}

std::uint64_t
ConcurrentCommit::counter_of(std::uint64_t packed)
{
    return packed >> 16;
}

std::uint32_t
ConcurrentCommit::slot_of(std::uint64_t packed)
{
    return static_cast<std::uint32_t>(packed & 0xFFFF);
}

ConcurrentCommit::ConcurrentCommit(SlotStore& store,
                                   SlotQueueKind queue_kind,
                                   const Clock& clock)
    : store_(&store), clock_(&clock),
      free_slots_(make_slot_queue(queue_kind, store.slot_count())),
      parked_(store.slot_count()), check_addr_(pack(0, kNoSlot)),
      meta_(store.slot_count())
{
    PCCHECK_CHECK(store.slot_count() < kNoSlot);
    // If the device already holds a checkpoint (reopen after crash),
    // adopt it as the current CHECK_ADDR and keep its slot reserved.
    const auto recovered = store.recover_pointer(/*validate_data=*/true);
    std::uint32_t reserved = kNoSlot;
    if (recovered.has_value()) {
        // pre-concurrency: constructor recovery path — no other thread
        // can observe CHECK_ADDR yet, so a plain store (not the CAS
        // the commit protocol mandates) is safe here and only here.
        // relaxed: same reason; handoff of `this` publishes the value.
        check_addr_.store(pack(recovered->counter, recovered->slot),
                          std::memory_order_relaxed);
        // relaxed: constructor, no concurrent access yet.
        g_counter_.store(recovered->counter, std::memory_order_relaxed);
        meta_[recovered->slot] = {recovered->data_len, recovered->iteration,
                                  recovered->data_crc};
        reserved = recovered->slot;
    }
    for (std::uint32_t slot = 0; slot < store.slot_count(); ++slot) {
        if (slot == reserved) {
            continue;
        }
        // Quarantined slots stay out of the pool (parked): handing one
        // out as scratch would overwrite the corrupt-but-repairable
        // payload the quarantine is preserving. restore_slot()
        // re-admits them once the scrubber has repaired and released
        // the quarantine.
        if (store.is_quarantined(slot)) {
            // relaxed: constructor, no concurrent access yet.
            parked_[slot].store(true, std::memory_order_relaxed);
            continue;
        }
        PCCHECK_CHECK(free_slots_->try_enqueue(slot));
    }
}

CheckpointTicket
ConcurrentCommit::begin()
{
    CheckpointTicket ticket;
    // Listing 1 line 3: sample CHECK_ADDR before taking the counter so
    // the later CAS attempt is legal (our counter is strictly larger
    // than the sampled one).
    ticket.last_check = check_addr_.load(std::memory_order_acquire);
    ticket.counter =
        g_counter_.fetch_add(1, std::memory_order_acq_rel) + 1;
    // Lines 8-11: wait for a free slot.
    static LatencyHistogram& wait_hist =
        MetricsRegistry::global().histogram("pccheck.stage.slot_wait");
    StageSpan span("commit.slot_wait", wait_hist, "counter",
                   ticket.counter);
    ticket.slot =
        slot_waiters_.take([this] { return free_slots_->try_dequeue(); });
    return ticket;
}

bool
ConcurrentCommit::try_begin(CheckpointTicket* ticket)
{
    const std::uint64_t last =
        check_addr_.load(std::memory_order_acquire);
    const auto slot = free_slots_->try_dequeue();
    if (!slot.has_value()) {
        return false;
    }
    ticket->last_check = last;
    ticket->counter =
        g_counter_.fetch_add(1, std::memory_order_acq_rel) + 1;
    ticket->slot = *slot;
    return true;
}

CommitResult
ConcurrentCommit::commit(const CheckpointTicket& ticket, Bytes data_len,
                         std::uint64_t iteration, std::uint32_t data_crc)
{
    static LatencyHistogram& commit_hist =
        MetricsRegistry::global().histogram("pccheck.stage.commit");
    StageSpan span("commit.cas", commit_hist, "counter",
                   ticket.counter, "slot", ticket.slot);
    // Side-table entry is owned exclusively by this ticket until the
    // slot is recycled; the CAS below publishes it.
    meta_[ticket.slot] = {data_len, iteration, data_crc};
    const std::uint64_t mine = pack(ticket.counter, ticket.slot);
    std::uint64_t expected = ticket.last_check;

    CommitResult result;
    for (;;) {
        if (check_addr_.compare_exchange_strong(
                expected, mine, std::memory_order_acq_rel)) {
            // Lines 22-25: winner — durably publish the new pointer
            // (BARRIER), then recycle the superseded slot. Publishing
            // before recycling is what keeps the latest durable record
            // pointing at intact data. Transient record-write failures
            // retry with deterministic backoff.
            const Backoff backoff(retry_, retry_seed_ ^ ticket.counter);
            const StorageStatus published = retry_storage_op(
                [this, &ticket, data_len, iteration, data_crc] {
                    return store_->publish_pointer(CheckpointPointer{
                        ticket.counter, ticket.slot, data_len, iteration,
                        data_crc});
                },
                backoff);
            const std::uint32_t old_slot = slot_of(expected);
            if (published.ok()) {
                if (old_slot != kNoSlot &&
                    store_->is_quarantined(old_slot)) {
                    // The scrubber quarantined the superseded slot
                    // while it was still the recovery target. It must
                    // not re-enter the pool — handing it out as
                    // scratch would let a fresh checkpoint publish
                    // into a slot recovery skips. It stays parked
                    // until the scrubber reclaims it (release +
                    // restore_slot).
                    parked_[old_slot].store(true,
                                            std::memory_order_release);
                    // The scrubber may have released the quarantine
                    // (and no-op'd its restore) between our check and
                    // the park — re-admit instead of leaking the slot.
                    if (!store_->is_quarantined(old_slot) &&
                        parked_[old_slot].exchange(
                            false, std::memory_order_acq_rel)) {
                        recycle(old_slot);
                        result.freed_slot = old_slot;
                    }
                } else if (old_slot != kNoSlot) {
                    recycle(old_slot);
                    result.freed_slot = old_slot;
                }
                result.published = true;
            } else {
                // The durable record still references old_slot, so it
                // must NOT be recycled — overwriting it would destroy
                // the only fully persisted checkpoint. Roll the
                // in-memory CHECK_ADDR back instead and recycle OUR
                // slot: an unpublished winner that kept slots pinned
                // would drain the free-slot pool under a dead record
                // store and park begin() forever (the node-loss sweep
                // hit exactly that). If a newer winner already CASed
                // past us the rollback fails and that winner owns our
                // slot — it frees it on its durable publish, or rolls
                // back to us and at most one slot stays parked until
                // storage heals.
                std::uint64_t still_mine = mine;
                if (check_addr_.compare_exchange_strong(
                        still_mine, expected,
                        std::memory_order_acq_rel)) {
                    recycle(ticket.slot);
                    result.freed_slot = ticket.slot;
                }
                // relaxed: monitoring counter, no ordering required.
                publish_failures_.fetch_add(1,
                                            std::memory_order_relaxed);
            }
            // relaxed: monitoring counter, no ordering required.
            wins_.fetch_add(1, std::memory_order_relaxed);
            result.won = true;
            return result;
        }
        // CAS failed; `expected` now holds the current CHECK_ADDR.
        if (counter_of(expected) < ticket.counter) {
            // Lines 26-28: the registered checkpoint is older than
            // ours — retry against it.
            continue;
        }
        // Lines 29-31: a more recent checkpoint is already registered
        // (and its publisher persists it); our data is superseded, so
        // recycle our own slot.
        recycle(ticket.slot);
        // relaxed: monitoring counter, no ordering required.
        losses_.fetch_add(1, std::memory_order_relaxed);
        result.freed_slot = ticket.slot;
        return result;
    }
}

void
ConcurrentCommit::abort(const CheckpointTicket& ticket)
{
    recycle(ticket.slot);
    // relaxed: monitoring counter, no ordering required.
    aborts_.fetch_add(1, std::memory_order_relaxed);
}

void
ConcurrentCommit::restore_slot(std::uint32_t slot)
{
    PCCHECK_CHECK(slot < store_->slot_count());
    PCCHECK_CHECK_MSG(!store_->is_quarantined(slot),
                      "restore_slot on a still-quarantined slot");
    // Only a slot this protocol parked may be re-admitted. A slot that
    // was quarantined while free (or while owned by an in-flight
    // ticket) was never withheld — enqueueing it here would put it in
    // the pool twice and let two commits scribble the same slot.
    if (!parked_[slot].exchange(false, std::memory_order_acq_rel)) {
        return;
    }
    recycle(slot);
}

void
ConcurrentCommit::recycle(std::uint32_t slot)
{
    // try_enqueue can report a transient "full" while a concurrent
    // dequeuer sits between claiming a cell and releasing its sequence
    // word (found by mc_check, docs/MODEL_CHECKING.md). The queue is
    // never arithmetically full here — at most slot_count-1 slots are
    // free when one is returned — so backing off until the dequeuer
    // finishes always terminates.
    while (!free_slots_->try_enqueue(slot)) {
        clock_->sleep_for(kSlotBackoff);
    }
    slot_waiters_.wake();
}

void
ConcurrentCommit::note_replicated(std::uint64_t counter)
{
    if (PsanStorage* psan = store_->psan()) {
        // V1 early-ack: a watermark naming a counter newer than the
        // newest durable publish would promise replicas data the local
        // record never made durable.
        psan->on_watermark_advance(counter);
    }
    // Monotonic max: concurrent commits may report out of order.
    // relaxed: advisory watermark; the durable publish it describes
    // was already ordered by the commit path's own fences.
    std::uint64_t seen =
        replicated_watermark_.load(std::memory_order_relaxed);
    while (seen < counter) {
        // relaxed: same advisory monotonic-max loop as above.
        if (replicated_watermark_.compare_exchange_strong(
                seen, counter, std::memory_order_relaxed)) {
            break;
        }
    }
}

void
ConcurrentCommit::set_retry(const RetryPolicy& policy, std::uint64_t seed)
{
    retry_ = policy;
    retry_seed_ = seed;
}

std::uint64_t
ConcurrentCommit::latest_counter() const
{
    return counter_of(check_addr_.load(std::memory_order_acquire));
}

std::optional<CheckpointPointer>
ConcurrentCommit::latest_pointer() const
{
    const std::uint64_t packed =
        check_addr_.load(std::memory_order_acquire);
    const std::uint32_t slot = slot_of(packed);
    if (slot == kNoSlot) {
        return std::nullopt;
    }
    const SlotMeta& meta = meta_[slot];
    return CheckpointPointer{counter_of(packed), slot, meta.data_len,
                             meta.iteration, meta.data_crc};
}

}  // namespace pccheck
