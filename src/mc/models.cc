#include "mc/models.h"

#include <algorithm>
#include <set>
#include <sstream>
#include <utility>

#include "core/recovery.h"
#include "storage/mem_storage.h"
#include "util/check.h"
#include "util/crc32.h"
#include "util/parking_lot.h"

namespace pccheck::mc {

namespace {

constexpr std::uint32_t kNoSlot = 0xFFFF;
constexpr Seconds kSlotBackoff = 20e-6;

std::uint64_t pack(std::uint64_t counter, std::uint32_t slot)
{
    return (counter << 16) | (slot & 0xFFFF);
}

std::uint64_t counter_of(std::uint64_t packed)
{
    return packed >> 16;
}

std::uint32_t slot_of(std::uint64_t packed)
{
    return static_cast<std::uint32_t>(packed & 0xFFFF);
}

/**
 * Compact reimplementation of Listing 1 over the same seam, with the
 * mutation hooks. Invariant failures throw mc::Violation (via
 * Scheduler::fail) instead of PCCHECK_CHECK so the checker can catch
 * and report them with a replay token.
 */
class MiniCommit {
  public:
    MiniCommit(SlotStore& store, SlotQueueKind kind, const Clock& clock,
               Mutation mutation)
        : store_(&store), clock_(&clock), mutation_(mutation),
          free_slots_(make_slot_queue(kind, store.slot_count())),
          check_addr_(pack(0, kNoSlot))
    {
        for (std::uint32_t s = 0; s < store.slot_count(); ++s) {
            if (!free_slots_->try_enqueue(s)) {
                Scheduler::fail("mini: initial slot enqueue failed");
            }
        }
    }

    CheckpointTicket begin()
    {
        CheckpointTicket ticket;
        ticket.last_check = check_addr_.load(std::memory_order_acquire);
        if (mutation_ == Mutation::kTicketReuse) {
            // MUTATION: non-atomic ticket draw — two threads that both
            // load before either stores take the same counter.
            const std::uint64_t next =
                g_counter_.load(std::memory_order_acquire) + 1;
            g_counter_.store(next, std::memory_order_release);
            ticket.counter = next;
        } else {
            ticket.counter =
                g_counter_.fetch_add(1, std::memory_order_acq_rel) + 1;
        }
        ticket.slot =
            waiters_.take([this] { return free_slots_->try_dequeue(); });
        return ticket;
    }

    CommitResult commit(const CheckpointTicket& ticket, Bytes data_len,
                        std::uint64_t iteration, std::uint32_t data_crc)
    {
        CommitResult result;
        const std::uint64_t mine = pack(ticket.counter, ticket.slot);
        if (mutation_ == Mutation::kBlindStore) {
            // MUTATION: unconditional exchange — an old ticket can
            // overwrite a newer registered checkpoint.
            const std::uint64_t prev =
                check_addr_.exchange(mine, std::memory_order_acq_rel);
            publish(ticket, data_len, iteration, data_crc);
            recycle(slot_of(prev), &result);
            result.won = true;
            result.published = true;
            return result;
        }
        std::uint64_t expected = ticket.last_check;
        for (;;) {
            if (check_addr_.compare_exchange_strong(
                    expected, mine, std::memory_order_acq_rel)) {
                publish(ticket, data_len, iteration, data_crc);
                // MUTATION kLostWakeup: the winner returns the
                // superseded slot without waking parked begin()s.
                recycle(slot_of(expected), &result,
                        mutation_ != Mutation::kLostWakeup);
                result.won = true;
                result.published = true;
                return result;
            }
            if (counter_of(expected) < ticket.counter) {
                continue;  // older checkpoint registered — retry
            }
            recycle(ticket.slot, &result);
            return result;
        }
    }

    std::uint64_t latest_counter() const
    {
        return counter_of(check_addr_.load(std::memory_order_acquire));
    }

    std::uint32_t latest_slot() const
    {
        return slot_of(check_addr_.load(std::memory_order_acquire));
    }

    FreeSlotQueue& queue() { return *free_slots_; }

  private:
    void publish(const CheckpointTicket& ticket, Bytes data_len,
                 std::uint64_t iteration, std::uint32_t data_crc)
    {
        const StorageStatus status = store_->publish_pointer(
            CheckpointPointer{ticket.counter, ticket.slot, data_len,
                              iteration, data_crc});
        if (!status.ok()) {
            Scheduler::fail("mini: publish_pointer failed");
        }
    }

    void recycle(std::uint32_t slot, CommitResult* result,
                 bool wake = true)
    {
        if (slot == kNoSlot) {
            return;
        }
        // Transient "full" is legal while a dequeuer holds a claimed
        // cell (same retry as ConcurrentCommit::commit); a slot
        // recycled twice would instead show up as a duplicate in the
        // end-state drain check.
        while (!free_slots_->try_enqueue(slot)) {
            clock_->sleep_for(kSlotBackoff);
        }
        if (wake) {
            waiters_.wake();
        }
        result->freed_slot = slot;
    }

    SlotStore* store_;
    const Clock* clock_;
    Mutation mutation_;
    std::unique_ptr<FreeSlotQueue> free_slots_;
    ParkingLot waiters_;
    Atomic<std::uint64_t> g_counter_{0};
    Atomic<std::uint64_t> check_addr_;
};

}  // namespace

struct CommitModel::State {
    State(const ModelConfig& config, std::uint32_t slot_count)
        : device(SlotStore::required_size(slot_count, config.slot_size),
                 config.storage_kind, /*seed=*/1,
                 /*eviction_probability=*/0.5)
    {
    }

    CrashSimStorage device;
    std::optional<SlotStore> store;
    McClock clock;
    std::unique_ptr<ConcurrentCommit> real;
    std::unique_ptr<MiniCommit> mini;

    struct Done {
        CheckpointTicket ticket;
        CommitResult result;
    };
    /** Per-thread commit log (threads append serialized under the
     *  scheduler; the driver reads after the run). */
    std::vector<std::vector<Done>> done;
};

CommitModel::CommitModel(const ModelConfig& config, Mutation mutation)
    : config_(config), mutation_(mutation),
      slot_count_(config.slot_count != 0
                      ? config.slot_count
                      : static_cast<std::uint32_t>(config.threads) + 1)
{
    PCCHECK_CHECK(config.threads >= 1 && config.threads <= 16);
    state_ = std::make_unique<State>(config_, slot_count_);
    state_->store =
        SlotStore::format(state_->device, slot_count_, config_.slot_size);
    const bool mini = config_.use_mini || mutation_ == Mutation::kBlindStore ||
                      mutation_ == Mutation::kTicketReuse ||
                      mutation_ == Mutation::kLostWakeup;
    if (mini) {
        state_->mini = std::make_unique<MiniCommit>(
            *state_->store, config_.queue_kind, state_->clock, mutation_);
    } else {
        state_->real = std::make_unique<ConcurrentCommit>(
            *state_->store, config_.queue_kind, state_->clock);
    }
    state_->done.resize(static_cast<std::size_t>(config_.threads));
}

CommitModel::~CommitModel() = default;

void CommitModel::thread_body(int t)
{
    for (int k = 0; k < config_.checkpoints_per_thread; ++k) {
        CheckpointTicket ticket = state_->real
                                      ? state_->real->begin()
                                      : state_->mini->begin();
        std::vector<std::uint8_t> payload(config_.slot_size);
        for (Bytes j = 0; j < config_.slot_size; ++j) {
            payload[j] = payload_byte(ticket.counter, j);
        }
        SlotStore& store = *state_->store;
        PCCHECK_MUST(
            store.write_slot(ticket.slot, 0, payload.data(),
                             payload.size()));
        if (mutation_ != Mutation::kNoFence) {
            // The caller's contract with commit(): slot data durable
            // before the pointer record references it.
            PCCHECK_MUST(
                store.persist_slot_range(ticket.slot, 0, payload.size()));
            PCCHECK_MUST(store.device().fence());
        }
        const std::uint32_t crc = crc32c(payload.data(), payload.size());
        const CommitResult result =
            state_->real ? state_->real->commit(ticket, payload.size(),
                                                ticket.counter, crc)
                         : state_->mini->commit(ticket, payload.size(),
                                                ticket.counter, crc);
        state_->done[static_cast<std::size_t>(t)].push_back(
            State::Done{ticket, result});
        if (result.won && result.published) {
            watermarks_.emplace_back(recorder_->next_op(), ticket.counter);
        }
    }
}

RunResult CommitModel::run(Strategy& strategy, CrashTrace* trace)
{
    PCCHECK_CHECK_MSG(!ran_, "CommitModel is single-use");
    ran_ = true;

    std::vector<std::function<void()>> bodies;
    bodies.reserve(static_cast<std::size_t>(config_.threads));
    for (int t = 0; t < config_.threads; ++t) {
        bodies.push_back([this, t] { thread_body(t); });
    }
    RunResult result;
    {
        SnapshotRecorder recorder(state_->device, trace);
        recorder_ = &recorder;
        Scheduler scheduler;
        result = scheduler.run(bodies, strategy, config_.sched);
        recorder_ = nullptr;
    }
    if (!result.violated) {
        try {
            check_end_state(trace == nullptr);
        } catch (const Violation& v) {
            result.violated = true;
            result.message = "end-state: " + v.message;
        }
    }
    return result;
}

void CommitModel::check_end_state(bool check_durable_image)
{
    // 1. Ticket counters must be unique (kTicketReuse detector).
    std::set<std::uint64_t> counters;
    std::uint64_t max_won = 0;
    std::size_t total = 0;
    for (const auto& per_thread : state_->done) {
        for (const State::Done& d : per_thread) {
            ++total;
            if (!counters.insert(d.ticket.counter).second) {
                std::ostringstream os;
                os << "duplicate ticket counter " << d.ticket.counter;
                Scheduler::fail(os.str());
            }
            if (d.result.won) {
                max_won = std::max(max_won, d.ticket.counter);
            }
        }
    }
    const std::size_t expected_total =
        static_cast<std::size_t>(config_.threads) *
        static_cast<std::size_t>(config_.checkpoints_per_thread);
    if (total != expected_total) {
        Scheduler::fail("not every checkpoint completed");
    }

    // 2. The registered checkpoint must be the newest winner
    //    (kBlindStore detector: an old blind store can land last).
    const std::uint64_t latest = state_->real
                                     ? state_->real->latest_counter()
                                     : state_->mini->latest_counter();
    if (latest != max_won) {
        std::ostringstream os;
        os << "latest counter " << latest << " != newest winner "
           << max_won;
        Scheduler::fail(os.str());
    }

    // 3. Slot conservation: every slot is either free or the one the
    //    registered checkpoint occupies — no slot leaked or doubled.
    std::uint32_t latest_slot = kNoSlot;
    if (state_->real) {
        const auto ptr = state_->real->latest_pointer();
        latest_slot = ptr.has_value() ? ptr->slot : kNoSlot;
    } else {
        latest_slot = state_->mini->latest_slot();
    }
    FreeSlotQueue* queue = nullptr;
    if (state_->mini) {
        queue = &state_->mini->queue();
    }
    if (queue != nullptr) {
        std::set<std::uint32_t> free;
        for (;;) {
            const auto slot = queue->try_dequeue();
            if (!slot.has_value()) {
                break;
            }
            if (!free.insert(*slot).second) {
                std::ostringstream os;
                os << "slot " << *slot << " is in the free queue twice";
                Scheduler::fail(os.str());
            }
        }
        if (latest_slot != kNoSlot && free.contains(latest_slot)) {
            Scheduler::fail("registered slot is also free");
        }
        const std::size_t expected_free =
            latest_slot != kNoSlot ? slot_count_ - 1 : slot_count_;
        if (free.size() != expected_free) {
            std::ostringstream os;
            os << "free-slot count " << free.size() << " != expected "
               << expected_free;
            Scheduler::fail(os.str());
        }
    }

    // 4. The durable image alone (crash keeping nothing) must recover
    //    the registered checkpoint with an intact payload (unless the
    //    crash enumerator is driving; see run()).
    if (check_durable_image && max_won != 0) {
        const std::vector<std::uint8_t> image =
            state_->device.snapshot().durable;
        MemStorage mem(image.size());
        std::copy(image.begin(), image.end(), mem.raw());
        std::vector<std::uint8_t> buffer;
        const auto recovered =
            recover_to_buffer(mem, &buffer, state_->clock);
        if (!recovered.has_value()) {
            Scheduler::fail("durable image holds no recoverable "
                            "checkpoint after a published commit");
        }
        if (recovered->counter != latest) {
            std::ostringstream os;
            os << "durable recovery found counter " << recovered->counter
               << ", registered " << latest;
            Scheduler::fail(os.str());
        }
        if (recovered->iteration != recovered->counter ||
            buffer.size() != config_.slot_size) {
            Scheduler::fail("recovered checkpoint metadata mismatch");
        }
        for (Bytes j = 0; j < buffer.size(); ++j) {
            if (buffer[j] != payload_byte(recovered->counter, j)) {
                Scheduler::fail("recovered payload corrupt");
            }
        }
    }
}

RunFn make_run_fn(const ModelConfig& config, Mutation mutation)
{
    return [config, mutation](Strategy& strategy) {
        CommitModel model(config, mutation);
        return model.run(strategy);
    };
}

}  // namespace pccheck::mc
