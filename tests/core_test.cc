/**
 * @file
 * Tests for the PCcheck core: on-device slot layout and pointer
 * records, the Listing-1 commit protocol, the parallel persist engine,
 * the orchestrator, recovery, the tuner, and distributed coordination.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "core/concurrent_commit.h"
#include "core/distributed.h"
#include "core/free_slot_queue.h"
#include "core/orchestrator.h"
#include "core/persist_engine.h"
#include "core/recovery.h"
#include "core/slot_store.h"
#include "core/tuner.h"
#include "net/network.h"
#include "storage/crash_sim.h"
#include "storage/file_storage.h"
#include "storage/mem_storage.h"
#include "storage/throttled_storage.h"
#include "trainsim/training_state.h"
#include "util/check.h"
#include "util/crc32.h"

namespace pccheck {
namespace {

std::vector<std::uint8_t>
pattern(Bytes len, std::uint8_t seed)
{
    std::vector<std::uint8_t> data(len);
    for (Bytes i = 0; i < len; ++i) {
        data[i] = static_cast<std::uint8_t>(seed * 31 + i);
    }
    return data;
}

// ---------------------------------------------------------------- SlotStore

TEST(SlotStoreTest, FormatAndOpenRoundTrip)
{
    MemStorage device(SlotStore::required_size(3, 8192));
    SlotStore store = SlotStore::format(device, 3, 8192);
    EXPECT_EQ(store.slot_count(), 3u);
    EXPECT_EQ(store.slot_size(), 8192u);
    SlotStore reopened = SlotStore::open(device);
    EXPECT_EQ(reopened.slot_count(), 3u);
    EXPECT_EQ(reopened.slot_size(), 8192u);
}

TEST(SlotStoreTest, OpenUnformattedThrows)
{
    MemStorage device(1 * kMiB);
    EXPECT_THROW(SlotStore::open(device), FatalError);
}

TEST(SlotStoreTest, FormatTooSmallDeviceThrows)
{
    MemStorage device(1024);
    EXPECT_THROW(SlotStore::format(device, 4, 1 * kMiB), FatalError);
}

TEST(SlotStoreTest, SlotsDoNotOverlap)
{
    MemStorage device(SlotStore::required_size(3, 5000));
    SlotStore store = SlotStore::format(device, 3, 5000);
    const auto a = pattern(5000, 1);
    const auto b = pattern(5000, 2);
    PCCHECK_MUST(store.write_slot(0, 0, a.data(), a.size()));
    PCCHECK_MUST(store.write_slot(1, 0, b.data(), b.size()));
    std::vector<std::uint8_t> out(5000);
    PCCHECK_MUST(store.read_slot(0, 0, out.data(), out.size()));
    EXPECT_EQ(out, a);
    PCCHECK_MUST(store.read_slot(1, 0, out.data(), out.size()));
    EXPECT_EQ(out, b);
}

TEST(SlotStoreTest, NoPointerAfterFormat)
{
    MemStorage device(SlotStore::required_size(2, 4096));
    SlotStore store = SlotStore::format(device, 2, 4096);
    EXPECT_FALSE(store.recover_pointer().has_value());
}

TEST(SlotStoreTest, PublishAndRecoverPointer)
{
    MemStorage device(SlotStore::required_size(2, 4096));
    SlotStore store = SlotStore::format(device, 2, 4096);
    const auto data = pattern(4096, 3);
    PCCHECK_MUST(store.write_slot(1, 0, data.data(), data.size()));
    PCCHECK_MUST(store.persist_slot_range(1, 0, data.size()));
    PCCHECK_MUST(store.device().fence());
    const std::uint32_t crc = crc32c(data.data(), data.size());
    PCCHECK_MUST(store.publish_pointer({7, 1, 4096, 123, crc}));

    const auto recovered = store.recover_pointer();
    ASSERT_TRUE(recovered.has_value());
    EXPECT_EQ(recovered->counter, 7u);
    EXPECT_EQ(recovered->slot, 1u);
    EXPECT_EQ(recovered->iteration, 123u);
    EXPECT_EQ(recovered->data_crc, crc);
}

TEST(SlotStoreTest, NewerRecordWins)
{
    MemStorage device(SlotStore::required_size(3, 4096));
    SlotStore store = SlotStore::format(device, 3, 4096);
    const auto a = pattern(4096, 4);
    const auto b = pattern(4096, 5);
    PCCHECK_MUST(store.write_slot(0, 0, a.data(), a.size()));
    PCCHECK_MUST(store.write_slot(1, 0, b.data(), b.size()));
    PCCHECK_MUST(store.publish_pointer({1, 0, 4096, 10, crc32c(a.data(), a.size())}));
    PCCHECK_MUST(store.publish_pointer({2, 1, 4096, 20, crc32c(b.data(), b.size())}));
    const auto recovered = store.recover_pointer();
    ASSERT_TRUE(recovered.has_value());
    EXPECT_EQ(recovered->counter, 2u);
    EXPECT_EQ(recovered->iteration, 20u);
}

TEST(SlotStoreTest, FallsBackWhenNewerDataCorrupt)
{
    MemStorage device(SlotStore::required_size(3, 4096));
    SlotStore store = SlotStore::format(device, 3, 4096);
    const auto a = pattern(4096, 6);
    const auto b = pattern(4096, 7);
    PCCHECK_MUST(store.write_slot(0, 0, a.data(), a.size()));
    PCCHECK_MUST(store.write_slot(1, 0, b.data(), b.size()));
    PCCHECK_MUST(store.publish_pointer({1, 0, 4096, 10, crc32c(a.data(), a.size())}));
    PCCHECK_MUST(store.publish_pointer({2, 1, 4096, 20, crc32c(b.data(), b.size())}));
    // Corrupt the newer checkpoint's data (slot recycled / torn).
    const auto garbage = pattern(100, 99);
    PCCHECK_MUST(store.write_slot(1, 50, garbage.data(), garbage.size()));
    const auto recovered = store.recover_pointer();
    ASSERT_TRUE(recovered.has_value());
    EXPECT_EQ(recovered->counter, 1u);  // fell back to the older one
}

// ---------------------------------------------------------- ConcurrentCommit

std::unique_ptr<MemStorage>
make_device(std::uint32_t slots, Bytes slot_size)
{
    return std::make_unique<MemStorage>(
        SlotStore::required_size(slots, slot_size));
}

TEST(ConcurrentCommitTest, SequentialCommits)
{
    auto device = make_device(3, 4096);
    SlotStore store = SlotStore::format(*device, 3, 4096);
    ConcurrentCommit commit(store);
    const auto data = pattern(4096, 1);
    for (std::uint64_t i = 1; i <= 10; ++i) {
        const CheckpointTicket ticket = commit.begin();
        PCCHECK_MUST(store.write_slot(ticket.slot, 0, data.data(), data.size()));
        PCCHECK_MUST(store.persist_slot_range(ticket.slot, 0, data.size()));
        PCCHECK_MUST(store.device().fence());
        const auto result = commit.commit(
            ticket, data.size(), i, crc32c(data.data(), data.size()));
        EXPECT_TRUE(result.won);
    }
    EXPECT_EQ(commit.commits_won(), 10u);
    EXPECT_EQ(commit.commits_superseded(), 0u);
    const auto recovered = store.recover_pointer();
    ASSERT_TRUE(recovered.has_value());
    EXPECT_EQ(recovered->iteration, 10u);
}

TEST(ConcurrentCommitTest, TicketsAreOrderedAndSlotsDistinct)
{
    auto device = make_device(4, 1024);
    SlotStore store = SlotStore::format(*device, 4, 1024);
    ConcurrentCommit commit(store);
    const CheckpointTicket a = commit.begin();
    const CheckpointTicket b = commit.begin();
    const CheckpointTicket c = commit.begin();
    EXPECT_LT(a.counter, b.counter);
    EXPECT_LT(b.counter, c.counter);
    EXPECT_NE(a.slot, b.slot);
    EXPECT_NE(b.slot, c.slot);
    EXPECT_NE(a.slot, c.slot);
    commit.abort(a);
    commit.abort(b);
    commit.abort(c);
}

TEST(ConcurrentCommitTest, TryBeginFailsWhenSlotsExhausted)
{
    auto device = make_device(2, 1024);
    SlotStore store = SlotStore::format(*device, 2, 1024);
    ConcurrentCommit commit(store);
    CheckpointTicket a;
    CheckpointTicket b;
    CheckpointTicket c;
    EXPECT_TRUE(commit.try_begin(&a));
    EXPECT_TRUE(commit.try_begin(&b));
    EXPECT_FALSE(commit.try_begin(&c));
    commit.abort(a);
    EXPECT_TRUE(commit.try_begin(&c));
    commit.abort(b);
    commit.abort(c);
}

TEST(ConcurrentCommitTest, OutOfOrderCommitSupersedes)
{
    auto device = make_device(3, 1024);
    SlotStore store = SlotStore::format(*device, 3, 1024);
    ConcurrentCommit commit(store);
    const auto data = pattern(1024, 2);
    const std::uint32_t crc = crc32c(data.data(), data.size());

    const CheckpointTicket older = commit.begin();
    const CheckpointTicket newer = commit.begin();
    PCCHECK_MUST(store.write_slot(older.slot, 0, data.data(), data.size()));
    PCCHECK_MUST(store.write_slot(newer.slot, 0, data.data(), data.size()));
    PCCHECK_MUST(store.persist_slot_range(older.slot, 0, data.size()));
    PCCHECK_MUST(store.persist_slot_range(newer.slot, 0, data.size()));
    PCCHECK_MUST(store.device().fence());

    // The newer one lands first; the older must recognize it has been
    // superseded and recycle its own slot (Listing 1 lines 29-31).
    EXPECT_TRUE(commit.commit(newer, data.size(), 2, crc).won);
    const auto result = commit.commit(older, data.size(), 1, crc);
    EXPECT_FALSE(result.won);
    EXPECT_EQ(result.freed_slot, older.slot);

    const auto recovered = store.recover_pointer();
    ASSERT_TRUE(recovered.has_value());
    EXPECT_EQ(recovered->iteration, 2u);
    EXPECT_EQ(commit.latest_counter(), newer.counter);
}

TEST(ConcurrentCommitTest, AdoptsExistingCheckpointOnReopen)
{
    auto device = make_device(3, 1024);
    const auto data = pattern(1024, 3);
    {
        SlotStore store = SlotStore::format(*device, 3, 1024);
        ConcurrentCommit commit(store);
        const CheckpointTicket ticket = commit.begin();
        PCCHECK_MUST(store.write_slot(ticket.slot, 0, data.data(), data.size()));
        PCCHECK_MUST(store.persist_slot_range(ticket.slot, 0, data.size()));
        PCCHECK_MUST(store.device().fence());
        commit.commit(ticket, data.size(), 42,
                      crc32c(data.data(), data.size()));
    }
    // Reopen (recovery): the latest checkpoint's slot is reserved.
    SlotStore store = SlotStore::open(*device);
    ConcurrentCommit commit(store);
    EXPECT_GT(commit.latest_counter(), 0u);
    // Two of the three slots are free; the latest one is not.
    CheckpointTicket a;
    CheckpointTicket b;
    CheckpointTicket c;
    EXPECT_TRUE(commit.try_begin(&a));
    EXPECT_TRUE(commit.try_begin(&b));
    EXPECT_FALSE(commit.try_begin(&c));
    commit.abort(a);
    commit.abort(b);
}

/**
 * Concurrent commit stress: counters never regress, recovery valid.
 * The arena has fewer slots than writers + 1, so several writers park
 * in begin() at once and every recycle path has to wake them.
 */
TEST(ConcurrentCommitTest, ParallelWritersMonotonicPointer)
{
    constexpr int kWriters = 4;
    constexpr int kPerWriter = 50;
    constexpr std::uint32_t kSlots = kWriters - 1;
    auto device = make_device(kSlots, 4096);
    SlotStore store = SlotStore::format(*device, kSlots, 4096);
    ConcurrentCommit commit(store);

    std::atomic<std::uint64_t> max_seen{0};
    std::vector<std::thread> threads;
    for (int writer = 0; writer < kWriters; ++writer) {
        threads.emplace_back([&, writer] {
            for (int i = 0; i < kPerWriter; ++i) {
                const CheckpointTicket ticket = commit.begin();
                std::vector<std::uint8_t> data(4096);
                TrainingState::stamp_buffer(data.data(), data.size(),
                                            ticket.counter);
                PCCHECK_MUST(store.write_slot(ticket.slot, 0,
                                              data.data(),
                                              data.size()));
                PCCHECK_MUST(store.persist_slot_range(ticket.slot, 0, data.size()));
                PCCHECK_MUST(store.device().fence());
                commit.commit(ticket, data.size(), ticket.counter,
                              crc32c(data.data(), data.size()));
                (void)writer;
                // CHECK_ADDR must be monotonically increasing.
                std::uint64_t seen = commit.latest_counter();
                std::uint64_t prev = max_seen.load();
                while (seen > prev &&
                       !max_seen.compare_exchange_weak(prev, seen)) {
                }
            }
        });
    }
    for (auto& thread : threads) {
        thread.join();
    }
    EXPECT_EQ(commit.commits_won() + commit.commits_superseded(),
              static_cast<std::uint64_t>(kWriters * kPerWriter));
    // The final pointer is valid and stamped with its own counter.
    const auto recovered = store.recover_pointer();
    ASSERT_TRUE(recovered.has_value());
    std::vector<std::uint8_t> data(recovered->data_len);
    PCCHECK_MUST(store.read_slot(recovered->slot, 0, data.data(), data.size()));
    const auto stamped =
        TrainingState::verify_buffer(data.data(), data.size());
    ASSERT_TRUE(stamped.has_value());
    EXPECT_EQ(*stamped, recovered->counter);
    EXPECT_EQ(recovered->counter, commit.latest_counter());
}

/** Real clock that counts sleep_for calls: a parked wait makes none. */
class CountingClock final : public Clock {
  public:
    Seconds now() const override
    {
        return MonotonicClock::instance().now();
    }
    void sleep_for(Seconds duration) const override
    {
        sleeps_.fetch_add(1);
        MonotonicClock::instance().sleep_for(duration);
    }
    std::uint64_t sleeps() const { return sleeps_.load(); }

  private:
    mutable std::atomic<std::uint64_t> sleeps_{0};
};

/** Block until @p started is set, then give the thread time to park. */
void
await_parked(const std::atomic<bool>& started)
{
    while (!started.load()) {
        std::this_thread::yield();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
}

TEST(ConcurrentCommitTest, BeginParksUntilCommitOrAbort)
{
    auto device = make_device(2, 1024);
    SlotStore store = SlotStore::format(*device, 2, 1024);
    CountingClock clock;
    ConcurrentCommit commit(store, SlotQueueKind::kVyukov, clock);
    const auto data = pattern(1024, 4);
    const std::uint32_t crc = crc32c(data.data(), data.size());
    const auto persist = [&](const CheckpointTicket& ticket) {
        PCCHECK_MUST(store.write_slot(ticket.slot, 0, data.data(),
                                      data.size()));
        PCCHECK_MUST(store.persist_slot_range(ticket.slot, 0, data.size()));
        PCCHECK_MUST(store.device().fence());
    };

    // One slot holds the registered checkpoint, the other is in
    // flight: the free queue is empty.
    const CheckpointTicket first = commit.begin();
    persist(first);
    ASSERT_TRUE(commit.commit(first, data.size(), 1, crc).published);
    const CheckpointTicket second = commit.begin();

    // A waiter parks until the winner's commit recycles the
    // superseded slot.
    std::atomic<bool> started{false};
    std::atomic<bool> done{false};
    CheckpointTicket third;
    std::thread waiter([&] {
        started.store(true);
        third = commit.begin();
        done.store(true);
    });
    await_parked(started);
    EXPECT_FALSE(done.load());
    EXPECT_EQ(clock.sleeps(), 0u);
    persist(second);
    EXPECT_TRUE(commit.commit(second, data.size(), 2, crc).published);
    waiter.join();
    EXPECT_EQ(third.slot, first.slot);

    // A second waiter parks until that ticket is aborted.
    started.store(false);
    done.store(false);
    CheckpointTicket fourth;
    std::thread second_waiter([&] {
        started.store(true);
        fourth = commit.begin();
        done.store(true);
    });
    await_parked(started);
    EXPECT_FALSE(done.load());
    commit.abort(third);
    second_waiter.join();
    EXPECT_EQ(fourth.slot, third.slot);
    commit.abort(fourth);
    EXPECT_EQ(clock.sleeps(), 0u);
}

// -------------------------------------------------------------- crash tests

/**
 * DESIGN.md I1/I2: run concurrent checkpoints against the adversarial
 * crash-sim device and crash at random points; recovery must always
 * find a valid checkpoint no older than the last acknowledged commit.
 */
TEST(CrashPropertyTest, RecoveryAlwaysFindsValidCheckpoint)
{
    constexpr Bytes kSize = 64 * 1024;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        CrashSimStorage device(SlotStore::required_size(3, kSize),
                               StorageKind::kPmemNt, seed, 0.5);
        SlotStore store = SlotStore::format(device, 3, kSize);
        ConcurrentCommit commit(store);
        Rng rng(seed * 1000);
        const int crash_after = 1 + static_cast<int>(rng.next_below(8));
        std::uint64_t last_acked = 0;
        for (int i = 1; i <= crash_after; ++i) {
            const CheckpointTicket ticket = commit.begin();
            std::vector<std::uint8_t> data(kSize);
            TrainingState::stamp_buffer(data.data(), data.size(),
                                        ticket.counter);
            PCCHECK_MUST(store.write_slot(ticket.slot, 0, data.data(), data.size()));
            PCCHECK_MUST(store.persist_slot_range(ticket.slot, 0, data.size()));
            PCCHECK_MUST(store.device().fence());
            if (commit.commit(ticket, data.size(), ticket.counter,
                              crc32c(data.data(), data.size()))
                    .won) {
                last_acked = ticket.counter;
            }
        }
        // Start one more checkpoint and crash mid-write: the torn slot
        // must not confuse recovery.
        const CheckpointTicket torn = commit.begin();
        std::vector<std::uint8_t> half(kSize / 2);
        TrainingState::stamp_buffer(half.data(), half.size(),
                                    torn.counter);
        PCCHECK_MUST(store.write_slot(torn.slot, 0, half.data(), half.size()));
        device.crash();

        SlotStore reopened = SlotStore::open(device);
        const auto recovered = reopened.recover_pointer();
        ASSERT_TRUE(recovered.has_value()) << "seed " << seed;
        EXPECT_GE(recovered->counter, last_acked) << "seed " << seed;
        std::vector<std::uint8_t> data(recovered->data_len);
        PCCHECK_MUST(reopened.read_slot(recovered->slot, 0, data.data(), data.size()));
        const auto stamped =
            TrainingState::verify_buffer(data.data(), data.size());
        ASSERT_TRUE(stamped.has_value()) << "seed " << seed;
        EXPECT_EQ(*stamped, recovered->counter) << "seed " << seed;
    }
}

/** Crash before any fence: no checkpoint should be recovered at all
 *  (rather than a torn one). */
TEST(CrashPropertyTest, CrashBeforeFirstCommitRecoversNothing)
{
    constexpr Bytes kSize = 16 * 1024;
    CrashSimStorage device(SlotStore::required_size(2, kSize),
                           StorageKind::kPmemNt, 7, 0.5);
    SlotStore store = SlotStore::format(device, 2, kSize);
    ConcurrentCommit commit(store);
    const CheckpointTicket ticket = commit.begin();
    std::vector<std::uint8_t> data(kSize);
    TrainingState::stamp_buffer(data.data(), data.size(), 1);
    PCCHECK_MUST(store.write_slot(ticket.slot, 0, data.data(), data.size()));
    // Crash with the data written but never persisted/fenced and the
    // pointer never published.
    device.crash();
    SlotStore reopened = SlotStore::open(device);
    EXPECT_FALSE(reopened.recover_pointer().has_value());
}

// ------------------------------------------------------------ PersistEngine

TEST(PersistEngineTest, BlockingPersistWritesAllData)
{
    auto device = make_device(3, 64 * 1024);
    SlotStore store = SlotStore::format(*device, 3, 64 * 1024);
    PersistEngineConfig blocking_config;
    blocking_config.writer_threads = 4;
    PersistEngine engine(store, blocking_config);
    const auto data = pattern(64 * 1024, 9);
    ASSERT_TRUE(
        engine.persist_range(1, 0, data.data(), data.size(), 3).ok());
    std::vector<std::uint8_t> out(64 * 1024);
    PCCHECK_MUST(store.read_slot(1, 0, out.data(), out.size()));
    EXPECT_EQ(out, data);
}

TEST(PersistEngineTest, AsyncPersistInvokesDone)
{
    auto device = make_device(3, 64 * 1024);
    SlotStore store = SlotStore::format(*device, 3, 64 * 1024);
    PersistEngineConfig async_config;
    async_config.writer_threads = 4;
    PersistEngine engine(store, async_config);
    const auto data = pattern(64 * 1024, 10);
    std::atomic<bool> done{false};
    engine.persist_range_async(0, 0, data.data(), data.size(), 3,
                               [&done](StorageStatus status) {
                                   EXPECT_TRUE(status.ok());
                                   done.store(true);
                               });
    while (!done.load()) {
        std::this_thread::yield();
    }
    std::vector<std::uint8_t> out(64 * 1024);
    PCCHECK_MUST(store.read_slot(0, 0, out.data(), out.size()));
    EXPECT_EQ(out, data);
}

TEST(PersistEngineTest, PerWriterCeilingSlowsSingleWriter)
{
    auto device = make_device(2, 256 * 1024);
    SlotStore store = SlotStore::format(*device, 2, 256 * 1024);
    PersistEngineConfig config;
    config.writer_threads = 4;
    config.per_writer_bytes_per_sec = 10e6;  // 10 MB/s per thread
    PersistEngine engine(store, config);
    const auto data = pattern(256 * 1024, 11);

    Stopwatch one_watch;
    ASSERT_TRUE(
        engine.persist_range(0, 0, data.data(), data.size(), 1).ok());
    const Seconds one = one_watch.elapsed();  // ~26 ms

    Stopwatch four_watch;
    ASSERT_TRUE(
        engine.persist_range(0, 0, data.data(), data.size(), 4).ok());
    const Seconds four = four_watch.elapsed();  // ~6.5 ms

    EXPECT_GT(one, four * 2.0);
}

TEST(PersistEngineTest, PmemPathFencesEachStripe)
{
    CrashSimStorage* crash_device = nullptr;
    auto owned = std::make_unique<CrashSimStorage>(
        SlotStore::required_size(2, 16 * 1024), StorageKind::kPmemNt, 3,
        0.0);
    crash_device = owned.get();
    SlotStore store = SlotStore::format(*owned, 2, 16 * 1024);
    PersistEngineConfig pmem_config;
    pmem_config.writer_threads = 2;
    PersistEngine engine(store, pmem_config);
    const auto data = pattern(16 * 1024, 12);
    ASSERT_TRUE(
        engine.persist_range(0, 0, data.data(), data.size(), 2).ok());
    // Everything the engine wrote must already be durable.
    crash_device->crash();
    std::vector<std::uint8_t> out(16 * 1024);
    PCCHECK_MUST(store.read_slot(0, 0, out.data(), out.size()));
    EXPECT_EQ(out, data);
}

// -------------------------------------------------------------- Orchestrator

struct OrchestratorFixture {
    OrchestratorFixture(Bytes state_bytes, const PCcheckConfig& config)
        : gpu(make_gpu_config(state_bytes)),
          state(gpu, state_bytes),
          device(SlotStore::required_size(
              static_cast<std::uint32_t>(config.concurrent_checkpoints + 1),
              state_bytes)),
          checkpointer(state, device, config)
    {
    }

    static GpuConfig
    make_gpu_config(Bytes state_bytes)
    {
        GpuConfig config;
        config.memory_bytes = state_bytes + kMiB;
        config.pcie_bytes_per_sec = 0;
        return config;
    }

    SimGpu gpu;
    TrainingState state;
    MemStorage device;
    PCcheckCheckpointer checkpointer;
};

TEST(OrchestratorTest, SingleCheckpointPersists)
{
    PCcheckConfig config;
    config.concurrent_checkpoints = 2;
    OrchestratorFixture fixture(64 * 1024, config);
    fixture.state.stamp(5);
    fixture.checkpointer.request_checkpoint(5);
    fixture.checkpointer.finish();
    const auto stats = fixture.checkpointer.stats();
    EXPECT_EQ(stats.requested, 1u);
    EXPECT_EQ(stats.completed, 1u);

    std::vector<std::uint8_t> buffer;
    const auto recovered = recover_to_buffer(fixture.device, &buffer);
    ASSERT_TRUE(recovered.has_value());
    EXPECT_EQ(recovered->iteration, 5u);
    EXPECT_EQ(TrainingState::verify_buffer(buffer.data(), buffer.size()),
              std::make_optional<std::uint64_t>(5));
}

TEST(OrchestratorTest, ManySequentialCheckpointsAllComplete)
{
    PCcheckConfig config;
    config.concurrent_checkpoints = 3;
    config.writers_per_checkpoint = 2;
    OrchestratorFixture fixture(32 * 1024, config);
    for (std::uint64_t i = 1; i <= 20; ++i) {
        fixture.checkpointer.before_update(i);
        fixture.state.stamp(i);
        fixture.checkpointer.request_checkpoint(i);
    }
    fixture.checkpointer.finish();
    const auto stats = fixture.checkpointer.stats();
    EXPECT_EQ(stats.requested, 20u);
    EXPECT_EQ(stats.completed, 20u);
    std::vector<std::uint8_t> buffer;
    const auto recovered = recover_to_buffer(fixture.device, &buffer);
    ASSERT_TRUE(recovered.has_value());
    EXPECT_EQ(recovered->iteration, 20u);
}

TEST(OrchestratorTest, PipelinedChunksProduceConsistentCheckpoint)
{
    PCcheckConfig config;
    config.concurrent_checkpoints = 2;
    config.chunk_bytes = 16 * 1024;  // 8 chunks of the 128 KiB state
    config.dram_bytes = 48 * 1024;   // only 3 staging buffers
    OrchestratorFixture fixture(128 * 1024, config);
    for (std::uint64_t i = 1; i <= 10; ++i) {
        fixture.checkpointer.before_update(i);
        fixture.state.stamp(i);
        fixture.checkpointer.request_checkpoint(i);
    }
    fixture.checkpointer.finish();
    std::vector<std::uint8_t> buffer;
    const auto recovered = recover_to_buffer(fixture.device, &buffer);
    ASSERT_TRUE(recovered.has_value());
    const auto stamped =
        TrainingState::verify_buffer(buffer.data(), buffer.size());
    ASSERT_TRUE(stamped.has_value());
    EXPECT_EQ(*stamped, recovered->iteration);
}

TEST(OrchestratorTest, BeforeUpdateWaitsForSnapshot)
{
    // Throttle PCIe so the snapshot takes a visible amount of time.
    GpuConfig gpu_config;
    gpu_config.memory_bytes = 2 * kMiB;
    gpu_config.pcie_bytes_per_sec = 10e6;  // 256 KiB ≈ 26 ms
    SimGpu gpu(gpu_config);
    TrainingState state(gpu, 256 * 1024);
    MemStorage device(SlotStore::required_size(3, 256 * 1024));
    PCcheckConfig config;
    config.concurrent_checkpoints = 2;
    PCcheckCheckpointer checkpointer(state, device, config);

    state.stamp(1);
    checkpointer.request_checkpoint(1);
    Stopwatch watch;
    checkpointer.before_update(2);  // must wait for the GPU→DRAM copy
    EXPECT_GE(watch.elapsed(), 0.01);
    checkpointer.finish();
    const auto stats = checkpointer.stats();
    EXPECT_GE(stats.stall_time, 0.01);
}

TEST(OrchestratorTest, BufferWaitParks)
{
    // One staging chunk and a slow persist channel: the second
    // snapshot finds the only buffer still held by the first
    // checkpoint's persist and must park until it is released.
    constexpr Bytes kSize = 64 * 1024;
    GpuConfig gpu_config;
    gpu_config.memory_bytes = kSize + kMiB;
    gpu_config.pcie_bytes_per_sec = 0;
    SimGpu gpu(gpu_config);
    TrainingState state(gpu, kSize);
    ThrottledStorage device(
        std::make_unique<MemStorage>(SlotStore::required_size(3, kSize)),
        0, 2e6, 0);  // 64 KiB persist ≈ 33 ms
    PCcheckConfig config;
    config.concurrent_checkpoints = 2;
    config.dram_bytes = kSize;  // a single staging chunk
    CountingClock clock;
    PCcheckCheckpointer checkpointer(state, device, config, clock);

    state.stamp(1);
    checkpointer.request_checkpoint(1);
    checkpointer.before_update(2);
    state.stamp(2);
    checkpointer.request_checkpoint(2);
    Stopwatch watch;
    checkpointer.before_update(3);  // snapshot 2 waits for the buffer
    EXPECT_GE(watch.elapsed(), 0.01);
    checkpointer.finish();
    EXPECT_EQ(checkpointer.stats().completed, 2u);
    EXPECT_EQ(clock.sleeps(), 0u);
}

TEST(OrchestratorTest, InvalidConfigRejected)
{
    GpuConfig gpu_config;
    gpu_config.memory_bytes = kMiB;
    SimGpu gpu(gpu_config);
    TrainingState state(gpu, 4096);
    MemStorage device(SlotStore::required_size(2, 4096));
    PCcheckConfig config;
    config.concurrent_checkpoints = 0;
    EXPECT_THROW(PCcheckCheckpointer(state, device, config), FatalError);
}

TEST(OrchestratorTest, QueueKindsAllWork)
{
    for (const SlotQueueKind kind :
         {SlotQueueKind::kVyukov, SlotQueueKind::kMichaelScott,
          SlotQueueKind::kMutex}) {
        PCcheckConfig config;
        config.concurrent_checkpoints = 2;
        config.queue_kind = kind;
        OrchestratorFixture fixture(16 * 1024, config);
        for (std::uint64_t i = 1; i <= 5; ++i) {
            fixture.checkpointer.before_update(i);
            fixture.state.stamp(i);
            fixture.checkpointer.request_checkpoint(i);
        }
        fixture.checkpointer.finish();
        EXPECT_EQ(fixture.checkpointer.stats().completed, 5u);
    }
}

TEST(OrchestratorTest, ReattachPreservesExistingCheckpoint)
{
    // Durability across restarts (I1): constructing a new orchestrator
    // on a device that already holds checkpoints must NOT wipe them —
    // a crash before the first new checkpoint still recovers.
    MemStorage device(SlotStore::required_size(3, 32 * 1024));
    {
        PCcheckConfig config;
        config.concurrent_checkpoints = 2;
        OrchestratorFixture fixture(32 * 1024, config);
        // Use a shared device instead of the fixture's.
        PCcheckCheckpointer checkpointer(fixture.state, device, config);
        fixture.state.stamp(9);
        checkpointer.request_checkpoint(9);
        checkpointer.finish();
    }
    {
        // "Restart": same geometry — reopen in place.
        GpuConfig gpu_config;
        gpu_config.memory_bytes = 2 * kMiB;
        gpu_config.pcie_bytes_per_sec = 0;
        SimGpu gpu(gpu_config);
        TrainingState state(gpu, 32 * 1024);
        PCcheckConfig config;
        config.concurrent_checkpoints = 2;
        PCcheckCheckpointer checkpointer(state, device, config);
        std::vector<std::uint8_t> buffer;
        const auto recovered = recover_to_buffer(device, &buffer);
        ASSERT_TRUE(recovered.has_value());
        EXPECT_EQ(recovered->iteration, 9u);
    }
}

TEST(OrchestratorTest, GeometryChangeSalvagesCheckpoint)
{
    // Restarting with a different N (and hence slot count) must
    // migrate the latest checkpoint into the new layout.
    MemStorage device(SlotStore::required_size(5, 32 * 1024));
    GpuConfig gpu_config;
    gpu_config.memory_bytes = 2 * kMiB;
    gpu_config.pcie_bytes_per_sec = 0;
    SimGpu gpu(gpu_config);
    TrainingState state(gpu, 32 * 1024);
    {
        PCcheckConfig config;
        config.concurrent_checkpoints = 2;  // 3 slots
        PCcheckCheckpointer checkpointer(state, device, config);
        state.stamp(14);
        checkpointer.request_checkpoint(14);
        checkpointer.finish();
    }
    {
        PCcheckConfig config;
        config.concurrent_checkpoints = 4;  // 5 slots: reformat
        PCcheckCheckpointer checkpointer(state, device, config);
        std::vector<std::uint8_t> buffer;
        const auto recovered = recover_to_buffer(device, &buffer);
        ASSERT_TRUE(recovered.has_value());
        EXPECT_EQ(recovered->iteration, 14u);
        EXPECT_EQ(
            TrainingState::verify_buffer(buffer.data(), buffer.size()),
            std::make_optional<std::uint64_t>(14));
    }
}

// ------------------------------------------------------------------ Recovery

TEST(RecoveryTest, RoundTripThroughRealFile)
{
    const std::string path = "/tmp/pccheck_recovery_test.bin";
    const Bytes kSize = 64 * 1024;
    GpuConfig gpu_config;
    gpu_config.memory_bytes = 2 * kMiB;
    gpu_config.pcie_bytes_per_sec = 0;
    {
        SimGpu gpu(gpu_config);
        TrainingState state(gpu, kSize);
        FileStorage device(path, SlotStore::required_size(3, kSize));
        PCcheckConfig config;
        config.concurrent_checkpoints = 2;
        PCcheckCheckpointer checkpointer(state, device, config);
        for (std::uint64_t i = 1; i <= 7; ++i) {
            checkpointer.before_update(i);
            state.stamp(i);
            checkpointer.request_checkpoint(i);
        }
        checkpointer.finish();
    }
    // "Process restart": reopen the file and recover into a fresh GPU.
    {
        SimGpu gpu(gpu_config);
        TrainingState state(gpu, kSize);
        FileStorage device(path, SlotStore::required_size(3, kSize));
        const auto result = recover_latest_into_state(device, state);
        ASSERT_TRUE(result.has_value());
        EXPECT_EQ(result->iteration, 7u);
        EXPECT_EQ(state.iteration(), 7u);
        const auto stamped = TrainingState::verify_buffer(
            gpu.device_data(state.device_ptr()), state.size());
        EXPECT_EQ(stamped, std::make_optional<std::uint64_t>(7));
    }
    std::remove(path.c_str());
}

TEST(RecoveryTest, NoCheckpointReturnsNullopt)
{
    MemStorage device(SlotStore::required_size(2, 4096));
    SlotStore::format(device, 2, 4096);
    std::vector<std::uint8_t> buffer;
    EXPECT_FALSE(recover_to_buffer(device, &buffer).has_value());
}

TEST(RecoveryTest, StampsThatContradictTheRecordReturnNullopt)
{
    // A sealed, CRC-valid pointer record of iteration `recorded` over
    // slot data stamped 10, on an arena with `delta_log` bytes of
    // delta region. Recovery either restores it or leaves the state
    // (stamped 3) untouched.
    constexpr Bytes kSize = 16 * 1024;
    const auto recover = [](Bytes delta_log, std::uint64_t recorded) {
        MemStorage device(SlotStore::required_size(3, kSize, delta_log));
        SlotStore store = SlotStore::format(device, 3, kSize, delta_log);
        std::vector<std::uint8_t> image(kSize);
        TrainingState::stamp_buffer(image.data(), kSize, 10);
        PCCHECK_MUST(store.write_slot(1, 0, image.data(), kSize));
        PCCHECK_MUST(store.persist_slot_range(1, 0, kSize));
        PCCHECK_MUST(device.fence());
        PCCHECK_MUST(store.publish_pointer(CheckpointPointer{
            1, 1, kSize, recorded, crc32c(image.data(), kSize)}));
        GpuConfig gpu_config;
        gpu_config.memory_bytes = 1 * kMiB;
        gpu_config.pcie_bytes_per_sec = 0;
        SimGpu gpu(gpu_config);
        TrainingState state(gpu, kSize);
        state.stamp(3);
        const auto result = recover_latest_into_state(device, state);
        const std::uint64_t held = result ? result->iteration : 3;
        EXPECT_EQ(state.iteration(), held);
        EXPECT_EQ(TrainingState::verify_buffer_sparse(
                      gpu.device_data(state.device_ptr()), kSize),
                  std::make_optional<std::uint64_t>(result ? 10 : 3));
        return result;
    };
    // No delta region: every marker must carry the record's iteration.
    EXPECT_FALSE(recover(0, 11).has_value());
    EXPECT_FALSE(recover(0, 9).has_value());
    const auto full = recover(0, 10);
    ASSERT_TRUE(full.has_value());
    EXPECT_EQ(full->iteration, 10u);
    // A delta region: markers may be older than the record, never
    // newer.
    EXPECT_FALSE(recover(48 * 1024, 9).has_value());
    const auto sparse = recover(48 * 1024, 11);
    ASSERT_TRUE(sparse.has_value());
    EXPECT_EQ(sparse->iteration, 11u);
}

// --------------------------------------------------------------------- Tuner

TEST(TunerTest, MinIntervalFormula)
{
    // f* = ceil(Tw / (N q t)): Tw=2s, N=2, q=1.05, t=0.1 → ceil(9.52)=10.
    EXPECT_EQ(min_checkpoint_interval(2.0, 2, 1.05, 0.1), 10u);
    // Tiny Tw → interval 1.
    EXPECT_EQ(min_checkpoint_interval(0.0, 1, 1.05, 0.1), 1u);
}

TEST(TunerTest, OptimizePrefersConcurrency)
{
    const Bytes kSize = 128 * 1024;
    GpuConfig gpu_config;
    gpu_config.memory_bytes = 2 * kMiB;
    gpu_config.pcie_bytes_per_sec = 0;
    SimGpu gpu(gpu_config);
    TrainingState state(gpu, kSize);
    // Slow persist channel so checkpoints overlap: concurrency helps.
    ThrottledStorage device(
        std::make_unique<MemStorage>(SlotStore::required_size(5, kSize)),
        0, 20e6, 0);

    PCcheckConfig base;
    base.writers_per_checkpoint = 2;
    Tuner tuner(base);
    TunerConstraints constraints;
    constraints.storage_budget = SlotStore::required_size(5, kSize);
    constraints.max_overhead = 1.05;
    const TunerResult result =
        tuner.optimize(state, device, constraints, /*iteration_time=*/0.002,
                       /*probes_per_n=*/3);
    EXPECT_GE(result.concurrent_checkpoints, 2);
    EXPECT_GE(result.checkpoint_interval, 1u);
    EXPECT_FALSE(result.samples.empty());
    EXPECT_GT(result.tw, 0.0);
}

// --------------------------------------------------------------- Distributed

TEST(DistributedTest, AllRanksAgreeOnMinimum)
{
    NetworkConfig net_config;
    net_config.nodes = 4;
    net_config.nic_bytes_per_sec = 0;
    net_config.latency = 0;
    SimNetwork network(net_config);
    std::vector<std::uint64_t> agreed(4, 0);
    std::vector<std::thread> threads;
    for (int rank = 0; rank < 4; ++rank) {
        threads.emplace_back([&, rank] {
            DistributedCoordinator coordinator(network, rank, 4);
            // Ranks announce different IDs; all must agree on the min.
            agreed[static_cast<std::size_t>(rank)] =
                coordinator.coordinate(100 + static_cast<std::uint64_t>(
                                                 rank));
        });
    }
    for (auto& thread : threads) {
        thread.join();
    }
    for (int rank = 0; rank < 4; ++rank) {
        EXPECT_EQ(agreed[static_cast<std::size_t>(rank)], 100u);
    }
}

TEST(DistributedTest, SingleNodeIsTrivial)
{
    NetworkConfig net_config;
    net_config.nodes = 1;
    SimNetwork network(net_config);
    DistributedCoordinator coordinator(network, 0, 1);
    EXPECT_EQ(coordinator.coordinate(55), 55u);
    EXPECT_EQ(coordinator.last_consistent(), 55u);
}

TEST(DistributedTest, RepeatedRoundsAdvance)
{
    NetworkConfig net_config;
    net_config.nodes = 2;
    net_config.latency = 0;
    SimNetwork network(net_config);
    std::thread peer([&network] {
        DistributedCoordinator coordinator(network, 1, 2);
        EXPECT_EQ(coordinator.coordinate(10), 10u);
        EXPECT_EQ(coordinator.coordinate(20), 20u);
    });
    DistributedCoordinator coordinator(network, 0, 2);
    EXPECT_EQ(coordinator.coordinate(11), 10u);
    EXPECT_EQ(coordinator.coordinate(21), 20u);
    peer.join();
    EXPECT_EQ(coordinator.last_consistent(), 20u);
}

// ---------------------------------------------------------------------------
// FreeSlotQueue stress: N producers recycling slots against N
// consumers claiming them. The §4.1 invariant under test: a slot is
// never handed out twice concurrently — every dequeued slot is owned
// exclusively until its holder re-enqueues it. Runs under TSan in CI
// (core_test is in the sanitizer regex), so the atomics themselves are
// also race-checked.

class SlotQueueStressTest
    : public ::testing::TestWithParam<SlotQueueKind> {};

TEST_P(SlotQueueStressTest, NoSlotHandedOutTwice)
{
    static constexpr std::uint32_t kSlots = 64;
    static constexpr int kThreads = 4;
    static constexpr int kOpsPerThread = 20'000;

    auto queue = make_slot_queue(GetParam(), kSlots);
    for (std::uint32_t slot = 0; slot < kSlots; ++slot) {
        ASSERT_TRUE(queue->try_enqueue(slot));
    }

    // owned[s] flips 0→1 on dequeue and 1→0 on enqueue; an exchange
    // that sees the wrong prior value is a double-handout (or a
    // re-enqueue of a slot the thread never owned).
    std::vector<std::atomic<int>> owned(kSlots);
    for (auto& flag : owned) {
        flag.store(0);
    }
    std::atomic<int> violations{0};
    std::atomic<std::uint64_t> claims{0};

    // try_enqueue can transiently report "full" while a concurrent
    // dequeuer has claimed a cell but not yet advanced its sequence
    // word, so recycling retries (the production free-slot path backs
    // off the same way when slots are exhausted).
    const auto enqueue_retrying = [&queue](std::uint32_t slot) {
        while (!queue->try_enqueue(slot)) {
            std::this_thread::yield();
        }
    };

    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&queue, &owned, &violations, &claims,
                              &enqueue_retrying] {
            std::vector<std::uint32_t> held;
            for (int op = 0; op < kOpsPerThread; ++op) {
                const auto slot = queue->try_dequeue();
                if (slot.has_value()) {
                    ASSERT_LT(*slot, kSlots);
                    if (owned[*slot].exchange(1) != 0) {
                        violations.fetch_add(1);
                    }
                    claims.fetch_add(1);
                    held.push_back(*slot);
                }
                // Recycle in a different order than claimed to shuffle
                // the queue contents across threads.
                if (held.size() > 4 || (!held.empty() && op % 3 == 0)) {
                    const std::uint32_t back = held.back();
                    held.pop_back();
                    if (owned[back].exchange(0) != 1) {
                        violations.fetch_add(1);
                    }
                    enqueue_retrying(back);
                }
            }
            for (const std::uint32_t back : held) {
                if (owned[back].exchange(0) != 1) {
                    violations.fetch_add(1);
                }
                enqueue_retrying(back);
            }
        });
    }
    for (auto& thread : threads) {
        thread.join();
    }

    EXPECT_EQ(violations.load(), 0);
    EXPECT_GT(claims.load(), 0u);
    // Every slot must come back exactly once — drain and count.
    std::vector<bool> seen(kSlots, false);
    for (std::uint32_t i = 0; i < kSlots; ++i) {
        const auto slot = queue->try_dequeue();
        ASSERT_TRUE(slot.has_value()) << "queue lost slot(s): " << i;
        EXPECT_FALSE(seen[*slot]) << "duplicate slot " << *slot;
        seen[*slot] = true;
    }
    EXPECT_FALSE(queue->try_dequeue().has_value());
}

const char*
slot_queue_kind_name(
    const ::testing::TestParamInfo<SlotQueueKind>& info)
{
    switch (info.param) {
        case SlotQueueKind::kVyukov:
            return "Vyukov";
        case SlotQueueKind::kMichaelScott:
            return "MichaelScott";
        default:
            return "Mutex";
    }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, SlotQueueStressTest,
                         ::testing::Values(SlotQueueKind::kVyukov,
                                           SlotQueueKind::kMichaelScott,
                                           SlotQueueKind::kMutex),
                         slot_queue_kind_name);

}  // namespace
}  // namespace pccheck
