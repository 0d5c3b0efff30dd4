/**
 * @file
 * Unit tests for the multi-tenant CheckpointService (docs/SERVICE.md):
 * token-bucket refill determinism, admission accept/reject and share
 * rebalancing, coalesced-segment seal/replay, tenant-id recovery
 * resolution, shard routing stability, throttled-write accounting,
 * and the kill_tenant/kill_backend fault actions. The shard throttle's
 * weighted turns are tested with BandwidthThrottle in util_test.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "faults/fault.h"
#include "faults/faulty_storage.h"
#include "service/qos.h"
#include "service/segment_log.h"
#include "service/service.h"
#include "service/service_config.h"
#include "service/token_bucket.h"
#include "storage/mem_storage.h"
#include "trainsim/training_state.h"
#include "util/annotations.h"
#include "util/clock.h"
#include "util/crc32.h"

namespace pccheck {
namespace {

/**
 * Manual clock: now() is whatever the test set, and sleep_for advances
 * it — virtual time, so QoS pacing tests are exact and instant.
 */
class TestClock final : public Clock {
  public:
    Seconds now() const override
    {
        MutexLock lock(mu_);
        return now_;
    }
    void sleep_for(Seconds duration) const override
    {
        MutexLock lock(mu_);
        now_ += duration;
    }
    void advance(Seconds duration) const
    {
        MutexLock lock(mu_);
        now_ += duration;
    }

  private:
    mutable Mutex mu_;
    mutable Seconds now_ PCCHECK_GUARDED_BY(mu_) = 0;
};

GpuConfig
fast_gpu()
{
    GpuConfig config;
    config.memory_bytes = 16 * kMiB;
    config.pcie_bytes_per_sec = 0;  // unthrottled copies
    return config;
}

// ---------------------------------------------------------------------
// TokenBucket

TEST(TokenBucketTest, StartsFullAndConsumesAllOrNothing)
{
    TestClock clock;
    TokenBucket bucket(100.0, 1000, clock);
    EXPECT_EQ(bucket.available(), 1000u);
    EXPECT_TRUE(bucket.try_consume(600));
    // All-or-nothing: 401 > the 400 remaining leaves the bucket as-is.
    EXPECT_FALSE(bucket.try_consume(401));
    EXPECT_EQ(bucket.available(), 400u);
    EXPECT_TRUE(bucket.try_consume(400));
    EXPECT_FALSE(bucket.try_consume(1));
}

TEST(TokenBucketTest, RefillIsDeterministicUnderTestClock)
{
    TestClock clock;
    TokenBucket bucket(100.0, 1000, clock);
    ASSERT_TRUE(bucket.try_consume(1000));
    // Refill depends only on observed timestamps: 2.5s at 100 B/s.
    clock.advance(2.5);
    EXPECT_EQ(bucket.available(), 250u);
    EXPECT_FALSE(bucket.try_consume(251));
    EXPECT_TRUE(bucket.try_consume(250));
    // Never above capacity, however long the idle stretch.
    clock.advance(1e6);
    EXPECT_EQ(bucket.available(), 1000u);
}

TEST(TokenBucketTest, SetRateAccruesAtTheOldRateFirst)
{
    TestClock clock;
    TokenBucket bucket(100.0, 10000, clock);
    ASSERT_TRUE(bucket.try_consume(10000));
    clock.advance(10.0);  // 1000 tokens at the old rate
    bucket.set_rate(1.0);
    EXPECT_DOUBLE_EQ(bucket.rate(), 1.0);
    clock.advance(10.0);  // 10 more at the new rate
    EXPECT_EQ(bucket.available(), 1010u);
}

TEST(TokenBucketTest, ZeroRateNeverRefills)
{
    TestClock clock;
    TokenBucket bucket(0.0, 64, clock);
    ASSERT_TRUE(bucket.try_consume(64));
    clock.advance(1e9);
    EXPECT_EQ(bucket.available(), 0u);
    EXPECT_FALSE(bucket.try_consume(1));
}

// ---------------------------------------------------------------------
// AdmissionController

QosConfig
qos_with_budget(double budget, Bytes burst)
{
    QosConfig qos;
    qos.device_budget_bytes_per_sec = budget;
    qos.burst_bytes = burst;
    return qos;
}

TEST(AdmissionControllerTest, AdmitsUntilTheBurstThenRejects)
{
    TestClock clock;
    AdmissionController admission(qos_with_budget(1000.0, 1000), clock);
    admission.register_tenant(7, 1.0, 64 * kKiB);
    EXPECT_TRUE(admission.admit(7, 600));
    EXPECT_TRUE(admission.admit(7, 400));
    EXPECT_FALSE(admission.admit(7, 1));  // bucket empty: skip
    const AdmissionStats stats = admission.stats(7);
    EXPECT_EQ(stats.admitted, 2u);
    EXPECT_EQ(stats.rejected, 1u);
    // Earn the budget back and the tenant is admitted again.
    clock.advance(1.0);
    EXPECT_TRUE(admission.admit(7, 1000));
}

TEST(AdmissionControllerTest, UnregisteredTenantsAreRejected)
{
    TestClock clock;
    AdmissionController admission(qos_with_budget(1000.0, 1000), clock);
    EXPECT_FALSE(admission.admit(99, 1));
    EXPECT_EQ(admission.totals().admitted, 0u);
}

TEST(AdmissionControllerTest, DisabledModeAdmitsRegisteredTenants)
{
    TestClock clock;
    QosConfig qos = qos_with_budget(1.0, 1);
    qos.enabled = false;
    AdmissionController admission(qos, clock);
    admission.register_tenant(1, 1.0, 64 * kKiB);
    for (int i = 0; i < 100; ++i) {
        EXPECT_TRUE(admission.admit(1, kMiB));
    }
    EXPECT_FALSE(admission.admit(2, 1));  // still must be registered
}

TEST(AdmissionControllerTest, WeightsSplitTheBudgetAndRebalanceOnRemove)
{
    TestClock clock;
    AdmissionController admission(qos_with_budget(1000.0, 1000), clock);
    admission.register_tenant(1, 1.0, 1);
    admission.register_tenant(2, 3.0, 1);
    // Drain both initial bursts.
    ASSERT_TRUE(admission.admit(1, 1000));
    ASSERT_TRUE(admission.admit(2, 1000));
    // One second earns the weighted shares: 250 vs 750.
    clock.advance(1.0);
    EXPECT_FALSE(admission.admit(1, 251));
    EXPECT_TRUE(admission.admit(1, 250));
    EXPECT_FALSE(admission.admit(2, 751));
    EXPECT_TRUE(admission.admit(2, 750));
    // Survivors inherit a removed tenant's share: the whole budget.
    admission.remove_tenant(1);
    clock.advance(1.0);
    EXPECT_TRUE(admission.admit(2, 1000));
    // Totals now cover only the surviving tenant's three admits —
    // the removed tenant's stats left with it.
    const AdmissionStats totals = admission.totals();
    EXPECT_EQ(totals.admitted, 3u);
}

// ---------------------------------------------------------------------
// SegmentLog

SegmentLogConfig
tiny_segments()
{
    SegmentLogConfig config;
    config.segment_bytes = 4096;
    config.segments = 3;
    return config;
}

std::vector<std::uint8_t>
pattern(Bytes len, std::uint8_t base)
{
    std::vector<std::uint8_t> data(len);
    for (Bytes i = 0; i < len; ++i) {
        data[i] = static_cast<std::uint8_t>(base + i * 13);
    }
    return data;
}

TEST(SegmentLogTest, FormatYieldsAnEmptyScannableRing)
{
    const SegmentLogConfig config = tiny_segments();
    MemStorage device(SegmentLog::required_size(config));
    SegmentLog log(device, 0, config);
    ASSERT_TRUE(log.format().ok());
    EXPECT_TRUE(segment_scan(device, 0, config).empty());
}

TEST(SegmentLogTest, AppendScanFetchRoundtrip)
{
    const SegmentLogConfig config = tiny_segments();
    MemStorage device(SegmentLog::required_size(config));
    SegmentLog log(device, 0, config);
    ASSERT_TRUE(log.format().ok());

    std::vector<std::array<std::uint64_t, 3>> durable;
    log.set_durable_hook([&durable](std::uint64_t tenant,
                                    std::uint64_t counter,
                                    std::uint64_t iteration) {
        durable.push_back({tenant, counter, iteration});
    });

    const auto a1 = pattern(1000, 1);
    const auto b1 = pattern(700, 2);
    const auto a2 = pattern(1000, 3);
    ASSERT_TRUE(log.append(10, 1, 100, a1.data(), a1.size()).ok());
    ASSERT_TRUE(log.append(11, 1, 200, b1.data(), b1.size()).ok());
    ASSERT_TRUE(log.append(10, 2, 101, a2.data(), a2.size()).ok());
    // The durable hook ran once per record, before append returned.
    ASSERT_EQ(durable.size(), 3u);
    EXPECT_EQ(durable[2][0], 10u);
    EXPECT_EQ(durable[2][1], 2u);
    EXPECT_EQ(durable[2][2], 101u);

    const auto records = segment_scan(device, 0, config);
    ASSERT_EQ(records.size(), 3u);
    // Fetch each payload back and CRC-match it against the original.
    for (const SegmentRecordInfo& record : records) {
        std::vector<std::uint8_t> payload;
        ASSERT_TRUE(segment_fetch(device, 0, record, &payload));
        const std::vector<std::uint8_t>& want =
            record.tenant == 11 ? b1 : (record.counter == 1 ? a1 : a2);
        ASSERT_EQ(payload.size(), want.size());
        EXPECT_EQ(std::memcmp(payload.data(), want.data(), want.size()),
                  0);
        EXPECT_EQ(record.data_crc, crc32c(want.data(), want.size()));
    }
    EXPECT_EQ(log.stats().records, 3u);
}

TEST(SegmentLogTest, SealsPublishManifestsThatReplayAfterRestart)
{
    const SegmentLogConfig config = tiny_segments();
    MemStorage device(SegmentLog::required_size(config));
    std::uint64_t iteration = 0;
    {
        SegmentLog log(device, 0, config);
        ASSERT_TRUE(log.format().ok());
        log.set_reclaim_gate([](std::uint64_t, std::uint64_t) {
            return true;  // everything is reclaimable in this test
        });
        // Enough records to fill and seal several segments.
        for (std::uint64_t i = 1; i <= 10; ++i) {
            const auto data = pattern(1024, static_cast<std::uint8_t>(i));
            ASSERT_TRUE(
                log.append(5, i, ++iteration, data.data(), data.size())
                    .ok());
        }
        EXPECT_GE(log.stats().seals, 1u);
    }
    // A fresh process (plain scan, no SegmentLog state) sees sealed
    // segments via their manifests and the open one via a chain walk.
    const auto records = segment_scan(device, 0, config);
    ASSERT_FALSE(records.empty());
    bool any_sealed = false;
    std::uint64_t newest = 0;
    for (const SegmentRecordInfo& record : records) {
        any_sealed |= record.sealed_segment;
        newest = std::max(newest, record.counter);
        std::vector<std::uint8_t> payload;
        ASSERT_TRUE(segment_fetch(device, 0, record, &payload));
        EXPECT_EQ(payload.size(), 1024u);
    }
    EXPECT_TRUE(any_sealed);
    EXPECT_EQ(newest, 10u);
}

TEST(SegmentLogTest, RecycleIsRefusedWhileRecordsAreLive)
{
    const SegmentLogConfig config = tiny_segments();
    MemStorage device(SegmentLog::required_size(config));
    SegmentLog log(device, 0, config);
    ASSERT_TRUE(log.format().ok());
    log.set_reclaim_gate([](std::uint64_t, std::uint64_t) {
        return false;  // every record is someone's newest checkpoint
    });
    // Fill the ring; once recycling is needed the gate refuses and the
    // append fails transiently (the tenant skips, never stalls).
    StorageStatus status = StorageStatus::success();
    int appended = 0;
    for (std::uint64_t i = 1; i <= 50 && status.ok(); ++i) {
        const auto data = pattern(1024, static_cast<std::uint8_t>(i));
        status = log.append(6, i, i, data.data(), data.size());
        if (status.ok()) {
            ++appended;
        }
    }
    EXPECT_FALSE(status.ok());
    EXPECT_TRUE(status.is_transient());
    EXPECT_EQ(log.stats().recycles, 0u);
    EXPECT_GE(log.stats().rejects, 1u);
    // Every record that was accepted is still durable and intact.
    EXPECT_EQ(segment_scan(device, 0, config).size(),
              static_cast<std::size_t>(appended));

    // The full segment stays sealed: later appends retry only the
    // refused recycle, with no second seal and no device traffic.
    const std::uint64_t seals = log.stats().seals;
    std::atomic<int> persists{0};
    std::atomic<int> fences{0};
    device.set_observe_hook([&persists, &fences](const StorageOp& op) {
        if (op.kind == StorageOp::Kind::kPersist) {
            persists.fetch_add(1);
        } else if (op.kind == StorageOp::Kind::kFence) {
            fences.fetch_add(1);
        }
    });
    for (std::uint64_t i = 101; i <= 102; ++i) {
        const auto data = pattern(1024, static_cast<std::uint8_t>(i));
        EXPECT_TRUE(log.append(6, i, i, data.data(), data.size())
                        .is_transient());
    }
    device.set_observe_hook(nullptr);
    EXPECT_EQ(log.stats().seals, seals);
    EXPECT_EQ(persists.load(), 0);
    EXPECT_EQ(fences.load(), 0);
}

TEST(SegmentLogTest, RecycleAdvancesTheRingWhenTheGateAllows)
{
    const SegmentLogConfig config = tiny_segments();
    MemStorage device(SegmentLog::required_size(config));
    SegmentLog log(device, 0, config);
    ASSERT_TRUE(log.format().ok());
    std::uint64_t newest_durable = 0;
    log.set_durable_hook([&newest_durable](std::uint64_t,
                                           std::uint64_t counter,
                                           std::uint64_t) {
        newest_durable = std::max(newest_durable, counter);
    });
    log.set_reclaim_gate(
        [&newest_durable](std::uint64_t, std::uint64_t counter) {
            return counter < newest_durable;  // strictly newer elsewhere
        });
    for (std::uint64_t i = 1; i <= 40; ++i) {
        const auto data = pattern(1024, static_cast<std::uint8_t>(i));
        ASSERT_TRUE(log.append(6, i, i, data.data(), data.size()).ok())
            << "append " << i;
    }
    const SegmentLogStats stats = log.stats();
    EXPECT_EQ(stats.records, 40u);
    EXPECT_GE(stats.recycles, 1u);
    // The newest record always survives recycling.
    std::uint64_t newest = 0;
    for (const SegmentRecordInfo& record :
         segment_scan(device, 0, config)) {
        newest = std::max(newest, record.counter);
    }
    EXPECT_EQ(newest, 40u);
}

TEST(SegmentLogTest, GroupCommitServesConcurrentAppenders)
{
    SegmentLogConfig config;
    config.segment_bytes = 64 * kKiB;
    config.segments = 4;
    MemStorage device(SegmentLog::required_size(config));
    SegmentLog log(device, 0, config);
    ASSERT_TRUE(log.format().ok());

    constexpr int kThreads = 8;
    constexpr int kPerThread = 16;
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&log, &failures, t] {
            for (int i = 1; i <= kPerThread; ++i) {
                const auto data =
                    pattern(512, static_cast<std::uint8_t>(t * 31 + i));
                if (!log.append(static_cast<std::uint64_t>(t),
                                static_cast<std::uint64_t>(i),
                                static_cast<std::uint64_t>(i * 10),
                                data.data(), data.size())
                         .ok()) {
                    failures.fetch_add(1);
                }
            }
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }
    EXPECT_EQ(failures.load(), 0);
    const SegmentLogStats stats = log.stats();
    EXPECT_EQ(stats.records, static_cast<std::uint64_t>(kThreads) *
                                 kPerThread);
    // Group commit: concurrent appends batched under shared fences.
    EXPECT_LE(stats.flushes, stats.records);
    EXPECT_EQ(segment_scan(device, 0, config).size(),
              static_cast<std::size_t>(kThreads) * kPerThread);
}

TEST(SegmentLogTest, DurableHookNeverRunsOnAnAppendersThread)
{
    SegmentLogConfig config;
    config.segment_bytes = 64 * kKiB;
    config.segments = 4;
    MemStorage device(SegmentLog::required_size(config));
    SegmentLog log(device, 0, config);
    ASSERT_TRUE(log.format().ok());

    Mutex mu;
    std::set<std::thread::id> hook_threads;
    log.set_durable_hook(
        [&mu, &hook_threads](std::uint64_t, std::uint64_t, std::uint64_t) {
            MutexLock lock(mu);
            hook_threads.insert(std::this_thread::get_id());
        });
    constexpr int kThreads = 8;
    constexpr int kPerThread = 16;
    std::vector<std::thread::id> callers(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&log, &callers, t] {
            callers[t] = std::this_thread::get_id();
            for (int i = 1; i <= kPerThread; ++i) {
                const auto data =
                    pattern(512, static_cast<std::uint8_t>(t * 31 + i));
                EXPECT_TRUE(log.append(static_cast<std::uint64_t>(t),
                                       static_cast<std::uint64_t>(i),
                                       static_cast<std::uint64_t>(i),
                                       data.data(), data.size())
                                .ok());
            }
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }
    // One flusher ran every hook, and no appender flushed for another.
    MutexLock lock(mu);
    EXPECT_EQ(hook_threads.size(), 1u);
    for (const std::thread::id& caller : callers) {
        EXPECT_EQ(hook_threads.count(caller), 0u);
    }
}

TEST(SegmentLogTest, CommitHoldsOneRecordPerTenant)
{
    // The pacer holds A1's commit while A2, A3 and B1 queue. The next
    // flush commits A2 and B1, each tenant's oldest, and then A3: A's
    // records land in the order A queued them, never two at once.
    const SegmentLogConfig config = tiny_segments();
    MemStorage device(SegmentLog::required_size(config));
    SegmentLog log(device, 0, config);
    ASSERT_TRUE(log.format().ok());
    constexpr std::uint64_t kA = 1;
    constexpr std::uint64_t kB = 2;

    Mutex mu;
    CondVar cv;
    bool hold = true;
    std::vector<Bytes> paced;
    std::vector<std::array<std::uint64_t, 2>> durable;
    int done = 0;
    log.set_pacer([&mu, &cv, &hold, &paced](Bytes bytes) {
        MutexLock lock(mu);
        paced.push_back(bytes);
        cv.notify_all();
        while (hold) {
            cv.wait(mu);
        }
    });
    log.set_durable_hook([&mu, &durable](std::uint64_t tenant,
                                         std::uint64_t counter,
                                         std::uint64_t) {
        MutexLock lock(mu);
        durable.push_back({tenant, counter});
    });

    const auto data = pattern(256, 5);
    const std::array<std::array<std::uint64_t, 2>, 4> queued = {
        {{kA, 1}, {kA, 2}, {kA, 3}, {kB, 1}}};
    std::array<SegmentRecord, 4> records;
    for (std::size_t i = 0; i < records.size(); ++i) {
        records[i].tenant = queued[i][0];
        records[i].counter = queued[i][1];
        records[i].iteration = queued[i][1];
        records[i].data = data.data();
        records[i].data_len = data.size();
        records[i].on_done = [&mu, &cv, &done] {
            MutexLock lock(mu);
            ++done;
            cv.notify_all();
        };
    }
    log.submit(&records[0]);
    {
        MutexLock lock(mu);
        while (paced.empty()) {
            cv.wait(mu);
        }
    }
    for (std::size_t i = 1; i < records.size(); ++i) {
        log.submit(&records[i]);
    }
    MutexLock lock(mu);
    hold = false;
    cv.notify_all();
    while (done < 4) {
        cv.wait(mu);
    }
    const Bytes record = SegmentLog::record_bytes(data.size());
    EXPECT_EQ(paced, (std::vector<Bytes>{record, 2 * record, record}));
    EXPECT_EQ(durable, (std::vector<std::array<std::uint64_t, 2>>{
                           {kA, 1}, {kA, 2}, {kB, 1}, {kA, 3}}));
    for (const SegmentRecord& r : records) {
        EXPECT_TRUE(r.result.ok());
    }
}

/** Reclaim gate over a newest-durable-counter map that the durable
 *  hook feeds: a record recycles once its tenant has a newer one. */
void
gate_on_newest(SegmentLog& log,
               std::map<std::uint64_t, std::uint64_t>& newest)
{
    log.set_durable_hook([&newest](std::uint64_t tenant,
                                   std::uint64_t counter, std::uint64_t) {
        newest[tenant] = std::max(newest[tenant], counter);
    });
    log.set_reclaim_gate([&newest](std::uint64_t tenant,
                                   std::uint64_t counter) {
        const auto it = newest.find(tenant);
        return it != newest.end() && it->second > counter;
    });
}

TEST(SegmentLogTest, ReclaimGateSeesRecordsPublishedEarlierInTheSameFlush)
{
    // Three 1 KiB records fill a 4 KiB segment. Before the batch under
    // test the ring holds
    //   segment 0: X1 Y1 Z1   (each its tenant's only durable record)
    //   segment 1: F1 F2 F3
    //   segment 2: empty
    // One flush then takes [X2, Y2, Z2, F4]: the first three fill
    // segment 2, and F4 seals it and recycles segment 0. The gate
    // allows that only if it already sees X2, Y2 and Z2 as durable.
    // (Segment 0's pinned records fill a whole segment, too many to
    // relocate.)
    const SegmentLogConfig config = tiny_segments();
    MemStorage device(SegmentLog::required_size(config));
    SegmentLog log(device, 0, config);
    ASSERT_TRUE(log.format().ok());
    constexpr std::uint64_t kX = 1;
    constexpr std::uint64_t kY = 2;
    constexpr std::uint64_t kZ = 3;
    constexpr std::uint64_t kF = 4;
    // Written by the durable hook, read by the gate; both run on the
    // thread that flushes.
    std::map<std::uint64_t, std::uint64_t> newest;
    gate_on_newest(log, newest);
    // The pacer holds the flush of F3 while the batch under test
    // queues behind it, F4 last.
    Mutex mu;
    CondVar cv;
    bool hold = false;
    bool held = false;
    log.set_pacer([&mu, &cv, &hold, &held](Bytes) {
        MutexLock lock(mu);
        if (hold) {
            held = true;
            cv.notify_all();
        }
        while (hold) {
            cv.wait(mu);
        }
    });

    const auto data = pattern(1024, 7);
    const auto append = [&log, &data](std::uint64_t tenant,
                                      std::uint64_t counter) {
        return log.append(tenant, counter, counter, data.data(),
                          data.size());
    };
    for (std::uint64_t tenant : {kX, kY, kZ}) {
        ASSERT_TRUE(append(tenant, 1).ok());
    }
    ASSERT_TRUE(append(kF, 1).ok());
    ASSERT_TRUE(append(kF, 2).ok());
    {
        MutexLock lock(mu);
        hold = true;
    }
    const std::array<std::array<std::uint64_t, 2>, 5> appends = {
        {{kF, 3}, {kX, 2}, {kY, 2}, {kZ, 2}, {kF, 4}}};
    std::vector<StorageStatus> results(appends.size());
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < appends.size(); ++i) {
        threads.emplace_back([&append, &results, &appends, i] {
            results[i] = append(appends[i][0], appends[i][1]);
        });
        if (i == 0) {
            MutexLock lock(mu);
            while (!held) {
                cv.wait(mu);
            }
        } else if (i == 3 || i == 4) {
            // No queue probe exists: give the appends time to queue.
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
    }
    {
        MutexLock lock(mu);
        hold = false;
        cv.notify_all();
    }
    for (std::thread& thread : threads) {
        thread.join();
    }
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_TRUE(results[i].ok()) << "append " << i;
    }
    EXPECT_EQ(log.stats().recycles, 1u);
    for (const SegmentRecordInfo& record :
         segment_scan(device, 0, config)) {
        EXPECT_FALSE(record.tenant != kF && record.counter == 1)
            << "tenant " << record.tenant << "'s first record survived";
    }
}

TEST(SegmentLogTest, PinnedRecordIsRelocatedSoTheRingKeepsRecycling)
{
    // Tenant X checkpoints once and then goes quiet; F keeps going.
    // X's only record stays its newest durable one, so the gate never
    // lets it recycle: each lap copies it forward instead of blocking
    // the ring on X's segment.
    const SegmentLogConfig config = tiny_segments();
    MemStorage device(SegmentLog::required_size(config));
    SegmentLog log(device, 0, config);
    ASSERT_TRUE(log.format().ok());
    constexpr std::uint64_t kX = 1;
    constexpr std::uint64_t kF = 2;
    std::map<std::uint64_t, std::uint64_t> newest;
    gate_on_newest(log, newest);

    const auto x = pattern(1024, 42);
    ASSERT_TRUE(log.append(kX, 1, 100, x.data(), x.size()).ok());
    for (std::uint64_t i = 1; i <= 30; ++i) {
        const auto data = pattern(1024, static_cast<std::uint8_t>(i));
        ASSERT_TRUE(log.append(kF, i, i, data.data(), data.size()).ok())
            << "append " << i;
    }
    const SegmentLogStats stats = log.stats();
    EXPECT_EQ(stats.records, 31u);
    EXPECT_GE(stats.recycles, 3u);
    EXPECT_GE(stats.relocations, 1u);
    // X's record is still recoverable, byte for byte.
    std::uint64_t newest_f = 0;
    int x_copies = 0;
    for (const SegmentRecordInfo& record :
         segment_scan(device, 0, config)) {
        if (record.tenant == kF) {
            newest_f = std::max(newest_f, record.counter);
            continue;
        }
        ASSERT_EQ(record.tenant, kX);
        EXPECT_EQ(record.counter, 1u);
        EXPECT_EQ(record.iteration, 100u);
        std::vector<std::uint8_t> payload;
        ASSERT_TRUE(segment_fetch(device, 0, record, &payload));
        EXPECT_EQ(payload, x);
        ++x_copies;
    }
    EXPECT_GE(x_copies, 1);
    EXPECT_EQ(newest_f, 30u);
}

TEST(SegmentLogTest, ChainWalkStopsAtATornPublish)
{
    const SegmentLogConfig config = tiny_segments();
    MemStorage device(SegmentLog::required_size(config));
    SegmentLog log(device, 0, config);
    ASSERT_TRUE(log.format().ok());
    const auto a = pattern(800, 1);
    const auto b = pattern(800, 2);
    ASSERT_TRUE(log.append(3, 1, 10, a.data(), a.size()).ok());
    ASSERT_TRUE(log.append(3, 2, 20, b.data(), b.size()).ok());
    auto records = segment_scan(device, 0, config);
    ASSERT_EQ(records.size(), 2u);

    // Simulate a crash before the second batch's publish: its first
    // record header never landed. Zeroing it must drop that record
    // from the scan while leaving the first batch untouched.
    const SegmentRecordInfo* second = nullptr;
    for (const SegmentRecordInfo& record : records) {
        if (record.counter == 2) {
            second = &record;
        }
    }
    ASSERT_NE(second, nullptr);
    std::memset(device.raw() + second->record_offset, 0,
                SegmentLog::kRecordAlign);
    records = segment_scan(device, 0, config);
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].counter, 1u);
    std::vector<std::uint8_t> payload;
    ASSERT_TRUE(segment_fetch(device, 0, records[0], &payload));
    EXPECT_EQ(std::memcmp(payload.data(), a.data(), a.size()), 0);
}

// ---------------------------------------------------------------------
// Crafted sealed input: a forged header, record or manifest entry with
// a valid CRC must read as torn, never throw or escape its segment.

/** Recompute the trailing CRC-32C of the @p size-byte record at @p at. */
void
reseal(std::uint8_t* at, Bytes size)
{
    const std::uint32_t crc = crc32c(at, size - sizeof(std::uint32_t));
    std::memcpy(at + size - sizeof(crc), &crc, sizeof(crc));
}

template <typename Field>
void
poke(std::uint8_t* at, Bytes offset, Field value)
{
    std::memcpy(at + offset, &value, sizeof(value));
}

TEST(SegmentScanTest, ForgedManifestCountIsATornSegment)
{
    using segment_wire::RawSegmentHeader;
    const SegmentLogConfig config = tiny_segments();
    MemStorage device(SegmentLog::required_size(config));
    {
        SegmentLog log(device, 0, config);
        ASSERT_TRUE(log.format().ok());
        const auto a = pattern(800, 1);
        ASSERT_TRUE(log.append(3, 1, 10, a.data(), a.size()).ok());
    }
    ASSERT_EQ(segment_scan(device, 0, config).size(), 1u);
    // Seal segment 0's header over a manifest of UINT32_MAX entries
    // (about 206 GB): a valid CRC over an impossible count.
    std::uint8_t* const hdr = device.raw();
    poke(hdr, offsetof(RawSegmentHeader, sealed), std::uint32_t{1});
    poke(hdr, offsetof(RawSegmentHeader, manifest_off),
         std::uint64_t{sizeof(RawSegmentHeader)});
    poke(hdr, offsetof(RawSegmentHeader, record_count),
         std::numeric_limits<std::uint32_t>::max());
    reseal(hdr, sizeof(RawSegmentHeader));
    std::vector<SegmentRecordInfo> records;
    EXPECT_NO_THROW(records = segment_scan(device, 0, config));
    EXPECT_TRUE(records.empty());
}

TEST(SegmentScanTest, ForgedRecordLengthIsATornRecord)
{
    using segment_wire::RawRecordHeader;
    const SegmentLogConfig config = tiny_segments();
    MemStorage device(SegmentLog::required_size(config));
    const auto a = pattern(800, 1);
    const auto b = pattern(800, 2);
    {
        SegmentLog log(device, 0, config);
        ASSERT_TRUE(log.format().ok());
        ASSERT_TRUE(log.append(3, 1, 10, a.data(), a.size()).ok());
        ASSERT_TRUE(log.append(3, 2, 20, b.data(), b.size()).ok());
    }
    std::vector<SegmentRecordInfo> records = segment_scan(device, 0, config);
    ASSERT_EQ(records.size(), 2u);
    const Bytes second = records[0].counter == 2 ? records[0].record_offset
                                                 : records[1].record_offset;
    // data_len = 2^64 - 11: the record's end wraps to a small offset.
    std::uint8_t* const rec = device.raw() + second;
    poke(rec, offsetof(RawRecordHeader, data_len),
         std::numeric_limits<std::uint64_t>::max() - 10);
    reseal(rec, sizeof(RawRecordHeader));
    EXPECT_NO_THROW(records = segment_scan(device, 0, config));
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].counter, 1u);
    std::vector<std::uint8_t> payload;
    bool fetched = false;
    EXPECT_NO_THROW(fetched = segment_fetch(device, 0, records[0], &payload));
    EXPECT_TRUE(fetched);
    EXPECT_EQ(payload, a);
}

TEST(SegmentScanTest, ForgedManifestEntryOutsideItsSegmentIsTorn)
{
    using segment_wire::RawManifestEntry;
    using segment_wire::RawSegmentHeader;
    const SegmentLogConfig config = tiny_segments();
    for (const bool forge_length : {false, true}) {
        SCOPED_TRACE(forge_length ? "data_len" : "record_off");
        MemStorage device(SegmentLog::required_size(config));
        {
            SegmentLog log(device, 0, config);
            ASSERT_TRUE(log.format().ok());
            // Four 1 KiB records: three fill segment 0, which seals.
            for (std::uint64_t i = 1; i <= 4; ++i) {
                const auto data =
                    pattern(1024, static_cast<std::uint8_t>(i));
                ASSERT_TRUE(
                    log.append(5, i, i, data.data(), data.size()).ok());
            }
        }
        RawSegmentHeader hdr{};
        std::memcpy(&hdr, device.raw(), sizeof(hdr));
        ASSERT_EQ(hdr.sealed, 1u);
        ASSERT_GT(hdr.record_count, 0u);
        // Re-seal the first entry with a bound past its segment, then
        // the manifest CRC and the header over it.
        std::uint8_t* const manifest = device.raw() + hdr.manifest_off;
        if (forge_length) {
            poke(manifest, offsetof(RawManifestEntry, data_len),
                 std::numeric_limits<std::uint64_t>::max() - 10);
        } else {
            poke(manifest, offsetof(RawManifestEntry, record_off),
                 config.segment_bytes);
        }
        reseal(manifest, sizeof(RawManifestEntry));
        poke(device.raw(), offsetof(RawSegmentHeader, manifest_crc),
             crc32c(manifest, Bytes{hdr.record_count} *
                                  sizeof(RawManifestEntry)));
        reseal(device.raw(), sizeof(RawSegmentHeader));

        std::vector<SegmentRecordInfo> records;
        EXPECT_NO_THROW(records = segment_scan(device, 0, config));
        std::size_t in_segment0 = 0;
        for (const SegmentRecordInfo& record : records) {
            const Bytes rel =
                record.record_offset - Bytes{record.segment} *
                                           config.segment_bytes;
            EXPECT_GE(rel, sizeof(RawSegmentHeader));
            EXPECT_LE(rel, config.segment_bytes - 64);
            EXPECT_LE(record.data_len, config.segment_bytes - 64 - rel);
            std::vector<std::uint8_t> payload;
            bool fetched = false;
            EXPECT_NO_THROW(fetched =
                                segment_fetch(device, 0, record, &payload));
            EXPECT_TRUE(fetched);
            in_segment0 += record.segment == 0 ? 1 : 0;
        }
        // The rejected manifest demotes segment 0 to its chain walk,
        // which still finds every record the manifest indexed.
        EXPECT_EQ(in_segment0, hdr.record_count);
    }
}

TEST(SegmentWireTest, OnMediaLayoutIsFrozen)
{
    // These constants are the on-media contract; a change here breaks
    // recovery of every formatted backend.
    EXPECT_EQ(sizeof(segment_wire::RawSegmentHeader), 64u);
    EXPECT_EQ(sizeof(segment_wire::RawRecordHeader), 64u);
    EXPECT_EQ(sizeof(segment_wire::RawManifestEntry), 48u);
    EXPECT_EQ(segment_wire::kSegmentMagic, 0x5043534547480031ULL);
    EXPECT_EQ(segment_wire::kRecordMagic, 0x5043534547520031ULL);
}

// ---------------------------------------------------------------------
// Shard routing + layout

TEST(ShardRoutingTest, FrozenSplitmix64Routing)
{
    // Golden values of the splitmix64 routing — part of the on-media
    // contract, must never change for formatted backends.
    EXPECT_EQ(service_shard_of(0, 2), 1);
    EXPECT_EQ(service_shard_of(1, 2), 1);
    EXPECT_EQ(service_shard_of(2, 2), 0);
    EXPECT_EQ(service_shard_of(3, 2), 1);
    EXPECT_EQ(service_shard_of(42, 2), 1);
    EXPECT_EQ(service_shard_of(1000, 2), 0);
    EXPECT_EQ(service_shard_of(0, 4), 3);
    EXPECT_EQ(service_shard_of(1, 4), 1);
    EXPECT_EQ(service_shard_of(2, 4), 2);
    EXPECT_EQ(service_shard_of(256, 4), 3);
    EXPECT_EQ(service_shard_of(1000, 4), 0);
    EXPECT_EQ(service_shard_of(7, 8), 7);
    EXPECT_EQ(service_shard_of(42, 8), 5);
}

TEST(ShardRoutingTest, RoutingIsStableAndReasonablyBalanced)
{
    for (int shards : {2, 4}) {
        std::vector<int> counts(shards, 0);
        for (std::uint64_t id = 0; id < 256; ++id) {
            const int shard = service_shard_of(id, shards);
            ASSERT_GE(shard, 0);
            ASSERT_LT(shard, shards);
            ASSERT_EQ(shard, service_shard_of(id, shards));  // stable
            ++counts[shard];
        }
        for (int count : counts) {
            // 256 ids over <= 4 shards: every shard gets a fair cut.
            EXPECT_GE(count, 256 / shards / 2);
        }
    }
}

ServiceConfig
two_shard_config()
{
    ServiceConfig config;
    config.shards = 2;
    config.coalescer.threshold_bytes = 16 * kKiB;
    config.coalescer.segment_bytes = 64 * kKiB;
    config.coalescer.segments_per_backend = 4;
    // Big tenants 0 (shard 1) and 2 (shard 0); coalesced tenants 1, 3
    // (shard 1) and 1000 (shard 0) — see FrozenSplitmix64Routing.
    for (std::uint64_t id : {0ULL, 2ULL}) {
        TenantSpec spec;
        spec.id = id;
        spec.state_bytes = 128 * kKiB;
        spec.checkpoint.concurrent_checkpoints = 1;
        config.tenants.push_back(spec);
    }
    for (std::uint64_t id : {1ULL, 3ULL, 1000ULL}) {
        TenantSpec spec;
        spec.id = id;
        spec.state_bytes = 4 * kKiB;
        config.tenants.push_back(spec);
    }
    return config;
}

TEST(ShardLayoutTest, LayoutIsDeterministicAndOrderInvariant)
{
    ServiceConfig config = two_shard_config();
    const ShardLayout layout0 = plan_shard_layout(config, 0);
    const ShardLayout layout1 = plan_shard_layout(config, 1);
    // Shard 0: big tenant 2 + coalesced 1000; shard 1: big tenant 0 +
    // coalesced 1 and 3.
    ASSERT_EQ(layout0.tenants.size(), 2u);
    ASSERT_EQ(layout1.tenants.size(), 3u);
    EXPECT_EQ(layout0.tenants[0].id, 2u);
    EXPECT_FALSE(layout0.tenants[0].coalesced);
    EXPECT_EQ(layout0.tenants[1].id, 1000u);
    EXPECT_TRUE(layout0.tenants[1].coalesced);
    // Both shards host coalesced tenants, so both carry the ring.
    EXPECT_EQ(layout0.segment_bytes, Bytes{4} * 64 * kKiB);
    EXPECT_EQ(layout1.segment_bytes, Bytes{4} * 64 * kKiB);
    EXPECT_EQ(layout0.required_bytes,
              layout0.segment_offset + layout0.segment_bytes);

    // The layout is a pure function of the config set, not the order
    // tenants were listed — recovery depends on this.
    ServiceConfig shuffled = two_shard_config();
    std::reverse(shuffled.tenants.begin(), shuffled.tenants.end());
    const ShardLayout again = plan_shard_layout(shuffled, 0);
    ASSERT_EQ(again.tenants.size(), layout0.tenants.size());
    for (std::size_t i = 0; i < again.tenants.size(); ++i) {
        EXPECT_EQ(again.tenants[i].id, layout0.tenants[i].id);
        EXPECT_EQ(again.tenants[i].window_offset,
                  layout0.tenants[i].window_offset);
        EXPECT_EQ(again.tenants[i].window_bytes,
                  layout0.tenants[i].window_bytes);
    }
    EXPECT_EQ(again.segment_offset, layout0.segment_offset);
}

TEST(ShardLayoutTest, NoSegmentRegionWithoutCoalescedTenants)
{
    ServiceConfig config;
    config.shards = 1;
    TenantSpec spec;
    spec.id = 1;
    spec.state_bytes = 256 * kKiB;  // above the threshold
    config.tenants.push_back(spec);
    const ShardLayout layout = plan_shard_layout(config, 0);
    EXPECT_EQ(layout.segment_bytes, 0u);
    EXPECT_GT(layout.required_bytes, 0u);
}

// ---------------------------------------------------------------------
// ServiceConfig validation

TEST(ServiceConfigTest, ValidateCatchesBadKnobs)
{
    ServiceConfig config;
    EXPECT_FALSE(config.validate().ok());  // no tenants

    config = two_shard_config();
    EXPECT_TRUE(config.validate().ok());

    config.shards = 0;
    EXPECT_FALSE(config.validate().ok());
    config.shards = 2;

    config.writer_threads = 0;
    EXPECT_FALSE(config.validate().ok());
    config.writer_threads = 4;

    config.qos.device_budget_bytes_per_sec = 0;
    EXPECT_FALSE(config.validate().ok());
    config.qos.enabled = false;  // budget only required when QoS is on
    config.qos.device_budget_bytes_per_sec = 2e9;
    config.qos.enabled = true;

    config.coalescer.segments_per_backend = 1;
    EXPECT_FALSE(config.validate().ok());
    config.coalescer.segments_per_backend = 4;

    // Duplicate tenant ids.
    config.tenants.push_back(config.tenants.front());
    EXPECT_FALSE(config.validate().ok());
    config.tenants.pop_back();

    // A coalesced record (+ framing overhead) must fit one segment.
    config.coalescer.segment_bytes = 4 * kKiB;
    EXPECT_FALSE(config.validate().ok());
    config.coalescer.segment_bytes = 64 * kKiB;

    config.tenants[0].weight = 0.0;
    EXPECT_FALSE(config.validate().ok());
    // Inputs that would otherwise pass validation and abort later in
    // an internal check of the admission buckets or the shard
    // throttle: an infinite weight, a NaN budget with QoS on, and a
    // negative or NaN budget with QoS off.
    config.tenants[0].weight = std::numeric_limits<double>::infinity();
    EXPECT_FALSE(config.validate().ok());
    config.tenants[0].weight = 1.0;
    config.qos.device_budget_bytes_per_sec =
        std::numeric_limits<double>::quiet_NaN();
    EXPECT_FALSE(config.validate().ok());
    config.qos.enabled = false;
    EXPECT_FALSE(config.validate().ok());
    config.qos.device_budget_bytes_per_sec = -1;
    EXPECT_FALSE(config.validate().ok());
    config.qos.device_budget_bytes_per_sec = 0;  // unthrottled FIFO
    EXPECT_TRUE(config.validate().ok());
    config.qos.enabled = true;
    config.qos.device_budget_bytes_per_sec = 2e9;
    EXPECT_TRUE(config.validate().ok());

    // A coalesced tenant's N sizes its staging buffers, so its
    // orchestrator knobs are checked like a big tenant's.
    TenantSpec& small = config.tenants.back();
    ASSERT_TRUE(tenant_coalesced(small, config.coalescer));
    small.checkpoint.concurrent_checkpoints = 0;
    EXPECT_FALSE(config.validate().ok());
    small.checkpoint.concurrent_checkpoints = 0xFFFF;
    EXPECT_FALSE(config.validate().ok());
}

// ---------------------------------------------------------------------
// CheckpointService end to end

struct ServiceFixture {
    ServiceConfig config;
    std::vector<std::unique_ptr<MemStorage>> media;
    std::vector<StorageDevice*> backends;

    explicit ServiceFixture(ServiceConfig service_config)
        : config(std::move(service_config))
    {
        for (int s = 0; s < config.shards; ++s) {
            media.push_back(std::make_unique<MemStorage>(
                plan_shard_layout(config, s).required_bytes));
            backends.push_back(media.back().get());
        }
    }
};

/** Tenant-private iteration namespace: bleed across tenants makes the
 *  recovered stamp land in the wrong range. */
std::uint64_t
iter_base(std::uint64_t tenant)
{
    return tenant * 100000 + 1000;
}

/** Drive @p rounds stamped update+checkpoint rounds on one session. */
void
drive_tenant(TrainingState& state, Checkpointer& session,
             std::uint64_t tenant, int rounds)
{
    for (int i = 1; i <= rounds; ++i) {
        const std::uint64_t iteration = iter_base(tenant) + i;
        session.before_update(iteration);
        state.stamp(iteration);
        session.request_checkpoint(iteration);
    }
    session.finish();
}

TEST(CheckpointServiceTest, TenantsCheckpointAndResolveAcrossShards)
{
    ServiceFixture fixture(two_shard_config());
    // Generous burst so admission never skips in this functional test.
    fixture.config.qos.burst_bytes = kMiB;
    CheckpointService service(fixture.config, fixture.backends);
    EXPECT_EQ(service.shards(), 2);

    SimGpu gpu(fast_gpu());
    std::vector<std::unique_ptr<TrainingState>> states;
    for (const TenantSpec& spec : fixture.config.tenants) {
        states.push_back(
            std::make_unique<TrainingState>(gpu, spec.state_bytes));
        Checkpointer* session =
            service.attach_tenant(spec.id, *states.back());
        ASSERT_NE(session, nullptr);
        EXPECT_EQ(service.session(spec.id), session);
        drive_tenant(*states.back(), *session, spec.id, 4);
    }
    service.finish();

    const ServiceStats stats = service.stats();
    EXPECT_GT(stats.completed, 0u);
    EXPECT_GT(stats.coalesced_records, 0u);

    for (const TenantSpec& spec : fixture.config.tenants) {
        const TenantWatermark wm = service.watermark(spec.id);
        ASSERT_TRUE(wm.valid) << "tenant " << spec.id;
        EXPECT_GT(wm.iteration, iter_base(spec.id));

        // Static resolution from the raw media must find at least the
        // watermark, and the bytes must verify as this tenant's stamp.
        const TenantRecovery recovery = CheckpointService::resolve_tenant(
            fixture.config, fixture.backends, spec.id);
        ASSERT_TRUE(recovery.found) << "tenant " << spec.id;
        EXPECT_GE(recovery.result.iteration, wm.iteration);
        const bool coalesced =
            tenant_coalesced(spec, fixture.config.coalescer);
        EXPECT_STREQ(recovery.source, coalesced ? "segments" : "slots");
        const auto verified = TrainingState::verify_buffer(
            recovery.image.data(), recovery.image.size());
        ASSERT_TRUE(verified.has_value()) << "tenant " << spec.id;
        // No cross-tenant bleed: the stamp sits in this tenant's own
        // iteration namespace.
        EXPECT_GT(*verified, iter_base(spec.id));
        EXPECT_LT(*verified, iter_base(spec.id) + 100);
        EXPECT_EQ(*verified, recovery.result.iteration);
    }

    // Unknown tenants resolve to nothing.
    EXPECT_FALSE(CheckpointService::resolve_tenant(fixture.config,
                                                   fixture.backends, 777)
                     .found);
}

TEST(CheckpointServiceTest, OverBudgetCheckpointsSkipNeverStall)
{
    ServiceConfig config = two_shard_config();
    // One checkpoint of burst and a refill far slower than the
    // request rate: the first request per tenant is admitted, the
    // back-to-back rest are rejected (skipped).
    config.qos.device_budget_bytes_per_sec = 4.0 * kMiB;
    for (TenantSpec& spec : config.tenants) {
        spec.state_bytes = 4 * kKiB;  // all coalesced
    }
    config.qos.burst_bytes = 4 * kKiB;
    ServiceFixture fixture(std::move(config));
    CheckpointService service(fixture.config, fixture.backends);

    SimGpu gpu(fast_gpu());
    std::vector<std::unique_ptr<TrainingState>> states;
    for (const TenantSpec& spec : fixture.config.tenants) {
        states.push_back(
            std::make_unique<TrainingState>(gpu, spec.state_bytes));
        Checkpointer* session =
            service.attach_tenant(spec.id, *states.back());
        drive_tenant(*states.back(), *session, spec.id, 5);
    }
    service.finish();

    const ServiceStats stats = service.stats();
    // Backpressure became skips: rejections happened, nothing hung,
    // and every admitted checkpoint still completed.
    EXPECT_GE(stats.rejected, 1u);
    EXPECT_GE(stats.admitted, fixture.config.tenants.size());
    EXPECT_GT(stats.completed, 0u);
    EXPECT_LT(stats.completed, stats.requested);
}

TEST(CheckpointServiceTest, FifoQueueingCountsAsThrottledWithoutQos)
{
    // QoS off: each write is one FIFO turn on the shard throttle. Two
    // big tenants checkpoint at once, each with several writer
    // threads, at a budget where one 128 KiB checkpoint takes ~16 ms:
    // their writes queue behind each other well past 500 µs.
    ServiceConfig config;
    config.shards = 1;
    config.qos.enabled = false;
    config.qos.device_budget_bytes_per_sec = 8.0 * kMiB;
    for (std::uint64_t id : {0ULL, 2ULL}) {
        TenantSpec spec;
        spec.id = id;
        spec.state_bytes = 128 * kKiB;
        spec.checkpoint.concurrent_checkpoints = 1;
        config.tenants.push_back(spec);
    }
    ServiceFixture fixture(std::move(config));
    CheckpointService service(fixture.config, fixture.backends);

    std::vector<std::unique_ptr<SimGpu>> gpus;
    std::vector<std::unique_ptr<TrainingState>> states;
    std::vector<Checkpointer*> sessions;
    for (const TenantSpec& spec : fixture.config.tenants) {
        gpus.push_back(std::make_unique<SimGpu>(fast_gpu()));
        states.push_back(
            std::make_unique<TrainingState>(*gpus.back(), spec.state_bytes));
        sessions.push_back(service.attach_tenant(spec.id, *states.back()));
    }
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < sessions.size(); ++i) {
        threads.emplace_back([&, i] {
            drive_tenant(*states[i], *sessions[i],
                         fixture.config.tenants[i].id, 3);
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }
    service.finish();

    const ServiceStats stats = service.stats();
    EXPECT_GT(stats.completed, 0u);
    EXPECT_GT(stats.throttled, 0u);
}

/** One shard with one coalesced 4 KiB tenant (id 1) and a budget at
 *  which pacing one record takes ~63 ms. */
ServiceConfig
slow_shard_config()
{
    ServiceConfig config;
    config.shards = 1;
    config.qos.device_budget_bytes_per_sec = 64.0 * kKiB;
    config.coalescer.threshold_bytes = 16 * kKiB;
    config.coalescer.segment_bytes = 64 * kKiB;
    config.coalescer.segments_per_backend = 4;
    TenantSpec spec;
    spec.id = 1;
    spec.state_bytes = 4 * kKiB;
    config.tenants.push_back(spec);
    return config;
}

Seconds
record_pacing(const ServiceConfig& config)
{
    return static_cast<double>(SegmentLog::record_bytes(4 * kKiB)) /
           config.qos.device_budget_bytes_per_sec;
}

TEST(CheckpointServiceTest, CoalescedRequestWaitsOnlyForItsSnapshot)
{
    ServiceFixture fixture(slow_shard_config());
    const Seconds pacing = record_pacing(fixture.config);
    ASSERT_GE(pacing, 0.05);
    CheckpointService service(fixture.config, fixture.backends);
    SimGpu gpu(fast_gpu());
    TrainingState state(gpu, 4 * kKiB);
    Checkpointer* session = service.attach_tenant(1, state);

    const std::uint64_t iteration = iter_base(1) + 1;
    state.stamp(iteration);
    Stopwatch watch;
    session->request_checkpoint(iteration);
    // The record is queued; the device time is the flusher's.
    EXPECT_LT(watch.elapsed(), pacing / 10);
    session->finish();
    const TenantWatermark wm = service.watermark(1);
    ASSERT_TRUE(wm.valid);
    EXPECT_EQ(wm.iteration, iteration);
    // The stall is the snapshot alone; the latency runs to durable.
    const CheckpointerStats stats = session->stats();
    EXPECT_EQ(stats.completed, 1u);
    EXPECT_LT(stats.stall_time, pacing / 10);
    EXPECT_GE(stats.checkpoint_latency.mean(), pacing * 0.9);
}

TEST(CheckpointServiceTest, CoalescedTenantKeepsNRecordsInFlight)
{
    for (const int n : {1, 2}) {
        SCOPED_TRACE("concurrent_checkpoints = " + std::to_string(n));
        ServiceConfig config = slow_shard_config();
        config.qos.burst_bytes = kMiB;  // admission takes N + 1 requests
        config.tenants[0].checkpoint.concurrent_checkpoints = n;
        ServiceFixture fixture(std::move(config));
        const Seconds pacing = record_pacing(fixture.config);
        CheckpointService service(fixture.config, fixture.backends);
        SimGpu gpu(fast_gpu());
        TrainingState state(gpu, 4 * kKiB);
        Checkpointer* session = service.attach_tenant(1, state);

        const std::uint64_t first = iter_base(1) + 1;
        const std::uint64_t last = first + static_cast<std::uint64_t>(n);
        Stopwatch watch;
        for (std::uint64_t iteration = first; iteration < last;
             ++iteration) {
            state.stamp(iteration);
            watch.reset();
            session->request_checkpoint(iteration);
            // A staging buffer was free: no wait for a record.
            EXPECT_LT(watch.elapsed(), pacing / 4);
        }
        state.stamp(last);
        watch.reset();
        session->request_checkpoint(last);
        // All N buffers were busy: the request waited for the first
        // record to become durable, and the last one is still pacing.
        EXPECT_GT(watch.elapsed(), pacing / 2);
        EXPECT_GE(service.watermark(1).iteration, first);
        EXPECT_LT(service.watermark(1).iteration, last);
        session->finish();
        EXPECT_EQ(service.watermark(1).iteration, last);
        EXPECT_EQ(session->stats().completed,
                  static_cast<std::uint64_t>(n) + 1);
    }
}

TEST(CheckpointServiceTest, KillTenantStopsTrafficOthersContinue)
{
    ServiceFixture fixture(two_shard_config());
    fixture.config.qos.burst_bytes = kMiB;
    CheckpointService service(fixture.config, fixture.backends);

    SimGpu gpu(fast_gpu());
    TrainingState victim_state(gpu, 4 * kKiB);   // tenant 1, shard 1
    TrainingState survivor_state(gpu, 4 * kKiB); // tenant 3, shard 1
    Checkpointer* victim = service.attach_tenant(1, victim_state);
    Checkpointer* survivor = service.attach_tenant(3, survivor_state);

    drive_tenant(victim_state, *victim, 1, 2);
    const TenantWatermark before = service.watermark(1);
    ASSERT_TRUE(before.valid);

    service.kill_tenant(1);
    EXPECT_FALSE(service.tenant_alive(1));
    drive_tenant(victim_state, *victim, 1, 3);
    // Dead tenant: no new durable work, watermark frozen.
    EXPECT_EQ(service.watermark(1).counter, before.counter);
    // The survivor on the same shard keeps checkpointing.
    drive_tenant(survivor_state, *survivor, 3, 2);
    EXPECT_TRUE(service.watermark(3).valid);
}

TEST(CheckpointServiceTest, KillBackendFailsOnlyItsShard)
{
    ServiceFixture fixture(two_shard_config());
    fixture.config.qos.burst_bytes = kMiB;
    CheckpointService service(fixture.config, fixture.backends);

    SimGpu gpu(fast_gpu());
    TrainingState on_dead(gpu, 4 * kKiB);   // tenant 1000, shard 0
    TrainingState on_live(gpu, 4 * kKiB);   // tenant 1, shard 1
    Checkpointer* dead_session = service.attach_tenant(1000, on_dead);
    Checkpointer* live_session = service.attach_tenant(1, on_live);

    drive_tenant(on_dead, *dead_session, 1000, 2);
    const TenantWatermark before = service.watermark(1000);
    ASSERT_TRUE(before.valid);

    service.kill_backend(0);
    EXPECT_FALSE(service.backend_alive(0));
    EXPECT_TRUE(service.backend_alive(1));

    drive_tenant(on_dead, *dead_session, 1000, 3);
    EXPECT_EQ(service.watermark(1000).counter, before.counter);
    // The other shard is untouched.
    drive_tenant(on_live, *live_session, 1, 3);
    EXPECT_TRUE(service.watermark(1).valid);
}

// ---------------------------------------------------------------------
// Fault plumbing: kill_tenant / kill_backend actions

TEST(ServiceFaultTest, FaultPlanParsesKillActions)
{
    const FaultPlan plan = FaultPlan::parse(
        "*:kill_tenant=7@nth=2,limit=1;*:kill_backend=1@nth=3,limit=1");
    ASSERT_EQ(plan.rules().size(), 2u);
    EXPECT_EQ(plan.rules()[0].action, FaultAction::kKillTenant);
    EXPECT_EQ(plan.rules()[0].target, 7u);
    EXPECT_EQ(plan.rules()[0].nth, 2u);
    EXPECT_EQ(plan.rules()[1].action, FaultAction::kKillBackend);
    EXPECT_EQ(plan.rules()[1].target, 1u);
}

TEST(ServiceFaultTest, InjectorRoutesKillActionsToHandlers)
{
    FaultInjector injector(
        1, FaultPlan::parse(
               "*:kill_tenant=7@nth=2,limit=1;"
               "*:kill_backend=1@nth=3,limit=1"));
    std::vector<std::uint64_t> tenants;
    std::vector<std::uint64_t> backends;
    injector.set_kill_tenant_handler(
        [&tenants](std::uint64_t id) { tenants.push_back(id); });
    injector.set_kill_backend_handler(
        [&backends](std::uint64_t id) { backends.push_back(id); });
    for (int i = 0; i < 4; ++i) {
        // Kill actions never fail the instrumented op itself.
        EXPECT_TRUE(injector.on_op("storage.write").ok());
    }
    ASSERT_EQ(tenants.size(), 1u);
    EXPECT_EQ(tenants[0], 7u);
    ASSERT_EQ(backends.size(), 1u);
    EXPECT_EQ(backends[0], 1u);
    EXPECT_EQ(injector.tenant_kills(), 1u);
    EXPECT_EQ(injector.backend_kills(), 1u);
}

TEST(ServiceFaultTest, ArmedServiceLosesTheTenantMidTraffic)
{
    ServiceFixture fixture(two_shard_config());
    fixture.config.qos.burst_bytes = kMiB;
    auto injector = std::make_shared<FaultInjector>(1);
    // Route shard 1's storage ops through the injector so the op
    // counter advances with real traffic.
    auto faulty = std::make_unique<FaultyStorage>(
        std::move(fixture.media[1]), injector);
    fixture.backends[1] = faulty.get();

    CheckpointService service(fixture.config, fixture.backends);
    service.arm_faults(*injector);
    // Construction already formatted the segment ring through the
    // injector, so aim the trigger past the ops it consumed.
    FaultRule kill;
    kill.point = "*";
    kill.action = FaultAction::kKillTenant;
    kill.target = 1;
    kill.trigger = FaultTrigger::kNthOp;
    kill.nth = injector->ops() + 20;
    kill.limit = 1;
    injector->set_plan(FaultPlan().add(kill));

    SimGpu gpu(fast_gpu());
    TrainingState state(gpu, 4 * kKiB);  // tenant 1, shard 1
    Checkpointer* session = service.attach_tenant(1, state);
    drive_tenant(state, *session, 1, 20);
    service.finish();

    EXPECT_EQ(injector->tenant_kills(), 1u);
    EXPECT_FALSE(service.tenant_alive(1));
}

}  // namespace
}  // namespace pccheck
