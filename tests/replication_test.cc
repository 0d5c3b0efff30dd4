/**
 * @file
 * Unit and integration tests for the peer-replication checkpoint tier
 * (docs/REPLICATION.md): deadline-bounded transfers, the node_loss
 * fault action, ReplicaStore versioning/eviction, ReplicationEngine
 * quorum semantics, and the orchestrator's replicated commit path.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "core/orchestrator.h"
#include "core/recovery.h"
#include "core/slot_store.h"
#include "faults/fault.h"
#include "faults/faulty_storage.h"
#include "net/network.h"
#include "remote/remote_recovery.h"
#include "remote/replica_store.h"
#include "remote/replication.h"
#include "storage/mem_storage.h"
#include "trainsim/models.h"
#include "trainsim/training_loop.h"
#include "util/check.h"
#include "util/clock.h"
#include "util/crc32.h"

namespace pccheck {
namespace {

std::vector<std::uint8_t>
pattern_bytes(Bytes len, std::uint8_t base)
{
    std::vector<std::uint8_t> data(len);
    for (Bytes i = 0; i < len; ++i) {
        data[i] = static_cast<std::uint8_t>(base + i * 7);
    }
    return data;
}

/** Install a whole complete version into @p store (helper). */
void
install_version(ReplicaStore& store, std::uint64_t counter,
                std::uint64_t iteration,
                const std::vector<std::uint8_t>& data)
{
    const auto result = store.store_chunk(counter, iteration, data.size(),
                                          0, data.data(), data.size());
    ASSERT_TRUE(result.stored);
    ASSERT_TRUE(result.byte_complete);
    ASSERT_TRUE(store.seal(counter, crc32c(data.data(), data.size())));
}

TEST(ReplicationConfigTest, ValidateRejectsBadKnobs)
{
    ReplicationConfig config;  // defaults: disabled
    EXPECT_FALSE(config.enabled());
    EXPECT_TRUE(config.validate().ok());

    config.replicas = 1;
    config.quorum = 2;
    EXPECT_FALSE(config.validate().ok());
    EXPECT_EQ(config.validate().issues()[0].field, "quorum");
    EXPECT_THROW(config.validate().check("ReplicationConfig"),
                 FatalError);

    config.quorum = 1;
    config.chunk_bytes = 0;
    EXPECT_FALSE(config.validate().ok());

    config.chunk_bytes = 4096;
    config.ack_timeout = 0;
    EXPECT_FALSE(config.validate().ok());
    // NaN slips past `<= 0`; an infinite deadline makes a dead peer's
    // transfer_for sleep forever.
    for (const Seconds bad : {std::numeric_limits<Seconds>::quiet_NaN(),
                              std::numeric_limits<Seconds>::infinity()}) {
        config.ack_timeout = bad;
        EXPECT_FALSE(config.validate().ok()) << bad;
    }

    config.ack_timeout = 0.05;
    EXPECT_TRUE(config.validate().ok());
    EXPECT_TRUE(config.enabled());
}

TEST(TransferForTest, DeliversWithinDeadlineAndCountsBytes)
{
    NetworkConfig config;
    config.nodes = 2;
    config.latency = 0;
    config.nic_bytes_per_sec = 0;  // unthrottled
    SimNetwork network(config);
    const Bytes before = network.bytes_moved();
    const auto took = network.transfer_for(0, 1, 64 * kKiB, 1.0);
    ASSERT_TRUE(took.has_value());
    EXPECT_GE(*took, 0.0);
    EXPECT_EQ(network.bytes_moved(), before + 64 * kKiB);
}

TEST(TransferForTest, DeadNodeCostsTheTimeoutNeverAHang)
{
    NetworkConfig config;
    config.nodes = 2;
    config.latency = 0;
    config.nic_bytes_per_sec = 0;
    SimNetwork network(config);
    network.kill_node(1);
    EXPECT_FALSE(network.alive(1));

    const Seconds timeout = 0.01;
    Stopwatch watch;
    EXPECT_FALSE(network.transfer_for(0, 1, 1024, timeout).has_value());
    const Seconds elapsed = watch.elapsed();
    // The failure is only learned at the ack deadline...
    EXPECT_GE(elapsed, timeout * 0.9);
    // ...but never later than a comfortably bounded slop.
    EXPECT_LT(elapsed, timeout + 1.0);

    network.revive_node(1);
    EXPECT_TRUE(network.alive(1));
    EXPECT_TRUE(network.transfer_for(0, 1, 1024, 1.0).has_value());
}

TEST(TransferForTest, InjectedDropConsumesTheDeadline)
{
    NetworkConfig config;
    config.nodes = 2;
    config.latency = 0;
    config.nic_bytes_per_sec = 0;
    SimNetwork network(config);
    auto injector = std::make_shared<FaultInjector>(
        7, FaultPlan::parse("net.transfer:drop@nth=1,limit=1"));
    network.set_fault_injector(injector);

    EXPECT_FALSE(network.transfer_for(0, 1, 1024, 0.01).has_value());
    EXPECT_EQ(injector->injected(), 1u);
    // The rule's limit is spent; the retransmission goes through.
    EXPECT_TRUE(network.transfer_for(0, 1, 1024, 1.0).has_value());
    EXPECT_EQ(injector->ops(), 2u);
}

TEST(TransferForTest, EstimatePrefersFastPathsAndDeadIsInfinite)
{
    NetworkConfig config;
    config.nodes = 3;
    config.latency = 1e-6;
    config.nic_bytes_per_sec = 1e9;
    SimNetwork network(config);
    network.set_node_bandwidth(2, 1e7);  // slow replica NIC

    const Bytes len = 1 * kMiB;
    EXPECT_LT(network.estimate_transfer(1, 0, len),
              network.estimate_transfer(2, 0, len));

    network.kill_node(1);
    EXPECT_TRUE(std::isinf(network.estimate_transfer(1, 0, len)));
    EXPECT_TRUE(std::isinf(network.estimate_transfer(0, 1, len)));
}

TEST(NodeLossFaultTest, GrammarParses)
{
    const FaultPlan plan = FaultPlan::parse(
        "net.transfer:drop@p=0.5;"
        "net.transfer:stall=0.001@every=2;"
        "*:node_loss@nth=3,limit=1");
    ASSERT_EQ(plan.rules().size(), 3u);
    EXPECT_EQ(plan.rules()[0].point, "net.transfer");
    EXPECT_EQ(plan.rules()[0].action, FaultAction::kDrop);
    EXPECT_EQ(plan.rules()[0].trigger, FaultTrigger::kProbability);
    EXPECT_EQ(plan.rules()[1].action, FaultAction::kStall);
    EXPECT_DOUBLE_EQ(plan.rules()[1].stall_seconds, 0.001);
    EXPECT_EQ(plan.rules()[2].action, FaultAction::kNodeLoss);
    EXPECT_EQ(plan.rules()[2].nth, 3u);
    EXPECT_EQ(plan.rules()[2].limit, 1u);
}

TEST(NodeLossFaultTest, HandlerKillsStorageAndNicAtomically)
{
    auto injector = std::make_shared<FaultInjector>(
        11, FaultPlan::parse("*:node_loss@nth=1,limit=1"));
    FaultyStorage device(std::make_unique<MemStorage>(4096), injector);
    NetworkConfig net;
    net.nodes = 2;
    net.latency = 0;
    net.nic_bytes_per_sec = 0;
    SimNetwork network(net);
    network.set_fault_injector(injector);
    FaultyStorage* raw = &device;
    injector->set_node_loss_handler([raw, &network] {
        raw->kill();
        network.kill_node(0);
    });

    // The op that trips the rule is the first casualty: the node is
    // already dead from its own point of view when the call returns.
    const std::uint8_t byte = 0xAB;
    const StorageStatus status = device.write(0, &byte, 1);
    EXPECT_FALSE(status.ok());
    EXPECT_FALSE(status.is_transient());
    EXPECT_EQ(injector->node_losses(), 1u);
    EXPECT_TRUE(device.dead());
    EXPECT_FALSE(network.alive(0));

    // Lost media: the read fails permanently AND the buffer reads as
    // zeros (legacy callers that ignore the status still see no magic,
    // so SlotStore::open rejects the device either way).
    std::uint8_t probe = 0xFF;
    const StorageStatus dead_read = device.read(0, &probe, 1);
    EXPECT_TRUE(dead_read.is_permanent());
    EXPECT_EQ(probe, 0);
    EXPECT_FALSE(device.persist(0, 1).ok());
    EXPECT_FALSE(network.transfer_for(0, 1, 16, 0.005).has_value());
}

TEST(ReplicaStoreTest, OutOfOrderChunksAssembleSealAndRead)
{
    ReplicaStore store;
    const auto data = pattern_bytes(1000, 3);
    // Tail arrives first: network strands only order per peer, and a
    // checkpoint's chunks may interleave arbitrarily across strands.
    auto tail = store.store_chunk(42, 8, data.size(), 600,
                                  data.data() + 600, 400);
    EXPECT_TRUE(tail.stored);
    EXPECT_FALSE(tail.byte_complete);
    EXPECT_FALSE(store.newest_complete().has_value());

    auto head = store.store_chunk(42, 8, data.size(), 0, data.data(), 600);
    EXPECT_TRUE(head.stored);
    EXPECT_TRUE(head.byte_complete);
    ASSERT_TRUE(store.seal(42, crc32c(data.data(), data.size())));

    const auto newest = store.newest_complete();
    ASSERT_TRUE(newest.has_value());
    EXPECT_EQ(newest->counter, 42u);
    EXPECT_EQ(newest->iteration, 8u);
    EXPECT_EQ(newest->data_len, data.size());

    std::vector<std::uint8_t> read_back(data.size());
    ASSERT_TRUE(store.read(42, 0, read_back.data(), read_back.size()));
    EXPECT_EQ(read_back, data);
    std::uint8_t middle = 0;
    ASSERT_TRUE(store.read(42, 601, &middle, 1));
    EXPECT_EQ(middle, data[601]);
}

TEST(ReplicaStoreTest, SealNeverAcksHolesOrBadCrc)
{
    ReplicaStore store;
    const auto data = pattern_bytes(512, 9);
    // Half the bytes present: sealing must refuse (a hole is not an
    // ack, no matter what CRC the sender claims).
    (void)store.store_chunk(7, 2, data.size(), 0, data.data(), 256);
    EXPECT_FALSE(store.seal(7, crc32c(data.data(), data.size())));

    (void)store.store_chunk(7, 2, data.size(), 256, data.data() + 256,
                            256);
    EXPECT_FALSE(store.seal(7, 0xDEADBEEF));  // corrupt transfer
    EXPECT_FALSE(store.newest_complete().has_value());
    // The correct CRC still seals: a failed seal is not sticky.
    EXPECT_TRUE(store.seal(7, crc32c(data.data(), data.size())));
    EXPECT_FALSE(store.read(99, 0, nullptr, 0));
}

TEST(ReplicaStoreTest, EvictionPrefersStaleProtectsNewestComplete)
{
    const Bytes len = 1024;
    ReplicaStore store(len);  // budget: exactly one version
    const auto data = pattern_bytes(len, 1);

    // v10 incomplete, holding the whole budget.
    (void)store.store_chunk(10, 1, len, 0, data.data(), len / 2);
    EXPECT_EQ(store.stats().bytes_held, len);

    // v12 arrives: the incomplete v10 is the eviction victim.
    install_version(store, 12, 2, data);
    auto stats = store.stats();
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.versions, 1u);
    EXPECT_EQ(stats.bytes_held, len);

    // v14 cannot fit without evicting the newest complete version —
    // refused, and the refusal surfaces as a failed ack upstream.
    const auto refused = store.store_chunk(14, 3, len, 0, data.data(), len);
    EXPECT_FALSE(refused.stored);
    EXPECT_FALSE(store.seal(14, crc32c(data.data(), len)));
    // A version larger than the whole budget is refused outright.
    EXPECT_FALSE(
        store.store_chunk(16, 4, 2 * len, 0, data.data(), len).stored);
    stats = store.stats();
    EXPECT_GE(stats.rejected, 2u);

    // The protected version is still intact and recoverable.
    const auto newest = store.newest_complete();
    ASSERT_TRUE(newest.has_value());
    EXPECT_EQ(newest->counter, 12u);
    std::vector<std::uint8_t> read_back(len);
    ASSERT_TRUE(store.read(12, 0, read_back.data(), len));
    EXPECT_EQ(read_back, data);
}

TEST(ReplicaStoreTest, SealRecyclesTheSupersededBuffer)
{
    const Bytes len = 4096;
    ReplicaStore store;
    for (std::uint64_t counter = 1; counter <= 4; ++counter) {
        const auto data =
            pattern_bytes(len, static_cast<std::uint8_t>(counter));
        install_version(store, counter, counter, data);
        std::vector<std::uint8_t> read_back(len);
        ASSERT_TRUE(store.read(counter, 0, read_back.data(), len));
        EXPECT_EQ(read_back, data);
        // The newest version plus the superseded one's buffer, which
        // the next version reuses instead of allocating.
        EXPECT_EQ(store.stats().versions, 1u);
        EXPECT_EQ(store.stats().bytes_held, counter == 1 ? len : 2 * len);
    }
    // A version of another size frees the spare and allocates; the
    // superseded version's buffer becomes the new spare.
    install_version(store, 5, 5, pattern_bytes(2 * len, 9));
    EXPECT_EQ(store.stats().bytes_held, 3 * len);
}

TEST(ReplicaStoreTest, WatermarkIsMonotonic)
{
    ReplicaStore store;
    EXPECT_EQ(store.watermark(), 0u);
    store.advance_watermark(5);
    store.advance_watermark(3);  // stale report must not regress
    EXPECT_EQ(store.watermark(), 5u);
    store.advance_watermark(9);
    EXPECT_EQ(store.watermark(), 9u);
}

TEST(ReplicationEngineTest, QuorumZeroNeverGates)
{
    NetworkConfig net;
    net.nodes = 2;
    net.latency = 0;
    net.nic_bytes_per_sec = 0;
    SimNetwork network(net);
    ReplicaStore store;
    ReplicationConfig config;
    config.replicas = 1;
    config.quorum = 0;
    ReplicationEngine engine(network, 0, config, {{1, &store}});

    // No chunk sent, no seal delivered — await still never blocks.
    auto handle = engine.begin(1, 1, 128);
    EXPECT_TRUE(engine.await_quorum(handle));
    EXPECT_EQ(engine.degraded(), 0u);
}

TEST(ReplicationEngineTest, PipelinedChunksReachFullQuorum)
{
    NetworkConfig net;
    net.nodes = 3;
    net.latency = 0;
    net.nic_bytes_per_sec = 0;
    SimNetwork network(net);
    ReplicaStore store1;
    ReplicaStore store2;
    ReplicationConfig config;
    config.replicas = 2;
    config.quorum = 2;
    config.chunk_bytes = 256;  // force sub-chunking
    config.ack_timeout = 1.0;
    ReplicationEngine engine(network, 0, config,
                             {{1, &store1}, {2, &store2}});

    const auto data = pattern_bytes(1500, 5);
    auto handle = engine.begin(3, 6, data.size());
    engine.send_chunk(handle, 0, data.data(), 1000, nullptr);
    engine.send_chunk(handle, 1000, data.data() + 1000, 500, nullptr);
    engine.seal(handle, crc32c(data.data(), data.size()));
    EXPECT_TRUE(engine.await_quorum(handle));
    engine.advance_watermark(handle);
    engine.flush();

    EXPECT_EQ(engine.acks(), 2u);
    EXPECT_EQ(engine.degraded(), 0u);
    EXPECT_GE(engine.bytes_sent(), 2 * data.size());
    for (ReplicaStore* store : {&store1, &store2}) {
        const auto newest = store->newest_complete();
        ASSERT_TRUE(newest.has_value());
        EXPECT_EQ(newest->counter, 3u);
        EXPECT_EQ(store->watermark(), 3u);
        std::vector<std::uint8_t> read_back(data.size());
        ASSERT_TRUE(store->read(3, 0, read_back.data(), read_back.size()));
        EXPECT_EQ(read_back, data);
    }
}

TEST(ReplicationEngineTest, DeadPeerDegradesWithinTheAckDeadline)
{
    NetworkConfig net;
    net.nodes = 3;
    net.latency = 0;
    net.nic_bytes_per_sec = 0;
    SimNetwork network(net);
    network.kill_node(2);
    ReplicaStore store1;
    ReplicaStore store2;

    ReplicationConfig config;
    config.replicas = 2;
    config.quorum = 2;
    config.ack_timeout = 0.02;
    ReplicationEngine strict(network, 0, config,
                             {{1, &store1}, {2, &store2}});
    const auto data = pattern_bytes(512, 2);
    auto handle = strict.begin(4, 8, data.size());
    strict.send_chunk(handle, 0, data.data(), data.size(), nullptr);
    strict.seal(handle, crc32c(data.data(), data.size()));
    Stopwatch watch;
    EXPECT_FALSE(strict.await_quorum(handle));
    // Bounded degradation: one dead peer costs its ack deadline, not
    // a hang — generous slop for scheduling noise.
    EXPECT_LT(watch.elapsed(), 2.0);
    EXPECT_EQ(strict.degraded(), 1u);
    strict.flush();
    // The un-acked peer must never see a watermark for this counter.
    EXPECT_EQ(store2.watermark(), 0u);

    // The same failure under quorum=1 is absorbed by the survivor.
    config.quorum = 1;
    ReplicationEngine lax(network, 0, config,
                          {{1, &store1}, {2, &store2}});
    auto handle2 = lax.begin(5, 10, data.size());
    lax.send_chunk(handle2, 0, data.data(), data.size(), nullptr);
    lax.seal(handle2, crc32c(data.data(), data.size()));
    EXPECT_TRUE(lax.await_quorum(handle2));
    lax.advance_watermark(handle2);
    lax.flush();
    EXPECT_EQ(lax.degraded(), 0u);
    EXPECT_EQ(store1.watermark(), 5u);
    EXPECT_EQ(store2.watermark(), 0u);
}

/** A 3-node fabric: owner 0, chain head 1, chain tail 2. */
NetworkConfig
chain_fabric(double nic_bytes_per_sec)
{
    NetworkConfig net;
    net.nodes = 3;
    net.latency = 0;
    net.nic_bytes_per_sec = nic_bytes_per_sec;
    return net;
}

/** Replicate @p data as one version through @p engine and seal it. */
ReplicationEngine::Handle
replicate(ReplicationEngine& engine, std::uint64_t counter,
          const std::vector<std::uint8_t>& data)
{
    auto handle = engine.begin(counter, counter * 2, data.size());
    engine.send_chunk(handle, 0, data.data(), data.size(), nullptr);
    engine.seal(handle, crc32c(data.data(), data.size()));
    return handle;
}

TEST(ReplicationChainTest, OwnerNicCarriesOneCopy)
{
    SimNetwork network(chain_fabric(10e6));
    ReplicaStore head;
    ReplicaStore tail;
    ReplicationConfig config;
    config.replicas = 2;
    config.quorum = 2;
    config.chunk_bytes = 64 * kKiB;
    config.ack_timeout = 1.0;
    ReplicationEngine engine(network, 0, config, {{1, &head}, {2, &tail}});

    const auto data = pattern_bytes(1 * kMiB, 4);
    auto handle = replicate(engine, 3, data);
    EXPECT_TRUE(engine.await_quorum(handle));
    engine.flush();

    // The owner sends one copy; the head relays the second over its
    // own NIC; the tail sends nothing. bytes_sent counts both hops.
    EXPECT_EQ(network.bytes_sent_by(0), data.size());
    EXPECT_EQ(network.bytes_sent_by(1), data.size());
    EXPECT_EQ(network.bytes_sent_by(2), 0u);
    EXPECT_EQ(engine.bytes_sent(), 2 * data.size());
    EXPECT_EQ(engine.acks(), 2u);
    for (ReplicaStore* store : {&head, &tail}) {
        std::vector<std::uint8_t> read_back(data.size());
        ASSERT_TRUE(store->read(3, 0, read_back.data(), read_back.size()));
        EXPECT_EQ(read_back, data);
    }
}

TEST(ReplicationChainTest, SplitCutsEqualSubChunksThatTileTheChunk)
{
    for (const Bytes cap : {Bytes{1}, Bytes{4096}, 256 * kKiB}) {
        for (const Bytes len : {Bytes{1}, cap, cap + 1, cap * 3 / 2,
                                2 * cap, 5 * cap + 3}) {
            const auto split = ReplicationEngine::split(len, cap);
            EXPECT_EQ(split.count, (len + cap - 1) / cap) << len;
            Bytes end = 0;
            Bytes smallest = len;
            Bytes largest = 0;
            for (Bytes i = 0; i < split.count; ++i) {
                EXPECT_EQ(split.at(i), end) << len << " #" << i;
                EXPECT_GT(split.size(i), 0u) << len << " #" << i;
                EXPECT_LE(split.size(i), cap) << len << " #" << i;
                end += split.size(i);
                smallest = std::min(smallest, split.size(i));
                largest = std::max(largest, split.size(i));
            }
            EXPECT_EQ(end, len);
            EXPECT_LE(largest - smallest, 1u) << len;
        }
    }
    EXPECT_EQ(ReplicationEngine::split(0, 4096).count, 0u);
}

TEST(ReplicationChainTest, LanesCarryEqualBytesOfEachStagedChunk)
{
    // A staged chunk of 1.5 x chunk_bytes, the benchmark suite's shape,
    // becomes two sub-chunks, one per lane. Were they chunk_bytes plus
    // the rest, lane 0 would carry two thirds of the bytes, paying
    // egress then ingress for each: about 1.33x the NIC floor.
    constexpr Bytes kCap = 64 * kKiB;
    constexpr Bytes kLen = kCap * 3 / 2;
    constexpr Bytes kChunks = 8;
    SimNetwork network(chain_fabric(0));
    // No rules: the injector only counts transfers.
    auto injector = std::make_shared<FaultInjector>(1);
    network.set_fault_injector(injector);
    ReplicaStore head;
    ReplicaStore tail;
    ReplicationConfig config;
    config.replicas = 2;
    config.quorum = 2;
    config.chunk_bytes = kCap;
    config.ack_timeout = 1.0;
    ReplicationEngine engine(network, 0, config, {{1, &head}, {2, &tail}});

    const auto data = pattern_bytes(kChunks * kLen, 12);
    auto handle = engine.begin(11, 22, data.size());
    for (Bytes i = 0; i < kChunks; ++i) {
        engine.send_chunk(handle, i * kLen, data.data() + i * kLen, kLen,
                          nullptr);
    }
    engine.seal(handle, crc32c(data.data(), data.size()));
    EXPECT_TRUE(engine.await_quorum(handle));
    engine.flush();

    static_assert(ReplicationEngine::kLanes == 2);
    EXPECT_EQ(engine.lane_bytes(0), engine.lane_bytes(1));
    EXPECT_EQ(engine.bytes_sent(), 2 * data.size());
    // One transfer per sub-chunk per hop, and both peers hold every
    // byte.
    EXPECT_EQ(injector->ops(),
              2 * kChunks * ReplicationEngine::split(kLen, kCap).count);
    for (ReplicaStore* store : {&head, &tail}) {
        std::vector<std::uint8_t> read_back(data.size());
        ASSERT_TRUE(store->read(11, 0, read_back.data(), read_back.size()));
        EXPECT_EQ(read_back, data);
    }
}

TEST(ReplicationChainTest, DeadHeadCostsTheTailOneAckTimeout)
{
    SimNetwork network(chain_fabric(0));
    network.kill_node(1);
    ReplicaStore head;
    ReplicaStore tail;
    ReplicationConfig config;
    config.replicas = 2;
    config.quorum = 1;
    config.chunk_bytes = 16 * kKiB;
    config.ack_timeout = 0.05;
    ReplicationEngine engine(network, 0, config, {{1, &head}, {2, &tail}});

    // 16 sub-chunks: if each paid the head's timeout before falling
    // back, the two lanes would take 8 timeouts (0.4 s).
    const auto data = pattern_bytes(256 * kKiB, 6);
    Stopwatch watch;
    auto handle = replicate(engine, 5, data);
    EXPECT_TRUE(engine.await_quorum(handle));
    EXPECT_LT(watch.elapsed(), 0.25);
    engine.advance_watermark(handle);
    engine.flush();

    EXPECT_EQ(engine.degraded(), 0u);
    EXPECT_EQ(engine.acks(), 1u);
    // The tail received every byte straight from the owner.
    EXPECT_EQ(network.bytes_sent_by(0), data.size());
    EXPECT_FALSE(head.newest_complete().has_value());
    const auto newest = tail.newest_complete();
    ASSERT_TRUE(newest.has_value());
    EXPECT_EQ(newest->counter, 5u);
    EXPECT_EQ(tail.watermark(), 5u);
    EXPECT_EQ(head.watermark(), 0u);
}

TEST(ReplicationChainTest, DroppedHeadHopStillCompletesTheTail)
{
    SimNetwork network(chain_fabric(0));
    // The first transfer is always a head hop: relays start only after
    // one lands.
    auto injector = std::make_shared<FaultInjector>(
        13, FaultPlan::parse("net.transfer:drop@nth=1,limit=1"));
    network.set_fault_injector(injector);
    ReplicaStore head;
    ReplicaStore tail;
    ReplicationConfig config;
    config.replicas = 2;
    config.quorum = 1;
    config.chunk_bytes = 16 * kKiB;
    config.ack_timeout = 0.05;
    ReplicationEngine engine(network, 0, config, {{1, &head}, {2, &tail}});

    const auto data = pattern_bytes(256 * kKiB, 8);
    auto handle = replicate(engine, 7, data);
    EXPECT_TRUE(engine.await_quorum(handle));
    engine.advance_watermark(handle);
    engine.flush();

    EXPECT_EQ(injector->injected(), 1u);
    EXPECT_EQ(engine.degraded(), 0u);
    EXPECT_EQ(engine.acks(), 1u);
    EXPECT_FALSE(head.newest_complete().has_value());
    std::vector<std::uint8_t> read_back(data.size());
    ASSERT_TRUE(tail.read(7, 0, read_back.data(), read_back.size()));
    EXPECT_EQ(read_back, data);
    EXPECT_EQ(tail.watermark(), 7u);
}

TEST(ReplicationChainTest, TailWatermarkAdvancesWhenItsSealLandsLate)
{
    SimNetwork network(chain_fabric(0));
    network.set_node_bandwidth(2, 1e6);  // the tail takes ~0.13 s
    ReplicaStore head;
    ReplicaStore tail;
    ReplicationConfig config;
    config.replicas = 2;
    config.quorum = 1;
    config.chunk_bytes = 32 * kKiB;
    config.ack_timeout = 2.0;
    ReplicationEngine engine(network, 0, config, {{1, &head}, {2, &tail}});

    const auto data = pattern_bytes(128 * kKiB, 10);
    auto handle = replicate(engine, 9, data);
    EXPECT_TRUE(engine.await_quorum(handle));  // the head's ack
    engine.advance_watermark(handle);
    EXPECT_EQ(head.watermark(), 9u);
    // The tail's seal has not landed: its advance must wait for it.
    EXPECT_FALSE(tail.newest_complete().has_value());
    engine.flush();
    EXPECT_EQ(engine.acks(), 2u);
    EXPECT_EQ(tail.watermark(), 9u);
}

TEST(ReplicationChainTest, PipelinedPeersHoldAtMostTwoVersions)
{
    constexpr Bytes kState = 256 * kKiB;
    SimNetwork network(chain_fabric(50e6));
    ReplicaStore head;
    ReplicaStore tail;
    ReplicationConfig rconfig;
    rconfig.replicas = 2;
    rconfig.quorum = 1;
    rconfig.chunk_bytes = 16 * kKiB;
    rconfig.ack_timeout = 1.0;
    ReplicationEngine engine(network, 0, rconfig, {{1, &head}, {2, &tail}});

    MemStorage device(SlotStore::required_size(3, kState));
    GpuConfig gpu_config;
    gpu_config.memory_bytes = 2 * kMiB;
    gpu_config.pcie_bytes_per_sec = 0;
    SimGpu gpu(gpu_config);
    TrainingState state(gpu, kState);
    PCcheckConfig config;
    config.concurrent_checkpoints = 2;
    config.chunk_bytes = 64 * kKiB;

    // Sample both peers while checkpoints overlap on the fabric.
    std::atomic<bool> stop{false};
    std::atomic<std::size_t> most{0};
    std::thread sampler([&] {
        while (!stop.load()) {
            for (const ReplicaStore* store : {&head, &tail}) {
                const std::size_t held = store->stats().versions;
                if (held > most.load()) {
                    most.store(held);
                }
            }
            std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
    });
    std::uint64_t completed = 0;
    {
        PCcheckCheckpointer checkpointer(state, device, config);
        checkpointer.attach_replication(&engine);
        TrainingLoop loop(gpu, state,
                          scale_model(model_by_name("vgg16"),
                                      ScaleFactors{600.0, 20000.0}));
        loop.run(16, 1, checkpointer);
        engine.flush();
        completed = checkpointer.stats().completed;
    }
    stop.store(true);
    sampler.join();

    EXPECT_GE(completed, 4u);
    EXPECT_EQ(engine.degraded(), 0u);
    EXPECT_GE(most.load(), 1u);
    EXPECT_LE(most.load(), 2u);
}

TEST(RemoteRecoveryTest, PicksNewestCounterThenFastestPath)
{
    NetworkConfig net;
    net.nodes = 3;
    net.latency = 1e-6;
    net.nic_bytes_per_sec = 1e9;
    SimNetwork network(net);
    ReplicaStore store1;
    ReplicaStore store2;
    const auto older = pattern_bytes(2048, 1);
    const auto newer = pattern_bytes(2048, 77);
    install_version(store1, 5, 10, older);
    install_version(store2, 9, 18, newer);
    store1.advance_watermark(5);
    store2.advance_watermark(9);
    const std::vector<ReplicaPeer> peers = {{1, &store1}, {2, &store2}};

    std::vector<std::uint8_t> out;
    auto restored = recover_latest(nullptr, network, 0, peers, &out);
    ASSERT_TRUE(restored.has_value());
    EXPECT_TRUE(restored->from_replica);
    EXPECT_EQ(restored->source_node, 2);
    EXPECT_EQ(restored->result.counter, 9u);
    EXPECT_EQ(restored->result.iteration, 18u);
    EXPECT_EQ(out, newer);

    // The newest holder dies: recovery falls back to the next peer.
    network.kill_node(2);
    restored = recover_latest(nullptr, network, 0, peers, &out);
    ASSERT_TRUE(restored.has_value());
    EXPECT_EQ(restored->source_node, 1);
    EXPECT_EQ(restored->result.counter, 5u);
    EXPECT_EQ(out, older);

    // No surviving replica and no local media: nothing to restore.
    network.kill_node(1);
    EXPECT_FALSE(
        recover_latest(nullptr, network, 0, peers, &out).has_value());
}

TEST(OrchestratorReplicationTest, TrainingRunReplicatesAndRecovers)
{
    constexpr Bytes kState = 16 * 1024;
    constexpr int kConcurrent = 2;
    constexpr int kSlots = kConcurrent + 1;

    NetworkConfig net;
    net.nodes = 3;
    net.latency = 0;
    SimNetwork network(net);
    ReplicaStore store1;
    ReplicaStore store2;
    ReplicationConfig rconfig;
    rconfig.replicas = 2;
    rconfig.quorum = 1;
    rconfig.ack_timeout = 0.5;
    ReplicationEngine engine(network, 0, rconfig,
                             {{1, &store1}, {2, &store2}});

    MemStorage device(SlotStore::required_size(kSlots, kState));
    GpuConfig gpu_config;
    gpu_config.memory_bytes = 2 * kMiB;
    gpu_config.pcie_bytes_per_sec = 0;
    SimGpu gpu(gpu_config);
    TrainingState state(gpu, kState);
    PCcheckConfig config;
    config.concurrent_checkpoints = kConcurrent;

    std::uint64_t latest_counter = 0;
    std::uint64_t latest_iteration = 0;
    {
        PCcheckCheckpointer checkpointer(state, device, config);
        checkpointer.attach_replication(&engine);
        TrainingLoop loop(gpu, state,
                          scale_model(model_by_name("vgg16"),
                                      ScaleFactors{600.0, 20000.0}));
        loop.run(12, 2, checkpointer);
        engine.flush();

        const auto latest = checkpointer.commit_protocol().latest_pointer();
        ASSERT_TRUE(latest.has_value());
        latest_counter = latest->counter;
        latest_iteration = latest->iteration;
        // Healthy fabric: every published checkpoint met its quorum,
        // so the replicated watermark tracks the commit frontier.
        EXPECT_EQ(checkpointer.commit_protocol().replicated_watermark(),
                  latest_counter);
        EXPECT_EQ(engine.degraded(), 0u);
    }

    // Each peer holds the newest checkpoint, watermarked, bit-exact
    // with what local recovery reads back.
    std::vector<std::uint8_t> local;
    const auto local_result = recover_to_buffer(device, &local);
    ASSERT_TRUE(local_result.has_value());
    EXPECT_EQ(local_result->counter, latest_counter);
    for (ReplicaStore* store : {&store1, &store2}) {
        const auto newest = store->newest_complete();
        ASSERT_TRUE(newest.has_value());
        EXPECT_EQ(newest->counter, latest_counter);
        EXPECT_EQ(newest->iteration, latest_iteration);
        EXPECT_EQ(store->watermark(), latest_counter);
        std::vector<std::uint8_t> replica(newest->data_len);
        ASSERT_TRUE(store->read(newest->counter, 0, replica.data(),
                                replica.size()));
        EXPECT_EQ(replica, local);
    }

    // With the local device alive, recover_latest stays local.
    const std::vector<ReplicaPeer> peers = {{1, &store1}, {2, &store2}};
    std::vector<std::uint8_t> out;
    auto restored = recover_latest(&device, network, 0, peers, &out);
    ASSERT_TRUE(restored.has_value());
    EXPECT_FALSE(restored->from_replica);
    EXPECT_EQ(restored->result.counter, latest_counter);

    // Node 0 lost everything: the replica tier restores the newest
    // quorum-complete checkpoint, verified down to the stamped bytes.
    restored = recover_latest(nullptr, network, 0, peers, &out);
    ASSERT_TRUE(restored.has_value());
    EXPECT_TRUE(restored->from_replica);
    EXPECT_GE(restored->result.counter, store1.watermark());
    EXPECT_EQ(restored->result.counter, latest_counter);
    EXPECT_EQ(TrainingState::verify_buffer(out.data(), out.size()),
              std::make_optional(latest_iteration));
}

}  // namespace
}  // namespace pccheck
