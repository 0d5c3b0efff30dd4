/**
 * @file
 * Seeded node-loss sweep for the replica tier's recovery guarantee:
 * at any node_loss point — including mid-replication, mid-persist,
 * mid-commit — a replacement node recovers from surviving peers a
 * checkpoint whose counter is >= the peers' durable-publish watermark,
 * CRC-valid and stamp-verified, and resumes training on it.
 *
 * A calibration run measures the fault-op stream (storage ops +
 * net.transfer ops share one injector). Each node loss is a live
 * fault, not a crash state, so it stays on the injector: each seed
 * picks a loss offset inside the stream and arms the loss that many ops
 * after its own mark: the op count once the faulted checkpointer is
 * set up. The count before the mark varies from run to run (a
 * checkpoint that loses the commit race publishes nothing), so an
 * absolute index could land in the set-up. Every failure replays from
 * its printed seed and loss offset.
 * Runs 64 seeds by default; PCCHECK_REPLICA_SWEEP_SEEDS overrides
 * (CI smoke runs 8 under sanitizers).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
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
#include "sweep_support.h"
#include "trainsim/training_loop.h"
#include "util/check.h"
#include "util/rng.h"

namespace pccheck {
namespace {

constexpr Bytes kState = 16 * 1024;
constexpr int kConcurrent = 2;
constexpr int kSlots = kConcurrent + 1;
constexpr std::uint64_t kWarmupIters = 4;
constexpr std::uint64_t kMainIters = 14;
constexpr std::uint64_t kInterval = 2;

struct SeedRun {
    /** Ops once the faulted checkpointer is set up; the loss is armed
     *  relative to this. */
    std::uint64_t mark = 0;
    std::uint64_t ops_total = 0;
    bool lost = false;  ///< the node_loss trigger fired
    /** Op count the loss handler saw when it fired (0 = never). */
    std::uint64_t lost_at = 0;
    /** Latest durable iteration before faults were armed. */
    std::uint64_t warm_iteration = 0;
    /** Surviving peers' view after the run (watermark + stores). */
    std::uint64_t peer_watermark = 0;
    std::unique_ptr<ReplicaStore> store1;
    std::unique_ptr<ReplicaStore> store2;
    std::unique_ptr<SimNetwork> network;
};

/**
 * One full train → node-loss → drain cycle on a 3-node fabric: rank 0
 * trains and checkpoints locally while replicating to in-DRAM stores
 * on nodes 1 and 2 (replicas=2, quorum=1). The node loss fires
 * @p loss_offset ops after the mark; 0 arms none (calibration).
 */
SeedRun
run_training(std::uint64_t seed, std::uint64_t loss_offset)
{
    SeedRun out;
    auto injector = std::make_shared<FaultInjector>(seed);
    FaultyStorage device(
        std::make_unique<MemStorage>(
            SlotStore::required_size(kSlots, kState)),
        injector);

    NetworkConfig net;
    net.nodes = 3;
    net.latency = 0;
    out.network = std::make_unique<SimNetwork>(net);
    out.network->set_fault_injector(injector);
    out.store1 = std::make_unique<ReplicaStore>();
    out.store2 = std::make_unique<ReplicaStore>();
    ReplicationConfig rconfig;
    rconfig.replicas = 2;
    rconfig.quorum = 1;
    rconfig.chunk_bytes = 4 * kKiB;
    rconfig.ack_timeout = 0.05;
    ReplicationEngine engine(
        *out.network, 0, rconfig,
        {{1, out.store1.get()}, {2, out.store2.get()}});

    SimGpu gpu(fast_gpu());
    TrainingState state(gpu, kState);
    PCcheckConfig config;
    config.concurrent_checkpoints = kConcurrent;
    config.retry_seed = seed;

    {
        // Warmup with no faults armed: establishes durable, replicated
        // checkpoints so the recovery guarantee is live for the run.
        PCcheckCheckpointer warm(state, device, config);
        warm.attach_replication(&engine);
        TrainingLoop loop(gpu, state, tiny_model());
        loop.run(kWarmupIters, kInterval, warm);
        const auto latest = warm.commit_protocol().latest_pointer();
        PCCHECK_CHECK(latest.has_value());
        out.warm_iteration = latest->iteration;
    }
    // The warmup's last replicas land before the mark, so no op runs
    // between reading the mark and arming the loss.
    engine.flush();

    {
        // The faulted main run. After the loss fires, every local
        // persist fails permanently and every transfer times out, so
        // in-flight attempts abort and the loop drains cleanly — the
        // process-exit analog for a machine that just vanished.
        PCcheckCheckpointer main_cp(state, device, config);
        main_cp.attach_replication(&engine);
        // Armed only now: a loss inside SlotStore::open would make the
        // constructor format a dead device, which aborts.
        out.mark = injector->ops();
        if (loss_offset > 0) {
            FaultRule loss;
            loss.point = "*";
            loss.action = FaultAction::kNodeLoss;
            loss.trigger = FaultTrigger::kNthOp;
            loss.nth = out.mark + loss_offset;
            loss.limit = 1;
            FaultyStorage* raw = &device;
            SimNetwork* fabric = out.network.get();
            FaultInjector* counter = injector.get();
            std::uint64_t* lost_at = &out.lost_at;
            injector->set_node_loss_handler(
                [raw, fabric, counter, lost_at] {
                    *lost_at = counter->ops();
                    // Atomic full-node failure: rank 0 loses its
                    // checkpoint media and its NIC in one step.
                    raw->kill();
                    fabric->kill_node(0);
                });
            injector->set_plan(FaultPlan().add(loss));
        }
        TrainingLoop loop(gpu, state, tiny_model());
        loop.run(kMainIters, kInterval, main_cp, kWarmupIters + 1);
        engine.flush();
    }
    out.ops_total = injector->ops();
    out.lost = injector->node_losses() > 0;
    // Disarmed: the handler points at this frame's device.
    injector->set_plan(FaultPlan());
    out.peer_watermark =
        std::max(out.store1->watermark(), out.store2->watermark());
    return out;
}

TEST(ReplicaRecoverySweepTest, PeersServeQuorumWatermarkAtAnyLossPoint)
{
    // Calibrate the length of the op stream after the mark once.
    const SeedRun calib = run_training(24601, 0);
    ASSERT_GT(calib.ops_total, calib.mark);
    ASSERT_FALSE(calib.lost);

    const int seeds = sweep_seeds("PCCHECK_REPLICA_SWEEP_SEEDS", 64);
    int lost = 0;
    for (int s = 1; s <= seeds; ++s) {
        const std::uint64_t seed = 3000 + static_cast<std::uint64_t>(s);
        Rng pick(seed * 0x9E3779B97F4A7C15ULL);
        const std::uint64_t loss_offset =
            1 + pick.next_below(calib.ops_total - calib.mark);
        SeedRun run = run_training(seed, loss_offset);
        if (!run.lost) {
            // Only legitimate when this run's op stream ended before
            // the chosen offset; anything else is a harness bug.
            ASSERT_GT(run.mark + loss_offset, run.ops_total)
                << "loss trigger silently skipped, seed " << seed;
            continue;
        }
        ++lost;
        ASSERT_GT(run.lost_at, run.mark)
            << "loss fired before its mark, seed " << seed;

        // The dead rank's local media is gone (node_loss wipes it to
        // the recovery path's eyes), so a replacement machine joins as
        // node 0 and restores from the surviving peers.
        run.network->revive_node(0);
        const std::vector<ReplicaPeer> peers = {
            {1, run.store1.get()}, {2, run.store2.get()}};
        std::vector<std::uint8_t> buffer;
        const auto restored =
            recover_latest(nullptr, *run.network, 0, peers, &buffer);
        // THE replica-tier guarantee: some surviving peer serves a
        // complete checkpoint at least as new as the quorum-acked
        // durable-publish watermark.
        ASSERT_TRUE(restored.has_value())
            << "no peer could serve a checkpoint, seed " << seed
            << " loss_offset " << loss_offset;
        EXPECT_TRUE(restored->from_replica);
        EXPECT_GE(restored->result.counter, run.peer_watermark)
            << "restored checkpoint older than the quorum watermark, "
            << "seed " << seed << " loss_offset " << loss_offset;
        EXPECT_GE(restored->result.iteration, run.warm_iteration)
            << "replicated checkpoint regressed, seed " << seed
            << " loss_offset " << loss_offset;
        EXPECT_EQ(restored->result.iteration % kInterval, 0u);
        // recover_latest validated the CRC; the stamp check proves the
        // bytes are the iteration's actual training state.
        EXPECT_EQ(
            TrainingState::verify_buffer(buffer.data(), buffer.size()),
            std::make_optional(restored->result.iteration))
            << "seed " << seed << " loss_offset " << loss_offset;

        // Resume: the replacement trains on fresh media from the
        // restored state and makes durable progress.
        MemStorage fresh(SlotStore::required_size(kSlots, kState));
        SimGpu gpu(fast_gpu());
        TrainingState state(gpu, kState);
        state.gpu().copy_to_device(state.device_ptr(), 0, buffer.data(),
                                   buffer.size(), /*pinned=*/true);
        state.stamp(restored->result.iteration);
        PCcheckConfig config;
        config.concurrent_checkpoints = kConcurrent;
        PCcheckCheckpointer resumed(state, fresh, config);
        TrainingLoop loop(gpu, state, tiny_model());
        loop.run(4, kInterval, resumed, restored->result.iteration + 1);
        const auto after = resumed.commit_protocol().latest_pointer();
        ASSERT_TRUE(after.has_value());
        EXPECT_GT(after->iteration, restored->result.iteration)
            << "resume made no durable progress, seed " << seed;
    }
    // The sweep is meaningless if the triggers never fired.
    EXPECT_GE(lost, seeds * 9 / 10);
}

TEST(ReplicaRecoverySweepTest, CalibrationIsCleanAndLossesFireAfterTheMark)
{
    // Op counts are not compared between runs: a checkpoint that
    // loses the commit race publishes nothing, so they vary.
    const SeedRun calib = run_training(4242, 0);
    EXPECT_FALSE(calib.lost);
    EXPECT_GT(calib.ops_total, calib.mark);
    EXPECT_GT(calib.peer_watermark, 0u);
    // The earliest loss the sweep can draw lands on the first op after
    // the set-up, never inside it.
    const SeedRun first = run_training(4242, 1);
    ASSERT_TRUE(first.lost);
    EXPECT_GT(first.lost_at, first.mark);
}

}  // namespace
}  // namespace pccheck
