/**
 * @file
 * End-to-end integration tests:
 *  - full train → crash → recover → resume cycles on the adversarial
 *    crash-sim device and on a real file;
 *  - pipeline-parallel cluster training with per-node PCcheck
 *    orchestrators and the rank-0 consistency protocol (I5);
 *  - Gemini in the same cluster harness.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <vector>

#include "baselines/gemini.h"
#include "core/cluster.h"
#include "core/orchestrator.h"
#include "core/recovery.h"
#include "core/slot_store.h"
#include "storage/crash_sim.h"
#include "storage/file_storage.h"
#include "storage/mem_storage.h"
#include "trainsim/models.h"
#include "trainsim/training_loop.h"
#include "util/rng.h"

namespace pccheck {
namespace {

constexpr Bytes kStateBytes = 64 * 1024;

GpuConfig
fast_gpu()
{
    GpuConfig config;
    config.memory_bytes = 2 * kMiB;
    config.pcie_bytes_per_sec = 0;
    return config;
}

ScaledModel
tiny_model(double time_scale = 600.0)
{
    return scale_model(model_by_name("vgg16"),
                       ScaleFactors{time_scale, 20000.0});
}

TEST(IntegrationTest, TrainCrashRecoverResume)
{
    CrashSimStorage device(SlotStore::required_size(3, kStateBytes),
                           StorageKind::kPmemNt, 99, 0.5);
    std::uint64_t crashed_at = 0;
    {
        SimGpu gpu(fast_gpu());
        TrainingState state(gpu, kStateBytes);
        PCcheckConfig config;
        config.concurrent_checkpoints = 2;
        PCcheckCheckpointer checkpointer(state, device, config);
        TrainingLoop loop(gpu, state, tiny_model());
        loop.run(17, 3, checkpointer);
        checkpointer.finish();
        crashed_at = 17;
        // Process "dies" here; the device loses everything volatile.
    }
    device.crash();

    // A fresh process recovers and resumes training.
    SimGpu gpu(fast_gpu());
    TrainingState state(gpu, kStateBytes);
    const auto recovered = recover_latest_into_state(device, state);
    ASSERT_TRUE(recovered.has_value());
    // Checkpoints were taken at 3,6,9,12,15; at least the last one the
    // orchestrator drained must be recovered.
    EXPECT_GE(recovered->iteration, 3u);
    EXPECT_LE(recovered->iteration, crashed_at);
    EXPECT_EQ(recovered->iteration % 3, 0u);

    // Resume: reformat is NOT needed — reuse the same device.
    PCcheckConfig config;
    config.concurrent_checkpoints = 2;
    PCcheckCheckpointer checkpointer(state, device, config);
    TrainingLoop loop(gpu, state, tiny_model());
    loop.run(5, 2, checkpointer, recovered->iteration + 1);
    checkpointer.finish();
    EXPECT_EQ(state.iteration(), recovered->iteration + 5);
}

TEST(IntegrationTest, RepeatedCrashesNeverLoseAllProgress)
{
    // Crash-storm: run a few iterations, crash, recover, repeat. The
    // recovered iteration must never regress (I2) and always verify.
    CrashSimStorage device(SlotStore::required_size(3, kStateBytes),
                           StorageKind::kPmemNt, 7, 0.4);
    std::uint64_t resume_from = 0;
    for (int round = 0; round < 5; ++round) {
        SimGpu gpu(fast_gpu());
        TrainingState state(gpu, kStateBytes);
        if (round > 0) {
            const auto recovered = recover_latest_into_state(device, state);
            ASSERT_TRUE(recovered.has_value()) << "round " << round;
            EXPECT_GE(recovered->iteration, resume_from)
                << "round " << round;
            resume_from = recovered->iteration;
        }
        PCcheckConfig config;
        config.concurrent_checkpoints = 2;
        PCcheckCheckpointer checkpointer(state, device, config);
        TrainingLoop loop(gpu, state, tiny_model());
        loop.run(6, 2, checkpointer, resume_from + 1);
        checkpointer.finish();
        // Remember the last checkpoint we know completed.
        const auto latest =
            checkpointer.commit_protocol().latest_pointer();
        ASSERT_TRUE(latest.has_value());
        resume_from = latest->iteration;
        device.crash();
    }
    EXPECT_GE(resume_from, 10u);
}

TEST(IntegrationTest, FileBackedSurvivesProcessBoundary)
{
    const std::string path = "/tmp/pccheck_integration_file.bin";
    {
        SimGpu gpu(fast_gpu());
        TrainingState state(gpu, kStateBytes);
        FileStorage device(path, SlotStore::required_size(4, kStateBytes));
        PCcheckConfig config;
        config.concurrent_checkpoints = 3;
        config.chunk_bytes = 16 * 1024;
        PCcheckCheckpointer checkpointer(state, device, config);
        TrainingLoop loop(gpu, state, tiny_model());
        loop.run(12, 4, checkpointer);
    }
    {
        SimGpu gpu(fast_gpu());
        TrainingState state(gpu, kStateBytes);
        FileStorage device(path, SlotStore::required_size(4, kStateBytes));
        const auto recovered = recover_latest_into_state(device, state);
        ASSERT_TRUE(recovered.has_value());
        EXPECT_EQ(recovered->iteration, 12u);
    }
    std::remove(path.c_str());
}

TEST(IntegrationTest, PipelineClusterConsistentCheckpoints)
{
    ClusterConfig config;
    config.nodes = 3;
    config.stage_time = 0.002;
    config.partition_bytes = 32 * 1024;
    config.activation_bytes = 2 * 1024;
    config.gpu = fast_gpu();
    config.network.nic_bytes_per_sec = 0;
    config.network.latency = 0;
    config.coordinate = true;

    PipelineCluster cluster(config);
    // Per-node device + orchestrator.
    std::vector<std::unique_ptr<MemStorage>> devices(3);
    std::vector<PCcheckCheckpointer*> orchestrators(3, nullptr);
    const auto factory =
        [&](const ClusterNode& node) -> PipelineCluster::NodeCheckpointer {
        const auto index = static_cast<std::size_t>(node.rank);
        devices[index] = std::make_unique<MemStorage>(
            SlotStore::required_size(3, config.partition_bytes));
        PCcheckConfig pc;
        pc.concurrent_checkpoints = 2;
        auto checkpointer = std::make_unique<PCcheckCheckpointer>(
            *node.state, *devices[index], pc);
        PCcheckCheckpointer* raw = checkpointer.get();
        orchestrators[index] = raw;
        return {std::move(checkpointer), [raw] {
                    const auto latest =
                        raw->commit_protocol().latest_pointer();
                    return latest ? latest->iteration : 0;
                }};
    };
    const ClusterResult result = cluster.run(15, 5, factory);
    EXPECT_GT(result.throughput, 0);
    // After the final coordination round every partition is at the
    // agreed iteration or newer (I5).
    EXPECT_GT(result.consistent_iteration, 0u);
    EXPECT_EQ(result.consistent_iteration % 5, 0u);
    for (std::size_t rank = 0; rank < 3; ++rank) {
        std::vector<std::uint8_t> buffer;
        const auto recovered =
            recover_to_buffer(*devices[rank], &buffer);
        ASSERT_TRUE(recovered.has_value());
        EXPECT_GE(recovered->iteration, result.consistent_iteration);
        EXPECT_EQ(
            TrainingState::verify_buffer(buffer.data(), buffer.size()),
            std::make_optional(recovered->iteration));
    }
}

TEST(IntegrationTest, GeminiInClusterReplicatesToPeers)
{
    ClusterConfig config;
    config.nodes = 2;
    config.stage_time = 0.002;
    config.partition_bytes = 32 * 1024;
    config.activation_bytes = 1024;
    config.gpu = fast_gpu();
    config.network.nic_bytes_per_sec = 0;
    config.network.latency = 0;
    config.coordinate = false;  // Gemini has no rank-0 protocol here

    PipelineCluster cluster(config);
    std::vector<std::unique_ptr<MemStorage>> peer_memory(2);
    std::vector<GeminiCheckpointer*> geminis(2, nullptr);
    const auto factory =
        [&](const ClusterNode& node) -> PipelineCluster::NodeCheckpointer {
        const auto index = static_cast<std::size_t>(node.rank);
        peer_memory[index] =
            std::make_unique<MemStorage>(config.partition_bytes);
        const int peer = (node.rank + 1) % 2;
        auto checkpointer = std::make_unique<GeminiCheckpointer>(
            *node.state, *node.network, node.rank, peer,
            *peer_memory[index]);
        geminis[index] = checkpointer.get();
        return {std::move(checkpointer), nullptr};
    };
    const ClusterResult result = cluster.run(12, 4, factory);
    for (std::size_t rank = 0; rank < 2; ++rank) {
        EXPECT_EQ(result.node_stats[rank].completed, 3u);
        // The peer's DRAM holds this node's final snapshot.
        EXPECT_EQ(TrainingState::verify_buffer(
                      peer_memory[rank]->raw(), config.partition_bytes),
                  std::make_optional<std::uint64_t>(12));
    }
}

}  // namespace
}  // namespace pccheck
