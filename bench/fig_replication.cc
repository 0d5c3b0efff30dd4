/**
 * @file
 * Replication-tier sweep: training throughput with quorum-acked peer
 * replication vs local-only checkpointing, across NIC bandwidths and
 * quorum configurations (docs/REPLICATION.md).
 *
 * Each point trains a scaled model with PCcheck while streaming every
 * checkpoint to in-DRAM peer replicas over SimNetwork; the commit CAS
 * gates on the write quorum. The sweep crosses NIC bandwidth (around
 * the paper's measured 1.88 GB/s VM NIC) with (replicas, quorum) in
 * {local-only, 1/1, 2/1, 2/2} plus a dead-peer 2/1 row, and reports
 * slowdown vs the local-only baseline at the same bandwidth, plus the
 * peers' durable-publish watermark and degradation counters.
 *
 * Expected shape: replicas form a chain, so the owner's NIC carries
 * one copy whatever the replica count and r2q1 tracks r1q1; r2q2
 * trails them by the tail's extra hop; every replicated row gains
 * with NIC bandwidth but stays below local-only, because a staging
 * buffer returns only once the chain's last peer has its bytes. A
 * dead peer under quorum=1 degrades nothing but pays one ack deadline
 * per checkpoint, which dominates this small model's step time.
 *
 * Usage: fig_replication [--smoke] [--trace-out=FILE]
 */

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.h"
#include "core/orchestrator.h"
#include "core/slot_store.h"
#include "net/network.h"
#include "remote/replica_store.h"
#include "remote/replication.h"
#include "storage/mem_storage.h"
#include "trainsim/models.h"
#include "trainsim/training_loop.h"
#include "util/clock.h"
#include "util/csv.h"
#include "util/logging.h"

using namespace pccheck;
using namespace pccheck::bench;

namespace {

constexpr Bytes kState = 512 * kKiB;
constexpr int kConcurrent = 2;
constexpr int kSlots = kConcurrent + 1;
constexpr std::uint64_t kInterval = 2;

GpuConfig
bench_gpu()
{
    GpuConfig config;
    config.memory_bytes = 4 * kMiB;
    config.pcie_bytes_per_sec = 0;
    return config;
}

ScaledModel
bench_model()
{
    return scale_model(model_by_name("vgg16"),
                       ScaleFactors{600.0, 20000.0});
}

/** One replication configuration in the sweep. */
struct Config {
    const char* label;
    int replicas;
    int quorum;
    int dead_peers;  ///< peers killed before the run (highest ids)
};

/** Measured outcome of one (bandwidth, config) point. */
struct Point {
    double throughput = 0;  ///< iterations/sec, wall clock
    CheckpointerStats stats;
    std::uint64_t degraded = 0;
    std::uint64_t acks = 0;
    Bytes replicated = 0;
    std::uint64_t watermark = 0;  ///< max surviving-peer watermark
};

Point
run_point(double nic_bytes_per_sec, const Config& cfg,
          std::uint64_t iterations)
{
    Point out;

    NetworkConfig net;
    net.nodes = cfg.replicas + 1;
    net.nic_bytes_per_sec = nic_bytes_per_sec;
    SimNetwork network(net);

    std::vector<std::unique_ptr<ReplicaStore>> stores;
    std::vector<ReplicaPeer> peers;
    for (int p = 0; p < cfg.replicas; ++p) {
        stores.push_back(std::make_unique<ReplicaStore>());
        peers.push_back({p + 1, stores.back().get()});
    }

    std::unique_ptr<ReplicationEngine> engine;
    if (cfg.replicas > 0) {
        ReplicationConfig rconfig;
        rconfig.replicas = cfg.replicas;
        rconfig.quorum = cfg.quorum;
        rconfig.chunk_bytes = 128 * kKiB;
        rconfig.ack_timeout = 0.02;
        engine = std::make_unique<ReplicationEngine>(
            network, 0, rconfig, peers);
    }
    for (int d = 0; d < cfg.dead_peers; ++d) {
        network.kill_node(cfg.replicas - d);
    }

    MemStorage device(SlotStore::required_size(kSlots, kState));
    SimGpu gpu(bench_gpu());
    TrainingState state(gpu, kState);
    PCcheckConfig config;
    config.concurrent_checkpoints = kConcurrent;

    Stopwatch watch;
    {
        PCcheckCheckpointer checkpointer(state, device, config);
        if (engine != nullptr) {
            checkpointer.attach_replication(engine.get());
        }
        TrainingLoop loop(gpu, state, bench_model());
        loop.run(iterations, kInterval, checkpointer);
        if (engine != nullptr) {
            engine->flush();
        }
        out.stats = checkpointer.stats();
    }
    const Seconds elapsed = watch.elapsed();
    out.throughput = static_cast<double>(iterations) / elapsed;
    if (engine != nullptr) {
        out.degraded = engine->degraded();
        out.acks = engine->acks();
        out.replicated = engine->bytes_sent();
    }
    for (int p = 0; p + cfg.dead_peers < cfg.replicas; ++p) {
        out.watermark = std::max(out.watermark, stores[p]->watermark());
    }
    return out;
}

}  // namespace

int
main(int argc, char** argv)
{
    const BenchOptions options = parse_bench_args(argc, argv);
    set_log_level(LogLevel::kWarn);
    const std::uint64_t iterations = options.smoke ? 12 : 40;

    // Around the paper's measured 15 Gbps (1.88 GB/s) VM NIC.
    const std::vector<double> bandwidths = {0.47e9, 0.94e9, 1.88e9,
                                            3.76e9};
    const std::vector<Config> configs = {
        {"local", 0, 0, 0},   {"r1q1", 1, 1, 0}, {"r2q1", 2, 1, 0},
        {"r2q2", 2, 2, 0},    {"r2q1-dead", 2, 1, 1},
    };

    CsvWriter csv("fig_replication.csv",
                  {"nic_gbps", "config", "replicas", "quorum",
                   "dead_peers", "throughput_it_s", "slowdown_vs_local",
                   "completed", "degraded", "acks", "replicated_mib",
                   "peer_watermark"});
    announce("fig_replication", csv.path());

    std::printf("=== Replication tier: throughput vs NIC bandwidth "
                "and quorum ===\n%-10s", "NIC GB/s");
    for (const Config& cfg : configs) {
        std::printf("%12s", cfg.label);
    }
    std::printf("\n");

    for (const double bw : bandwidths) {
        const double gbps = bw / 1e9;
        std::printf("%-10.2f", gbps);
        double local = 0;
        for (const Config& cfg : configs) {
            const Point point = run_point(bw, cfg, iterations);
            if (cfg.replicas == 0) {
                local = point.throughput;
            }
            const double slowdown =
                point.throughput > 0 ? local / point.throughput : 0;
            std::printf("%12.2f", point.throughput);
            csv.row({std::to_string(gbps), cfg.label,
                     std::to_string(cfg.replicas),
                     std::to_string(cfg.quorum),
                     std::to_string(cfg.dead_peers),
                     std::to_string(point.throughput),
                     std::to_string(slowdown),
                     std::to_string(point.stats.completed),
                     std::to_string(point.degraded),
                     std::to_string(point.acks),
                     std::to_string(static_cast<double>(
                                        point.replicated) /
                                    static_cast<double>(kMiB)),
                     std::to_string(point.watermark)});
        }
        std::printf("\n");
    }
    std::printf("\nslowdown_vs_local and peer watermarks are in %s\n",
                csv.path().c_str());
    finish_observability(options);
    return 0;
}
