/**
 * @file
 * Multi-tenant service sweep: aggregate training goodput and p99
 * checkpoint stall vs tenant count (1 -> 256) over 2 storage shards,
 * QoS on (admission control + the shard throttle's weighted turns)
 * against the blind-contention baseline (same budget and throttle,
 * FIFO, no admission) — docs/SERVICE.md.
 *
 * Every tenant drives its own session flat out (a ~1 ms modeled
 * iteration, then a checkpoint request). Small tenants (7 of 8)
 * coalesce 4 KiB checkpoints into the shared segment log; every 8th
 * tenant is big (64 KiB, private slot arena, 2 concurrent). Offered
 * checkpoint load scales with the fleet while the per-shard persist
 * budget stays fixed, so past ~16 tenants the device is oversubscribed:
 * the no-QoS channel queues everyone (training stalls convoy-style),
 * while admission control converts over-budget requests into skips and
 * the weighted turns keep the paced writes fair. The acceptance gate is
 * aggregate goodput at 64 tenants: QoS >= 1.5x no-QoS.
 *
 * A final storm leg reruns the largest fleet with a mid-storm fault
 * plan (two tenant kills + one backend kill) and then statically
 * resolves EVERY tenant from the raw backend media, requiring each
 * valid durable watermark to be met or exceeded — the bench-side echo
 * of the 32-seed sweep in tests/service_sweep_test.cc.
 *
 * Usage: fig_service [--smoke] [--trace-out=FILE]
 */

#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "faults/fault.h"
#include "faults/faulty_storage.h"
#include "service/service.h"
#include "service/service_config.h"
#include "storage/mem_storage.h"
#include "storage/region_storage.h"
#include "trainsim/training_state.h"
#include "util/check.h"
#include "util/clock.h"
#include "util/csv.h"
#include "util/logging.h"

using namespace pccheck;
using namespace pccheck::bench;

namespace {

constexpr int kShards = 2;
constexpr Bytes kSmallState = 4 * kKiB;
constexpr Bytes kBigState = 64 * kKiB;
constexpr Seconds kIterationTime = 1e-3;  ///< modeled compute per round

ServiceConfig
make_config(int tenants, bool qos)
{
    ServiceConfig config;
    config.shards = kShards;
    config.writer_threads = 8;
    config.qos.enabled = qos;
    // Fixed per-shard persist budget: ~16 small tenants saturate it,
    // so the 64- and 256-tenant points run heavily oversubscribed.
    config.qos.device_budget_bytes_per_sec =
        48.0 * static_cast<double>(kMiB);
    config.qos.arbiter_quantum = 16 * kKiB;
    config.coalescer.threshold_bytes = 16 * kKiB;
    config.coalescer.segment_bytes = 256 * kKiB;
    config.coalescer.segments_per_backend = 4;
    for (int i = 0; i < tenants; ++i) {
        TenantSpec spec;
        spec.id = static_cast<std::uint64_t>(i);
        if (i % 8 == 0) {
            spec.state_bytes = kBigState;
            spec.checkpoint.concurrent_checkpoints = 2;
        } else {
            spec.state_bytes = kSmallState;
        }
        config.tenants.push_back(spec);
    }
    return config;
}

std::uint64_t
iter_base(std::uint64_t tenant)
{
    return tenant * 100000 + 1000;
}

double
p99_ms(std::vector<double>& samples)
{
    if (samples.empty()) {
        return 0;
    }
    const std::size_t rank =
        (samples.size() * 99 + 99) / 100;  // ceil(0.99 n), 1-based
    const std::size_t index = std::min(rank, samples.size()) - 1;
    std::nth_element(samples.begin(),
                     samples.begin() + static_cast<std::ptrdiff_t>(index),
                     samples.end());
    return samples[index] * 1e3;
}

/** Measured outcome of one (tenants, qos) sweep point. */
struct Point {
    double goodput = 0;       ///< aggregate training iterations/sec
    double p99_stall_ms = 0;  ///< p99 per-round checkpoint stall
    Seconds elapsed = 0;
    ServiceStats stats;
};

/** Drive @p rounds of per-tenant traffic and return the aggregates.
 *  @p faulty wraps the backends when a storm plan is armed. */
Point
run_fleet(const ServiceConfig& config,
          const std::vector<StorageDevice*>& backends,
          CheckpointService& service, int rounds)
{
    const int tenants = static_cast<int>(config.tenants.size());
    (void)backends;
    SimGpu gpu([] {
        GpuConfig gpu_config;
        gpu_config.memory_bytes = 64 * kMiB;
        gpu_config.pcie_bytes_per_sec = 0;  // state copies unthrottled
        return gpu_config;
    }());
    std::vector<std::unique_ptr<TrainingState>> states;
    std::vector<Checkpointer*> sessions;
    for (const TenantSpec& spec : config.tenants) {
        states.push_back(
            std::make_unique<TrainingState>(gpu, spec.state_bytes));
        sessions.push_back(service.attach_tenant(spec.id, *states.back()));
    }

    const Clock& clock = MonotonicClock::instance();
    std::vector<std::vector<double>> stalls(
        static_cast<std::size_t>(tenants));
    Stopwatch watch(clock);
    std::vector<std::thread> threads;
    for (int i = 0; i < tenants; ++i) {
        threads.emplace_back([&, i] {
            const std::uint64_t tenant = config.tenants[i].id;
            TrainingState& state = *states[i];
            Checkpointer& session = *sessions[i];
            std::vector<double>& out = stalls[i];
            out.reserve(static_cast<std::size_t>(rounds));
            for (int round = 1; round <= rounds; ++round) {
                clock.sleep_for(kIterationTime);  // modeled compute
                const std::uint64_t iteration = iter_base(tenant) + round;
                Stopwatch stall(clock);
                session.before_update(iteration);
                state.stamp(iteration);
                session.request_checkpoint(iteration);
                out.push_back(stall.elapsed());
            }
            session.finish();
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }
    service.finish();

    Point point;
    point.elapsed = watch.elapsed();
    point.goodput = point.elapsed > 0
                        ? static_cast<double>(tenants) * rounds /
                              point.elapsed
                        : 0;
    std::vector<double> merged;
    for (const std::vector<double>& per_tenant : stalls) {
        merged.insert(merged.end(), per_tenant.begin(), per_tenant.end());
    }
    point.p99_stall_ms = p99_ms(merged);
    point.stats = service.stats();
    return point;
}

Point
run_point(int tenants, bool qos, int rounds)
{
    const ServiceConfig config = make_config(tenants, qos);
    std::vector<std::unique_ptr<MemStorage>> media;
    std::vector<StorageDevice*> backends;
    for (int shard = 0; shard < config.shards; ++shard) {
        media.push_back(std::make_unique<MemStorage>(
            plan_shard_layout(config, shard).required_bytes));
        backends.push_back(media.back().get());
    }
    CheckpointService service(config, backends);
    return run_fleet(config, backends, service, rounds);
}

/** Storm-leg outcome: recovery audit after mid-run kills. */
struct StormResult {
    int checked = 0;    ///< tenants with a valid durable watermark
    int recovered = 0;  ///< ... that resolved at/past that watermark
    std::uint64_t tenant_kills = 0;
    std::uint64_t backend_kills = 0;
};

StormResult
run_storm(int tenants, int rounds)
{
    const ServiceConfig config = make_config(tenants, /*qos=*/true);
    auto injector = std::make_shared<FaultInjector>(20260810);
    std::vector<std::unique_ptr<MemStorage>> media;
    std::vector<MemStorage*> raw_media;
    std::vector<std::unique_ptr<FaultyStorage>> faulty;
    std::vector<StorageDevice*> backends;
    for (int shard = 0; shard < config.shards; ++shard) {
        media.push_back(std::make_unique<MemStorage>(
            plan_shard_layout(config, shard).required_bytes));
        raw_media.push_back(media.back().get());
        faulty.push_back(std::make_unique<FaultyStorage>(
            std::make_unique<RegionStorage>(*media.back(), 0,
                                            media.back()->size()),
            injector));
        backends.push_back(faulty.back().get());
    }

    CheckpointService service(config, backends);
    service.arm_faults(*injector);
    // Kill indices offset past the ops that formatting just consumed.
    const std::uint64_t setup_ops = injector->ops();
    FaultPlan plan;
    const std::uint64_t kill_targets[] = {5, 8};  // one small, one big
    std::uint64_t nth = setup_ops + 200;
    for (std::uint64_t target : kill_targets) {
        FaultRule kill;
        kill.point = "*";
        kill.action = FaultAction::kKillTenant;
        kill.target = target;
        kill.trigger = FaultTrigger::kNthOp;
        kill.nth = nth;
        kill.limit = 1;
        plan.add(kill);
        nth += 300;
    }
    {
        FaultRule kill;
        kill.point = "*";
        kill.action = FaultAction::kKillBackend;
        kill.target = 1;
        kill.trigger = FaultTrigger::kNthOp;
        kill.nth = nth;
        kill.limit = 1;
        plan.add(kill);
    }
    injector->set_plan(std::move(plan));

    (void)run_fleet(config, backends, service, rounds);

    StormResult storm;
    storm.tenant_kills = injector->tenant_kills();
    storm.backend_kills = injector->backend_kills();
    // Recovery reads the raw media underneath the fault wrappers, the
    // way a post-crash process would.
    std::vector<StorageDevice*> dead(raw_media.begin(), raw_media.end());
    for (const TenantSpec& spec : config.tenants) {
        const TenantWatermark wm = service.watermark(spec.id);
        if (!wm.valid) {
            continue;  // nothing durable before the kill landed
        }
        ++storm.checked;
        const TenantRecovery recovery =
            CheckpointService::resolve_tenant(config, dead, spec.id);
        if (recovery.found && recovery.result.iteration >= wm.iteration) {
            ++storm.recovered;
        } else {
            std::printf("STORM FAIL: tenant %llu watermark %llu, "
                        "recovered %s%llu\n",
                        static_cast<unsigned long long>(spec.id),
                        static_cast<unsigned long long>(wm.iteration),
                        recovery.found ? "" : "nothing, wanted ",
                        static_cast<unsigned long long>(
                            recovery.found ? recovery.result.iteration
                                           : wm.iteration));
        }
    }
    return storm;
}

}  // namespace

int
main(int argc, char** argv)
{
    const BenchOptions options = parse_bench_args(argc, argv);
    set_log_level(LogLevel::kWarn);
    const int rounds = options.smoke ? 10 : 40;
    const std::vector<int> fleets = options.smoke
                                        ? std::vector<int>{4, 64}
                                        : std::vector<int>{1, 4, 16, 64,
                                                           256};

    CsvWriter csv("fig_service.csv",
                  {"tenants", "mode", "goodput_it_s", "p99_stall_ms",
                   "elapsed_s", "requested", "completed", "admitted",
                   "rejected", "throttled", "coalesced_records",
                   "segment_seals", "segment_recycles"});
    announce("fig_service", csv.path());

    std::printf("=== CheckpointService: goodput vs tenant count, "
                "%d shards, QoS vs blind contention ===\n", kShards);
    std::printf("%-8s %14s %14s %8s %16s %16s %14s %14s\n", "tenants",
                "qos it/s", "noqos it/s", "gain", "qos p99 ms",
                "noqos p99 ms", "qos done/adm", "noqos done/adm");

    bool ok = true;
    double gain_at_64 = 0;
    std::vector<std::pair<int, std::array<double, 4>>> series;
    for (const int tenants : fleets) {
        Point points[2];  // [0] = qos, [1] = no-qos
        for (int mode = 0; mode < 2; ++mode) {
            const bool qos = mode == 0;
            const Point point = run_point(tenants, qos, rounds);
            points[mode] = point;
            csv.row({std::to_string(tenants), qos ? "qos" : "noqos",
                     std::to_string(point.goodput),
                     std::to_string(point.p99_stall_ms),
                     std::to_string(point.elapsed),
                     std::to_string(point.stats.requested),
                     std::to_string(point.stats.completed),
                     std::to_string(point.stats.admitted),
                     std::to_string(point.stats.rejected),
                     std::to_string(point.stats.throttled),
                     std::to_string(point.stats.coalesced_records),
                     std::to_string(point.stats.segment_seals),
                     std::to_string(point.stats.segment_recycles)});
        }
        const double gain = points[1].goodput > 0
                                ? points[0].goodput / points[1].goodput
                                : 0;
        if (tenants == 64) {
            gain_at_64 = gain;
        }
        // Completed vs admitted: a mode that aborts checkpoints shows
        // it here, not only in the CSV.
        std::string done[2];
        for (int mode = 0; mode < 2; ++mode) {
            done[mode] = std::to_string(points[mode].stats.completed) +
                         "/" + std::to_string(points[mode].stats.admitted);
        }
        std::printf("%-8d %14.1f %14.1f %7.2fx %16.3f %16.3f %14s %14s\n",
                    tenants, points[0].goodput, points[1].goodput, gain,
                    points[0].p99_stall_ms, points[1].p99_stall_ms,
                    done[0].c_str(), done[1].c_str());
        series.push_back(
            {tenants,
             {points[0].goodput, points[1].goodput,
              points[0].p99_stall_ms, points[1].p99_stall_ms}});
    }

    // The acceptance gate: admission + weighted-fair scheduling must
    // hold aggregate goodput under oversubscription.
    if (gain_at_64 < 1.5) {
        std::printf("FAIL: QoS goodput gain %.2fx < 1.5x at 64 "
                    "tenants\n", gain_at_64);
        ok = false;
    }

    const int storm_tenants = fleets.back();
    const StormResult storm = run_storm(storm_tenants, rounds);
    std::printf("storm: %d tenants, %llu tenant kills + %llu backend "
                "kills; %d/%d watermarked tenants recovered\n",
                storm_tenants,
                static_cast<unsigned long long>(storm.tenant_kills),
                static_cast<unsigned long long>(storm.backend_kills),
                storm.recovered, storm.checked);
    if (storm.recovered != storm.checked || storm.checked == 0) {
        std::printf("FAIL: storm recovery audit\n");
        ok = false;
    }

    // BENCH_service.json: per-tenant-count series plus scalar gates,
    // in the multi-series schema tools/bench_compare.py consumes.
    FILE* json = std::fopen("BENCH_service.json", "w");
    PCCHECK_CHECK(json != nullptr);
    std::fprintf(json, "{\n  \"bench\": \"fig_service\",\n");
    std::fprintf(json, "  \"series_key\": \"tenants\",\n");
    std::fprintf(json, "  \"series\": {\n");
    const char* names[] = {"goodput_qos_it_s", "goodput_noqos_it_s",
                           "p99_stall_qos_ms", "p99_stall_noqos_ms"};
    for (int metric = 0; metric < 4; ++metric) {
        std::fprintf(json, "    \"%s\": {", names[metric]);
        for (std::size_t i = 0; i < series.size(); ++i) {
            std::fprintf(json, "\"%d\": %.6f%s", series[i].first,
                         series[i].second[static_cast<std::size_t>(
                             metric)],
                         i + 1 < series.size() ? ", " : "");
        }
        std::fprintf(json, "}%s\n", metric + 1 < 4 ? "," : "");
    }
    std::fprintf(json, "  },\n  \"metrics\": {\n");
    std::fprintf(json, "    \"qos_goodput_gain_t64\": %.6f,\n",
                 gain_at_64);
    std::fprintf(json, "    \"storm_recovered_fraction\": %.6f\n",
                 storm.checked > 0 ? static_cast<double>(storm.recovered) /
                                         storm.checked
                                   : 0.0);
    std::fprintf(json, "  }\n}\n");
    std::fclose(json);
    std::printf("wrote BENCH_service.json (%zu series points)\n",
                series.size());

    finish_observability(options);
    return ok ? 0 : 1;
}
