/**
 * @file
 * Multi-tenant kill-storm sweep (docs/SERVICE.md): many seeds of
 * concurrent tenant traffic over sharded CrashSimStorage backends
 * while seed-chosen kill_tenant / kill_backend faults fire mid-storm.
 * Each shard keeps one crash state of the storm, drawn uniformly from
 * its state once the tenants are attached and after each of its
 * storage ops since (storage/crash_capture.h), with the watermarks
 * read in the same instant; a tenant recovers from its own shard
 * only, so that is one crash instant as each tenant sees it. Every
 * tenant — killed or surviving, on a dead backend or a live one —
 * must statically resolve from the crash images to a checkpoint at
 * least as new as its durable watermark, with no cross-tenant bleed
 * (each tenant stamps its own iteration namespace, so a leaked record
 * fails verification).
 *
 * Runs 32 seeds by default; set PCCHECK_SERVICE_SWEEP_SEEDS to widen.
 * Must stay psan-clean under PCCHECK_PSAN=1.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "faults/fault.h"
#include "faults/faulty_storage.h"
#include "service/service.h"
#include "service/service_config.h"
#include "storage/crash_capture.h"
#include "storage/crash_sim.h"
#include "sweep_support.h"
#include "trainsim/training_state.h"
#include "util/rng.h"

namespace pccheck {
namespace {

/** Tenant ids routing to both shards (see service_shard_of golden
 *  values in service_test.cc): 2 and 1000 land on shard 0; 0, 1 and 3
 *  land on shard 1. */
constexpr std::uint64_t kBigTenants[] = {0, 2};
constexpr std::uint64_t kSmallTenants[] = {1, 3, 1000};

ServiceConfig
sweep_config()
{
    ServiceConfig config;
    config.shards = 2;
    config.writer_threads = 4;
    config.qos.burst_bytes = kMiB;  // admission never skips the storm
    config.coalescer.threshold_bytes = 16 * kKiB;
    config.coalescer.segment_bytes = 64 * kKiB;
    config.coalescer.segments_per_backend = 4;
    for (std::uint64_t id : kBigTenants) {
        TenantSpec spec;
        spec.id = id;
        spec.state_bytes = 64 * kKiB;
        spec.checkpoint.concurrent_checkpoints = 2;
        config.tenants.push_back(spec);
    }
    for (std::uint64_t id : kSmallTenants) {
        TenantSpec spec;
        spec.id = id;
        spec.state_bytes = 4 * kKiB;
        config.tenants.push_back(spec);
    }
    return config;
}

std::uint64_t
iter_base(std::uint64_t tenant)
{
    return tenant * 100000 + 1000;
}

/** One shard's crash point and every tenant's watermark at it. */
struct ShardCrash {
    std::map<std::uint64_t, TenantWatermark> watermarks;
    CrashPoint point;
};

TEST(ServiceSweepTest, EveryTenantRecoversToItsWatermarkUnderKillStorms)
{
    PsanCleanGuard psan_clean;
    const int seeds = sweep_seeds("PCCHECK_SERVICE_SWEEP_SEEDS", 32);
    const ServiceConfig config = sweep_config();

    int crashed = 0;
    for (int s = 1; s <= seeds; ++s) {
        const std::uint64_t seed = 9000 + static_cast<std::uint64_t>(s);
        SCOPED_TRACE("seed " + std::to_string(seed));
        auto injector = std::make_shared<FaultInjector>(seed);

        // Sharded backends: CrashSimStorage (adversarial durable
        // images) behind FaultyStorage (the kill triggers).
        std::vector<CrashSimStorage*> media;
        std::vector<std::unique_ptr<FaultyStorage>> faulty;
        std::vector<StorageDevice*> backends;
        for (int shard = 0; shard < config.shards; ++shard) {
            auto owned = std::make_unique<CrashSimStorage>(
                plan_shard_layout(config, shard).required_bytes,
                StorageKind::kPmemNt, seed + shard, 0.5);
            media.push_back(owned.get());
            faulty.push_back(std::make_unique<FaultyStorage>(
                std::move(owned), injector));
            backends.push_back(faulty.back().get());
        }

        CheckpointService service(config, backends);
        service.arm_faults(*injector);

        // Seed-chosen storm: one tenant kill and, on half the seeds,
        // one backend kill — all mid-traffic, addressed past the ops
        // construction already consumed.
        Rng pick(seed * 0x9E3779B97F4A7C15ULL);
        const std::uint64_t crash_seed = pick.next_u64();
        const std::uint64_t setup_ops = injector->ops();
        const std::uint64_t all_tenants[] = {0, 1, 2, 3, 1000};
        FaultPlan plan;
        {
            FaultRule kill;
            kill.point = "*";
            kill.action = FaultAction::kKillTenant;
            kill.target = all_tenants[pick.next_below(5)];
            kill.trigger = FaultTrigger::kNthOp;
            kill.nth = setup_ops + 30 + pick.next_below(300);
            kill.limit = 1;
            plan.add(kill);
        }
        if (pick.next_below(2) == 0) {
            FaultRule kill;
            kill.point = "*";
            kill.action = FaultAction::kKillBackend;
            kill.target = pick.next_below(2);
            kill.trigger = FaultTrigger::kNthOp;
            kill.nth = setup_ops + 100 + pick.next_below(300);
            kill.limit = 1;
            plan.add(kill);
        }
        injector->set_plan(std::move(plan));

        // The storm: every tenant trains concurrently.
        SimGpu gpu([] {
            GpuConfig gpu_config;
            gpu_config.memory_bytes = 16 * kMiB;
            gpu_config.pcie_bytes_per_sec = 0;
            return gpu_config;
        }());
        std::vector<std::unique_ptr<TrainingState>> states;
        std::vector<Checkpointer*> sessions;
        for (const TenantSpec& spec : config.tenants) {
            states.push_back(
                std::make_unique<TrainingState>(gpu, spec.state_bytes));
            sessions.push_back(
                service.attach_tenant(spec.id, *states.back()));
        }

        // Each shard keeps one crash point of the storm. The
        // watermarks are read in the same instant, under the shard's
        // device lock; the service reads them without waiting on any
        // device, and durability is monotonic, so recovery from that
        // state must reach them.
        std::vector<ShardCrash> crashes(config.shards);
        std::vector<std::size_t> marks;
        std::vector<std::unique_ptr<CrashPointSampler>> samplers;
        for (int shard = 0; shard < config.shards; ++shard) {
            ShardCrash& crash = crashes[shard];
            marks.push_back(media[shard]->ops());
            samplers.push_back(std::make_unique<CrashPointSampler>(
                *media[shard], crash_seed + shard, [&config, &service, &crash] {
                    for (const TenantSpec& spec : config.tenants) {
                        crash.watermarks[spec.id] = service.watermark(spec.id);
                    }
                }));
        }
        std::vector<std::thread> threads;
        for (std::size_t i = 0; i < sessions.size(); ++i) {
            threads.emplace_back([&, i] {
                const std::uint64_t tenant = config.tenants[i].id;
                TrainingState& state = *states[i];
                Checkpointer& session = *sessions[i];
                for (int round = 1; round <= 12; ++round) {
                    const std::uint64_t iteration =
                        iter_base(tenant) + round;
                    session.before_update(iteration);
                    state.stamp(iteration);
                    session.request_checkpoint(iteration);
                }
                session.finish();
            });
        }
        for (std::thread& thread : threads) {
            thread.join();
        }
        service.finish();

        // Recovery: every tenant resolves from the crash images alone.
        std::vector<std::unique_ptr<MemStorage>> dead;
        std::vector<StorageDevice*> dead_backends;
        bool own_points = true;
        for (int shard = 0; shard < config.shards; ++shard) {
            CrashPoint& point = crashes[shard].point;
            point = samplers[shard]->take();
            const bool own = is_own_crash_point(point, marks[shard]);
            EXPECT_TRUE(own) << "shard " << shard << " " << point.clause();
            own_points = own_points && own;
            dead.push_back(reboot(point.image()));
            dead_backends.push_back(dead.back().get());
        }
        if (own_points) {
            ++crashed;
        }
        for (const TenantSpec& spec : config.tenants) {
            const ShardCrash& crash =
                crashes[service_shard_of(spec.id, config.shards)];
            SCOPED_TRACE(crash.point.clause());
            const TenantWatermark wm = crash.watermarks.at(spec.id);
            const TenantRecovery recovery =
                CheckpointService::resolve_tenant(config, dead_backends,
                                                  spec.id);
            if (!wm.valid) {
                continue;  // nothing was durable yet at the crash
            }
            ASSERT_TRUE(recovery.found)
                << "tenant " << spec.id
                << ": durable watermark lost (counter " << wm.counter
                << ")";
            // THE invariant: recovery never regresses past what the
            // service had acknowledged as durable.
            EXPECT_GE(recovery.result.iteration, wm.iteration)
                << "tenant " << spec.id;
            // No cross-tenant bleed: the image must verify as a
            // self-consistent checkpoint stamped inside this tenant's
            // private iteration namespace.
            const auto verified = TrainingState::verify_buffer(
                recovery.image.data(), recovery.image.size());
            ASSERT_TRUE(verified.has_value()) << "tenant " << spec.id;
            EXPECT_EQ(*verified, recovery.result.iteration)
                << "tenant " << spec.id;
            EXPECT_GT(*verified, iter_base(spec.id))
                << "tenant " << spec.id;
            EXPECT_LT(*verified, iter_base(spec.id) + 100)
                << "tenant " << spec.id;
        }
    }
    EXPECT_EQ(crashed, seeds);
}

}  // namespace
}  // namespace pccheck
