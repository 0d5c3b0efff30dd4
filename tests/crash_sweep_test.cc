/**
 * @file
 * Crash-monkey sweep: the paper's central invariant ("at any crash
 * point, recovery finds at least one fully persisted checkpoint")
 * checked empirically at scale. Each seed runs the full training loop
 * with N concurrent checkpoints over CrashSimStorage behind a
 * FaultyStorage decorator and keeps one crash state of that very run,
 * drawn uniformly from the state after the warmup and the state after
 * each storage op since (storage/crash_capture.h). It recovers from
 * the image a seeded mask selects, validates the CRC-checked stamp,
 * and resumes training from the recovered state.
 *
 * Runs 64 seeds by default; set PCCHECK_CRASH_SWEEP_SEEDS to widen.
 * Every failure prints its seed and the crash clause of its image.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/orchestrator.h"
#include "core/recovery.h"
#include "core/slot_store.h"
#include "faults/fault.h"
#include "faults/faulty_storage.h"
#include "storage/crash_capture.h"
#include "storage/crash_sim.h"
#include "sweep_support.h"
#include "trainsim/training_loop.h"
#include "util/check.h"

namespace pccheck {
namespace {

constexpr Bytes kState = 16 * 1024;
constexpr int kConcurrent = 2;
constexpr int kSlots = kConcurrent + 1;

struct SweepConfig {
    std::uint64_t warmup_iters = 4;
    std::uint64_t main_iters = 14;
    std::uint64_t interval = 2;
    /** FaultPlan spec active during the main run. */
    std::string noise;
};

struct SeedRun {
    /** Device ops after the warmup: the sampler's mark. */
    std::size_t mark = 0;
    /** Latest durable iteration before the main run. */
    std::uint64_t warm_iteration = 0;
    /** Latest durable iteration at the clean end of the run. */
    std::uint64_t final_iteration = 0;
    CrashPoint point;
};

/** One full train → drain cycle that keeps one crash point. */
SeedRun
run_training(std::uint64_t seed, const SweepConfig& sweep)
{
    SeedRun out;
    auto injector = std::make_shared<FaultInjector>(seed);
    auto media_owned = std::make_unique<CrashSimStorage>(
        SlotStore::required_size(kSlots, kState), StorageKind::kPmemNt,
        seed, 0.5);
    CrashSimStorage* media = media_owned.get();
    FaultyStorage device(std::move(media_owned), injector);

    SimGpu gpu(fast_gpu());
    TrainingState state(gpu, kState);
    PCcheckConfig config;
    config.concurrent_checkpoints = kConcurrent;
    config.retry_seed = seed;

    {
        // Warmup with no faults armed: establishes the first durable
        // checkpoints so the invariant is live for the rest of the run.
        PCcheckCheckpointer warm(state, device, config);
        TrainingLoop loop(gpu, state, tiny_model());
        loop.run(sweep.warmup_iters, sweep.interval, warm);
        const auto latest = warm.commit_protocol().latest_pointer();
        PCCHECK_CHECK(latest.has_value());
        out.warm_iteration = latest->iteration;
    }

    injector->set_plan(FaultPlan::parse(sweep.noise));
    out.mark = media->ops();
    // Seeded apart from the injector's own draws.
    CrashPointSampler sampler(*media, seed * 0x9E3779B97F4A7C15ULL);
    {
        PCcheckCheckpointer main(state, device, config);
        TrainingLoop loop(gpu, state, tiny_model());
        loop.run(sweep.main_iters, sweep.interval, main,
                 sweep.warmup_iters + 1);
        const auto latest = main.commit_protocol().latest_pointer();
        PCCHECK_CHECK(latest.has_value());
        out.final_iteration = latest->iteration;
        // Slot-leak check: after draining, all N+1 slots must be
        // accounted for — N reservable plus the published one.
        std::vector<CheckpointTicket> tickets;
        for (int i = 0; i < kConcurrent; ++i) {
            CheckpointTicket ticket;
            PCCHECK_CHECK_MSG(main.commit_protocol().try_begin(&ticket),
                              "slot leaked during faulted run");
            tickets.push_back(ticket);
        }
        for (const CheckpointTicket& ticket : tickets) {
            main.commit_protocol().abort(ticket);
        }
    }
    out.point = sampler.take();
    return out;
}

/** Recover + validate the seed's crash image; returns the recovered
 *  iteration (0 after a reported invariant violation). */
std::uint64_t
check_crash_image(const SeedRun& run, const SweepConfig& sweep,
                  std::uint64_t seed)
{
    const std::string where =
        "seed " + std::to_string(seed) + " " + run.point.clause();
    const auto dead = reboot(run.point.image());
    std::vector<std::uint8_t> buffer;
    const auto recovered = recover_to_buffer(*dead, &buffer);
    // THE invariant: a fully persisted checkpoint always exists.
    EXPECT_TRUE(recovered.has_value())
        << "invariant violated: no recoverable checkpoint, " << where;
    if (!recovered.has_value()) {
        return 0;
    }
    EXPECT_GE(recovered->iteration, run.warm_iteration)
        << "durable checkpoint regressed, " << where;
    EXPECT_LE(recovered->iteration,
              sweep.warmup_iters + sweep.main_iters);
    EXPECT_EQ(recovered->iteration % sweep.interval, 0u);
    // Recovery already validated the stored CRC; the stamp check
    // additionally proves the bytes are the iteration's actual state.
    EXPECT_EQ(TrainingState::verify_buffer(buffer.data(), buffer.size()),
              std::make_optional(recovered->iteration))
        << where;
    return recovered->iteration;
}

TEST(CrashSweepTest, InvariantHoldsAtRandomCrashPoints)
{
    PsanCleanGuard psan_clean;
    const SweepConfig sweep;
    const int seeds = sweep_seeds("PCCHECK_CRASH_SWEEP_SEEDS", 64);
    int crashed = 0;
    for (int s = 1; s <= seeds; ++s) {
        const std::uint64_t seed = 1000 + static_cast<std::uint64_t>(s);
        const SeedRun run = run_training(seed, sweep);
        ASSERT_TRUE(is_own_crash_point(run.point, run.mark))
            << "seed " << seed << " " << run.point.clause();
        ++crashed;
        // Nothing crashes the run itself: it trains to the end.
        EXPECT_EQ(run.final_iteration,
                  sweep.warmup_iters + sweep.main_iters);
        const std::uint64_t recovered_iteration =
            check_crash_image(run, sweep, seed);
        if (recovered_iteration == 0) {
            continue;
        }

        // Resume: a fresh "process" recovers from the post-crash
        // media and keeps training (and checkpointing) on top of it.
        const auto dead = reboot(run.point.image());
        SimGpu gpu(fast_gpu());
        TrainingState state(gpu, kState);
        const auto loaded = recover_latest_into_state(*dead, state);
        ASSERT_TRUE(loaded.has_value());
        ASSERT_EQ(loaded->iteration, recovered_iteration);
        PCcheckConfig config;
        config.concurrent_checkpoints = kConcurrent;
        PCcheckCheckpointer resumed(state, *dead, config);
        TrainingLoop loop(gpu, state, tiny_model());
        loop.run(4, sweep.interval, resumed, loaded->iteration + 1);
        const auto after = resumed.commit_protocol().latest_pointer();
        ASSERT_TRUE(after.has_value());
        EXPECT_GT(after->iteration, recovered_iteration)
            << "resume made no durable progress, seed " << seed;
    }
    EXPECT_EQ(crashed, seeds);
}

TEST(CrashSweepTest, InvariantHoldsUnderTransientNoise)
{
    PsanCleanGuard psan_clean;
    // Same sweep with a lossy device: ~1% of persists and 0.5% of
    // writes fail transiently, exercising the retry path while the
    // crash can land inside a retry loop.
    SweepConfig sweep;
    sweep.noise =
        "storage.persist:transient@p=0.01;"
        "storage.write:transient@p=0.005";
    const int seeds = sweep_seeds("PCCHECK_CRASH_SWEEP_SEEDS", 64) / 4 + 1;
    int crashed = 0;
    for (int s = 1; s <= seeds; ++s) {
        const std::uint64_t seed = 5000 + static_cast<std::uint64_t>(s);
        const SeedRun run = run_training(seed, sweep);
        ASSERT_TRUE(is_own_crash_point(run.point, run.mark))
            << "seed " << seed << " " << run.point.clause();
        ++crashed;
        check_crash_image(run, sweep, seed);
    }
    EXPECT_EQ(crashed, seeds);
}

}  // namespace
}  // namespace pccheck
