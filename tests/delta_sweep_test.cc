/**
 * @file
 * Delta-tier crash-monkey sweep (docs/DELTA_LOG.md): training with
 * sparse updates seals one delta frame per iteration on top of
 * interval-spaced full checkpoints; each seed keeps one crash state
 * of its own run, drawn uniformly from the state after the warmup and
 * the state after each storage op since (including those inside
 * DeltaLog::append; storage/crash_capture.h), recovers the image a
 * seeded mask selects with the three-tier recover_to_buffer, and
 * checks:
 *
 *  - a recoverable checkpoint always exists;
 *  - the recovered iteration never regresses below the last durable
 *    FULL checkpoint of the warm phase (the delta floor after a
 *    process restart — see the reopen truncation note in
 *    docs/DELTA_LOG.md) and never exceeds the run length;
 *  - the recovered bytes are byte-identical to the training state at
 *    the recovered iteration (shadow-image oracle: the sparse update
 *    sequence replayed on a host buffer);
 *  - training resumes from the image and makes durable progress.
 *
 * Runs 64 seeds by default; PCCHECK_CRASH_SWEEP_SEEDS widens it.
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
constexpr Bytes kLogBytes = 1 * kMiB;  // roomy: no mid-epoch skips
constexpr double kSparseFraction = 0.25;
constexpr std::uint64_t kSparseSeed = 99;

struct SweepConfig {
    std::uint64_t warmup_iters = 4;
    std::uint64_t main_iters = 14;
    std::uint64_t interval = 4;  ///< fulls; deltas land every iteration
    std::string noise;
};

struct SeedRun {
    /** Device ops after the warmup: the sampler's mark. */
    std::size_t mark = 0;
    /** Last durable FULL-tier iteration before the main run. */
    std::uint64_t warm_full_iteration = 0;
    std::uint64_t delta_frames = 0;  ///< frames sealed by the main run
    CrashPoint point;
};

PCcheckConfig
sweep_config(std::uint64_t seed)
{
    PCcheckConfig config;
    config.concurrent_checkpoints = kConcurrent;
    config.delta_log_bytes = kLogBytes;
    config.retry_seed = seed;
    return config;
}

/** One train → drain cycle that keeps one crash point. */
SeedRun
run_training(std::uint64_t seed, const SweepConfig& sweep)
{
    SeedRun out;
    auto injector = std::make_shared<FaultInjector>(seed);
    auto media_owned = std::make_unique<CrashSimStorage>(
        SlotStore::required_size(kSlots, kState, kLogBytes),
        StorageKind::kPmemNt, seed, 0.5);
    CrashSimStorage* media = media_owned.get();
    FaultyStorage device(std::move(media_owned), injector);

    SimGpu gpu(fast_gpu());
    TrainingState state(gpu, kState);

    {
        // Warmup with no faults armed: at least one durable full
        // checkpoint exists before the first crash point.
        PCcheckCheckpointer warm(state, device, sweep_config(seed));
        TrainingLoop loop(gpu, state, tiny_model());
        loop.set_delta_interval(1);
        loop.set_sparse_updates(kSparseFraction, kSparseSeed);
        loop.run(sweep.warmup_iters, sweep.interval, warm);
        const auto published = warm.slot_store().last_published();
        PCCHECK_CHECK(published.has_value());
        out.warm_full_iteration = published->iteration;
    }
    injector->set_plan(FaultPlan::parse(sweep.noise));
    out.mark = media->ops();
    // Seeded apart from the injector's own draws.
    CrashPointSampler sampler(*media, seed * 0x9E3779B97F4A7C15ULL);
    {
        PCcheckCheckpointer main(state, device, sweep_config(seed));
        // Arm the delta.append fault point for the noise plans; the
        // crash point can land between any two storage ops of an
        // append.
        PCCHECK_CHECK(main.delta_log() != nullptr);
        main.delta_log()->set_op_probe(
            [injector] { return injector->on_op("delta.append"); });
        TrainingLoop loop(gpu, state, tiny_model());
        loop.set_delta_interval(1);
        loop.set_sparse_updates(kSparseFraction, kSparseSeed);
        loop.run(sweep.main_iters, sweep.interval, main,
                 sweep.warmup_iters + 1);
        out.delta_frames = main.stats().delta_frames;
    }
    out.point = sampler.take();
    return out;
}

/** The training state at @p iteration, rebuilt on a host buffer. */
std::vector<std::uint8_t>
shadow_at(std::uint64_t iteration)
{
    std::vector<std::uint8_t> img(kState);
    TrainingState::stamp_buffer(img.data(), img.size(), 0);
    for (std::uint64_t i = 1; i <= iteration; ++i) {
        TrainingState::sparse_update_buffer(img.data(), img.size(), i,
                                            kSparseFraction, kSparseSeed);
    }
    return img;
}

/** Recover + validate the seed's crash image; 0 on (already
 *  reported) failure. */
std::uint64_t
check_crash_image(const SeedRun& run, const SweepConfig& sweep,
                  std::uint64_t seed)
{
    const std::string where =
        "seed " + std::to_string(seed) + " " + run.point.clause();
    const auto dead = reboot(run.point.image());
    std::vector<std::uint8_t> buffer;
    const auto recovered = recover_to_buffer(*dead, &buffer);
    EXPECT_TRUE(recovered.has_value())
        << "invariant violated: no recoverable checkpoint, " << where;
    if (!recovered.has_value()) {
        return 0;
    }
    // Floor: never below the warm phase's durable FULL checkpoint.
    // (The delta chain itself is re-truncated on restart — the
    // documented reopen window — so the full tier is the cross-process
    // floor; the MC enumerator proves the within-process ack floor.)
    EXPECT_GE(recovered->iteration, run.warm_full_iteration)
        << "durable checkpoint regressed, " << where;
    EXPECT_LE(recovered->iteration,
              sweep.warmup_iters + sweep.main_iters);
    // Integrity: marker scheme holds and the newest stamp matches.
    EXPECT_EQ(TrainingState::verify_buffer_sparse(buffer.data(),
                                                  buffer.size()),
              std::make_optional(recovered->iteration))
        << where;
    // Exactness: byte-identical to the state at that iteration. Every
    // frame carries its chunks' content AT the frame's iteration, so a
    // full base plus any sealed prefix of its chain reproduces the
    // state at the last applied frame exactly.
    const auto expected = shadow_at(recovered->iteration);
    EXPECT_EQ(buffer, expected)
        << "recovered image diverges from the iteration-"
        << recovered->iteration << " state, " << where << " delta_frames "
        << recovered->delta_frames;
    return recovered->iteration;
}

TEST(DeltaSweepTest, InvariantHoldsAtRandomCrashPoints)
{
    PsanCleanGuard psan_clean;
    const SweepConfig sweep;
    const int seeds = sweep_seeds("PCCHECK_CRASH_SWEEP_SEEDS", 64);
    int crashed = 0;
    for (int s = 1; s <= seeds; ++s) {
        const std::uint64_t seed = 3000 + static_cast<std::uint64_t>(s);
        const SeedRun run = run_training(seed, sweep);
        ASSERT_TRUE(is_own_crash_point(run.point, run.mark))
            << "seed " << seed << " " << run.point.clause();
        ++crashed;
        EXPECT_GT(run.delta_frames, 0u);  // the delta path is exercised
        const std::uint64_t recovered_iteration =
            check_crash_image(run, sweep, seed);
        if (recovered_iteration == 0) {
            continue;
        }

        // Resume: recover into a fresh state, train on with the delta
        // tier live, and require durable progress past the crash.
        const auto dead = reboot(run.point.image());
        SimGpu gpu(fast_gpu());
        TrainingState state(gpu, kState);
        const auto loaded = recover_latest_into_state(*dead, state);
        ASSERT_TRUE(loaded.has_value());
        ASSERT_EQ(loaded->iteration, recovered_iteration);
        PCcheckCheckpointer resumed(state, *dead, sweep_config(seed));
        TrainingLoop loop(gpu, state, tiny_model());
        loop.set_delta_interval(1);
        loop.set_sparse_updates(kSparseFraction, kSparseSeed);
        loop.run(4, 2, resumed, loaded->iteration + 1);
        const auto after = resumed.slot_store().last_published();
        ASSERT_TRUE(after.has_value());
        EXPECT_GT(after->iteration, run.warm_full_iteration)
            << "resume made no durable progress, seed " << seed;
    }
    EXPECT_EQ(crashed, seeds);
}

TEST(DeltaSweepTest, InvariantHoldsWithAppendFaultNoise)
{
    PsanCleanGuard psan_clean;
    // delta.append and the storage ops under it fail transiently; the
    // orchestrator's skip-and-retry path runs while crashes land.
    SweepConfig sweep;
    sweep.noise =
        "delta.append:transient@p=0.05;"
        "storage.persist:transient@p=0.01";
    const int seeds = sweep_seeds("PCCHECK_CRASH_SWEEP_SEEDS", 64) / 4 + 1;
    int crashed = 0;
    for (int s = 1; s <= seeds; ++s) {
        const std::uint64_t seed = 7000 + static_cast<std::uint64_t>(s);
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
