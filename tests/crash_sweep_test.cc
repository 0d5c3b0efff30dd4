/**
 * @file
 * Crash-monkey sweep: the paper's central invariant ("at any crash
 * point, recovery finds at least one fully persisted checkpoint")
 * checked empirically at scale. Each seed runs the full training loop
 * with N concurrent checkpoints over CrashSimStorage behind a
 * FaultyStorage decorator, fires a crash trigger at a seed-chosen
 * storage-op index, captures the adversarial post-crash media image,
 * recovers from it, validates the CRC-checked stamp, and resumes
 * training from the recovered state.
 *
 * Runs 64 seeds by default; set PCCHECK_CRASH_SWEEP_SEEDS to widen
 * (bench/crash_sweep.cc runs the 200+-seed version). Every failure
 * is replayable from its printed seed and crash-op index.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/orchestrator.h"
#include "core/recovery.h"
#include "core/slot_store.h"
#include "faults/fault.h"
#include "faults/faulty_storage.h"
#include "psan/psan.h"
#include "storage/crash_sim.h"
#include "storage/mem_storage.h"
#include "trainsim/models.h"
#include "trainsim/training_loop.h"
#include "util/annotations.h"
#include "util/check.h"
#include "util/rng.h"

namespace pccheck {
namespace {

constexpr Bytes kState = 16 * 1024;
constexpr int kConcurrent = 2;
constexpr int kSlots = kConcurrent + 1;

GpuConfig
fast_gpu()
{
    GpuConfig config;
    config.memory_bytes = 2 * kMiB;
    config.pcie_bytes_per_sec = 0;
    return config;
}

ScaledModel
tiny_model()
{
    return scale_model(model_by_name("vgg16"),
                       ScaleFactors{600.0, 20000.0});
}

struct SweepConfig {
    std::uint64_t warmup_iters = 4;
    std::uint64_t main_iters = 14;
    std::uint64_t interval = 2;
    /** Extra FaultPlan spec active alongside the crash trigger. */
    std::string noise;
};

/**
 * Asserts the enclosing scope reported no psan violations
 * (docs/PSAN.md). Vacuous when the sanitizer is off; under
 * PCCHECK_PSAN=1 every seed of the sweep must run contract-clean.
 */
class PsanCleanGuard {
  public:
    PsanCleanGuard() : before_(psan::Runtime::global().violation_count()) {}
    ~PsanCleanGuard()
    {
        EXPECT_EQ(psan::Runtime::global().violation_count(), before_)
            << "sweep must be psan-clean";
    }

  private:
    std::uint64_t before_;
};

struct SeedRun {
    std::uint64_t ops_after_warmup = 0;
    std::uint64_t ops_total = 0;
    bool crashed = false;
    /** Latest durable iteration before faults were armed. */
    std::uint64_t warm_iteration = 0;
    /** Latest durable iteration at the clean end of the run. */
    std::uint64_t final_iteration = 0;
    /** Post-crash media image (empty unless crashed). */
    std::vector<std::uint8_t> image;
};

/**
 * One full train → crash-capture → drain cycle. With @p crash_op == 0
 * no crash trigger is armed (calibration: measures the op-stream
 * length, which is deterministic for a noise-free plan).
 */
SeedRun
run_training(std::uint64_t seed, std::uint64_t crash_op,
             const SweepConfig& sweep)
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
    out.ops_after_warmup = injector->ops();

    FaultPlan plan;
    if (crash_op > 0) {
        FaultRule crash;
        crash.point = "*";
        crash.action = FaultAction::kCrash;
        crash.trigger = FaultTrigger::kNthOp;
        crash.nth = crash_op;
        crash.limit = 1;
        plan.add(crash);  // first so noise rules cannot shadow it
    }
    const FaultPlan noise_plan = FaultPlan::parse(sweep.noise);
    for (const FaultRule& rule : noise_plan.rules()) {
        plan.add(rule);
    }
    Mutex image_mu;
    injector->set_crash_handler([&out, &image_mu, media] {
        MutexLock lock(image_mu);
        out.image = media->crash_image();
    });
    injector->set_plan(std::move(plan));

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
    out.ops_total = injector->ops();
    out.crashed = injector->crashes() > 0;
    return out;
}

int
sweep_seeds(int fallback)
{
    const char* env = std::getenv("PCCHECK_CRASH_SWEEP_SEEDS");
    if (env != nullptr && std::atoi(env) > 0) {
        return std::atoi(env);
    }
    return fallback;
}

/** Recover + validate one captured crash image; returns the
 *  recovered iteration (asserts on any invariant violation). */
std::uint64_t
check_crash_image(const SeedRun& run, const SweepConfig& sweep,
                  std::uint64_t seed, std::uint64_t crash_op)
{
    MemStorage dead(run.image.size());
    std::memcpy(dead.raw(), run.image.data(), run.image.size());
    std::vector<std::uint8_t> buffer;
    const auto recovered = recover_to_buffer(dead, &buffer);
    // THE invariant: a fully persisted checkpoint always exists.
    EXPECT_TRUE(recovered.has_value())
        << "invariant violated: no recoverable checkpoint, seed " << seed
        << " crash_op " << crash_op;
    if (!recovered.has_value()) {
        return 0;
    }
    EXPECT_GE(recovered->iteration, run.warm_iteration)
        << "durable checkpoint regressed, seed " << seed << " crash_op "
        << crash_op;
    EXPECT_LE(recovered->iteration,
              sweep.warmup_iters + sweep.main_iters);
    EXPECT_EQ(recovered->iteration % sweep.interval, 0u);
    // Recovery already validated the stored CRC; the stamp check
    // additionally proves the bytes are the iteration's actual state.
    EXPECT_EQ(TrainingState::verify_buffer(buffer.data(), buffer.size()),
              std::make_optional(recovered->iteration))
        << "seed " << seed << " crash_op " << crash_op;
    return recovered->iteration;
}

TEST(CrashSweepTest, InvariantHoldsAtRandomCrashPoints)
{
    PsanCleanGuard psan_clean;
    const SweepConfig sweep;
    // Calibrate the op-stream length once (deterministic workload).
    const SeedRun calib = run_training(12345, 0, sweep);
    ASSERT_GT(calib.ops_total, calib.ops_after_warmup);

    const int seeds = sweep_seeds(64);
    int crashed = 0;
    for (int s = 1; s <= seeds; ++s) {
        const std::uint64_t seed = 1000 + static_cast<std::uint64_t>(s);
        Rng pick(seed * 0x9E3779B97F4A7C15ULL);
        const std::uint64_t crash_op =
            calib.ops_after_warmup + 1 +
            pick.next_below(calib.ops_total - calib.ops_after_warmup);
        const SeedRun run = run_training(seed, crash_op, sweep);
        if (!run.crashed) {
            // Only legitimate when this run's op stream ended before
            // the chosen index; anything else is a harness bug.
            ASSERT_GT(crash_op, run.ops_total)
                << "crash trigger silently skipped, seed " << seed;
            continue;
        }
        ++crashed;
        const std::uint64_t recovered_iteration =
            check_crash_image(run, sweep, seed, crash_op);
        if (recovered_iteration == 0) {
            continue;
        }

        // Resume: a fresh "process" recovers from the post-crash
        // media and keeps training (and checkpointing) on top of it.
        MemStorage dead(run.image.size());
        std::memcpy(dead.raw(), run.image.data(), run.image.size());
        SimGpu gpu(fast_gpu());
        TrainingState state(gpu, kState);
        const auto loaded = recover_latest_into_state(dead, state);
        ASSERT_TRUE(loaded.has_value());
        ASSERT_EQ(loaded->iteration, recovered_iteration);
        PCcheckConfig config;
        config.concurrent_checkpoints = kConcurrent;
        PCcheckCheckpointer resumed(state, dead, config);
        TrainingLoop loop(gpu, state, tiny_model());
        loop.run(4, sweep.interval, resumed, loaded->iteration + 1);
        const auto after = resumed.commit_protocol().latest_pointer();
        ASSERT_TRUE(after.has_value());
        EXPECT_GT(after->iteration, recovered_iteration)
            << "resume made no durable progress, seed " << seed;
    }
    // The sweep is meaningless if the triggers never fired.
    EXPECT_GE(crashed, seeds * 9 / 10);
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
    const SeedRun calib = run_training(777, 0, sweep);
    ASSERT_GT(calib.ops_total, calib.ops_after_warmup);

    const int seeds = sweep_seeds(64) / 4 + 1;
    int crashed = 0;
    for (int s = 1; s <= seeds; ++s) {
        const std::uint64_t seed = 5000 + static_cast<std::uint64_t>(s);
        Rng pick(seed * 0xBF58476D1CE4E5B9ULL);
        const std::uint64_t crash_op =
            calib.ops_after_warmup + 1 +
            pick.next_below(calib.ops_total - calib.ops_after_warmup);
        const SeedRun run = run_training(seed, crash_op, sweep);
        if (!run.crashed) {
            // Retries shift per-seed op counts, so a tail index can
            // fall past the end of a shorter stream; that seed simply
            // did not crash and verifies nothing.
            ASSERT_GT(crash_op, run.ops_total);
            continue;
        }
        ++crashed;
        check_crash_image(run, sweep, seed, crash_op);
    }
    // Transient noise shifts op counts, but most indices must land.
    EXPECT_GE(crashed, seeds / 2);
}

TEST(CrashSweepTest, CalibrationRunIsCleanAndDeterministic)
{
    PsanCleanGuard psan_clean;
    const SweepConfig sweep;
    const SeedRun a = run_training(42, 0, sweep);
    const SeedRun b = run_training(42, 0, sweep);
    EXPECT_FALSE(a.crashed);
    EXPECT_EQ(a.ops_after_warmup, b.ops_after_warmup);
    EXPECT_EQ(a.ops_total, b.ops_total);
    EXPECT_EQ(a.final_iteration, b.final_iteration);
    EXPECT_EQ(a.final_iteration,
              sweep.warmup_iters + sweep.main_iters);
}

}  // namespace
}  // namespace pccheck
