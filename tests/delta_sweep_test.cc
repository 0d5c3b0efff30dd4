/**
 * @file
 * Delta-tier crash-monkey sweep (docs/DELTA_LOG.md): training with
 * sparse updates seals one delta frame per iteration on top of
 * interval-spaced full checkpoints; each seed crashes at a seeded
 * storage-op index (including inside DeltaLog::append via the
 * delta.append fault point), recovers the post-crash media image with
 * the three-tier recover_to_buffer, and checks:
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
constexpr Bytes kLogBytes = 1 * kMiB;  // roomy: no mid-epoch skips
constexpr double kSparseFraction = 0.25;
constexpr std::uint64_t kSparseSeed = 99;

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
    std::uint64_t interval = 4;  ///< fulls; deltas land every iteration
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
    /** Last durable FULL-tier iteration before faults were armed. */
    std::uint64_t warm_full_iteration = 0;
    std::uint64_t delta_frames = 0;  ///< frames sealed by the main run
    std::vector<std::uint8_t> image;
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

/** One train → crash-capture → drain cycle (crash_op == 0 calibrates). */
SeedRun
run_training(std::uint64_t seed, std::uint64_t crash_op,
             const SweepConfig& sweep)
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
        // checkpoint exists before any trigger can fire.
        PCcheckCheckpointer warm(state, device, sweep_config(seed));
        TrainingLoop loop(gpu, state, tiny_model());
        loop.set_delta_interval(1);
        loop.set_sparse_updates(kSparseFraction, kSparseSeed);
        loop.run(sweep.warmup_iters, sweep.interval, warm);
        const auto published = warm.slot_store().last_published();
        PCCHECK_CHECK(published.has_value());
        out.warm_full_iteration = published->iteration;
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
        PCcheckCheckpointer main(state, device, sweep_config(seed));
        // Arm the delta.append fault point: the crash trigger (a
        // global op-index trigger) can now land at the top of an
        // append, between an append's storage ops (via the decorated
        // device), or anywhere else in the op stream.
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

/** Recover + validate one crash image; 0 on (already reported) failure. */
std::uint64_t
check_crash_image(const SeedRun& run, const SweepConfig& sweep,
                  std::uint64_t seed, std::uint64_t crash_op)
{
    MemStorage dead(run.image.size());
    std::memcpy(dead.raw(), run.image.data(), run.image.size());
    std::vector<std::uint8_t> buffer;
    const auto recovered = recover_to_buffer(dead, &buffer);
    EXPECT_TRUE(recovered.has_value())
        << "invariant violated: no recoverable checkpoint, seed " << seed
        << " crash_op " << crash_op;
    if (!recovered.has_value()) {
        return 0;
    }
    // Floor: never below the warm phase's durable FULL checkpoint.
    // (The delta chain itself is re-truncated on restart — the
    // documented reopen window — so the full tier is the cross-process
    // floor; the MC enumerator proves the within-process ack floor.)
    EXPECT_GE(recovered->iteration, run.warm_full_iteration)
        << "durable checkpoint regressed, seed " << seed << " crash_op "
        << crash_op;
    EXPECT_LE(recovered->iteration,
              sweep.warmup_iters + sweep.main_iters);
    // Integrity: marker scheme holds and the newest stamp matches.
    EXPECT_EQ(TrainingState::verify_buffer_sparse(buffer.data(),
                                                  buffer.size()),
              std::make_optional(recovered->iteration))
        << "seed " << seed << " crash_op " << crash_op;
    // Exactness: byte-identical to the state at that iteration. Every
    // frame carries its chunks' content AT the frame's iteration, so a
    // full base plus any sealed prefix of its chain reproduces the
    // state at the last applied frame exactly.
    const auto expected = shadow_at(recovered->iteration);
    EXPECT_EQ(buffer, expected)
        << "recovered image diverges from the iteration-"
        << recovered->iteration << " state, seed " << seed << " crash_op "
        << crash_op << " delta_frames " << recovered->delta_frames;
    return recovered->iteration;
}

TEST(DeltaSweepTest, InvariantHoldsAtRandomCrashPoints)
{
    PsanCleanGuard psan_clean;
    const SweepConfig sweep;
    const SeedRun calib = run_training(54321, 0, sweep);
    ASSERT_GT(calib.ops_total, calib.ops_after_warmup);
    ASSERT_GT(calib.delta_frames, 0u);  // the delta path is exercised

    const int seeds = sweep_seeds(64);
    int crashed = 0;
    for (int s = 1; s <= seeds; ++s) {
        const std::uint64_t seed = 3000 + static_cast<std::uint64_t>(s);
        Rng pick(seed * 0x9E3779B97F4A7C15ULL);
        const std::uint64_t crash_op =
            calib.ops_after_warmup + 1 +
            pick.next_below(calib.ops_total - calib.ops_after_warmup);
        const SeedRun run = run_training(seed, crash_op, sweep);
        if (!run.crashed) {
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

        // Resume: recover into a fresh state, train on with the delta
        // tier live, and require durable progress past the crash.
        MemStorage dead(run.image.size());
        std::memcpy(dead.raw(), run.image.data(), run.image.size());
        SimGpu gpu(fast_gpu());
        TrainingState state(gpu, kState);
        const auto loaded = recover_latest_into_state(dead, state);
        ASSERT_TRUE(loaded.has_value());
        ASSERT_EQ(loaded->iteration, recovered_iteration);
        PCcheckCheckpointer resumed(state, dead, sweep_config(seed));
        TrainingLoop loop(gpu, state, tiny_model());
        loop.set_delta_interval(1);
        loop.set_sparse_updates(kSparseFraction, kSparseSeed);
        loop.run(4, 2, resumed, loaded->iteration + 1);
        const auto after = resumed.slot_store().last_published();
        ASSERT_TRUE(after.has_value());
        EXPECT_GT(after->iteration, run.warm_full_iteration)
            << "resume made no durable progress, seed " << seed;
    }
    EXPECT_GE(crashed, seeds * 9 / 10);
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
    const SeedRun calib = run_training(888, 0, sweep);
    ASSERT_GT(calib.ops_total, calib.ops_after_warmup);

    const int seeds = sweep_seeds(64) / 4 + 1;
    int crashed = 0;
    for (int s = 1; s <= seeds; ++s) {
        const std::uint64_t seed = 7000 + static_cast<std::uint64_t>(s);
        Rng pick(seed * 0xBF58476D1CE4E5B9ULL);
        const std::uint64_t crash_op =
            calib.ops_after_warmup + 1 +
            pick.next_below(calib.ops_total - calib.ops_after_warmup);
        const SeedRun run = run_training(seed, crash_op, sweep);
        if (!run.crashed) {
            ASSERT_GT(crash_op, run.ops_total);
            continue;
        }
        ++crashed;
        check_crash_image(run, sweep, seed, crash_op);
    }
    EXPECT_GE(crashed, seeds / 2);
}

TEST(DeltaSweepTest, CalibrationRunIsCleanAndDeterministic)
{
    PsanCleanGuard psan_clean;
    const SweepConfig sweep;
    const SeedRun a = run_training(4242, 0, sweep);
    const SeedRun b = run_training(4242, 0, sweep);
    EXPECT_FALSE(a.crashed);
    EXPECT_EQ(a.ops_after_warmup, b.ops_after_warmup);
    EXPECT_EQ(a.ops_total, b.ops_total);
    EXPECT_EQ(a.delta_frames, b.delta_frames);
    EXPECT_GT(a.delta_frames, 0u);
}

}  // namespace
}  // namespace pccheck
