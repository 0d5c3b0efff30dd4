/**
 * @file
 * Unit tests for the model checker itself: token codec round-trips,
 * scheduler serialization and determinism, deterministic replay
 * (satellite requirement: same seed => byte-identical trace; a saved
 * failing token => the same assertion), and the exploration drivers
 * on small synthetic models.
 */

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "mc/crash_enum.h"
#include "mc/crash_images.h"
#include "mc/delta_enum.h"
#include "mc/recovery_enum.h"
#include "mc/explore.h"
#include "mc/models.h"
#include "mc/scheduler.h"
#include "mc/shim.h"
#include "mc/token.h"

namespace pccheck::mc {
namespace {

// ---- token codec ----

TEST(Token, RoundTripsSchedules)
{
    const std::vector<std::uint8_t> choices = {0, 0, 0, 1, 1, 2, 0};
    const std::string text = encode_token(3, choices);
    EXPECT_EQ(text, "v1.3.0x3,1x2,2,0");
    const auto token = decode_token(text);
    ASSERT_TRUE(token.has_value());
    EXPECT_EQ(token->num_threads, 3);
    EXPECT_EQ(token->choices, choices);
    EXPECT_FALSE(token->crash_op.has_value());
}

TEST(Token, RoundTripsCrashClause)
{
    const std::vector<std::uint8_t> choices = {1, 0};
    const std::string text = encode_token(2, choices, 27, 0x1b);
    EXPECT_EQ(text, "v1.2.1,0." + crash_clause(27, 0x1b));
    EXPECT_EQ(crash_clause(27, 0x1b), "crash@27:0x1b");
    const auto token = decode_token(text);
    ASSERT_TRUE(token.has_value());
    ASSERT_TRUE(token->crash_op.has_value());
    EXPECT_EQ(*token->crash_op, 27u);
    EXPECT_EQ(token->crash_mask, LineMask(0x1b));
    EXPECT_EQ(token->choices, choices);

    // Up to 64 lines a mask prints and parses as one hex number.
    EXPECT_EQ(crash_clause(0, 0), "crash@0:0x0");
    EXPECT_EQ(crash_clause(11, ~0ULL), "crash@11:0xffffffffffffffff");
    auto narrow = decode_token("v1.2..crash@6:0x0001");
    ASSERT_TRUE(narrow.has_value());
    EXPECT_EQ(narrow->crash_mask, LineMask(1));
    narrow = decode_token("v1.2..crash@6:0xffffffffffffffff");
    ASSERT_TRUE(narrow.has_value());
    EXPECT_EQ(narrow->crash_mask, LineMask(~0ULL));
    // Past 64 lines the digits go on; the clause still round-trips.
    LineMask wide;
    wide.keep(0);
    wide.keep(64);
    wide.keep(99);
    EXPECT_EQ(crash_clause(5, wide), "crash@5:0x8000000010000000000000001");
    const auto decoded = decode_token("v1.2.0." + crash_clause(5, wide));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->crash_mask, wide);
    EXPECT_FALSE(decoded->crash_mask.keeps(63));
}

TEST(Token, RejectsGarbage)
{
    EXPECT_FALSE(decode_token("").has_value());
    EXPECT_FALSE(decode_token("v2.3.0").has_value());
    EXPECT_FALSE(decode_token("v1.0.0").has_value());
    EXPECT_FALSE(decode_token("v1.2.5").has_value());  // thread out of range
    EXPECT_FALSE(decode_token("v1.2.0.crash@3").has_value());
    EXPECT_FALSE(decode_token("v1.2.0.crash@3:0xzz").has_value());
    // Only the digits the grammar names: no sign, no leading space,
    // no second hex prefix.
    EXPECT_FALSE(decode_token("v1.2.0.crash@-1:0x0").has_value());
    EXPECT_FALSE(decode_token("v1.+3.0").has_value());
    EXPECT_FALSE(decode_token("v1. 3.0").has_value());
    EXPECT_FALSE(decode_token("v1.2.0.crash@3:0x-1").has_value());
    EXPECT_FALSE(decode_token("v1.2.0.crash@3:0x0x0").has_value());
}

// ---- scheduler ----

TEST(Scheduler, SerializesThreadsAndRecordsChoices)
{
    // Two threads increment a shared non-atomic counter through the
    // shim; serialization means no increment is lost regardless of
    // the schedule.
    Atomic<int> counter{0};
    auto body = [&counter] {
        for (int i = 0; i < 5; ++i) {
            counter.fetch_add(1, std::memory_order_seq_cst);
        }
    };
    Scheduler scheduler;
    DefaultStrategy strategy;
    const RunResult r = scheduler.run({body, body}, strategy);
    EXPECT_FALSE(r.violated);
    EXPECT_EQ(counter.load(std::memory_order_seq_cst), 10);
    EXPECT_EQ(r.choices.size(), r.steps);
    EXPECT_EQ(r.enabled.size(), r.steps);
}

TEST(Scheduler, ViolationAbortsAllThreads)
{
    Atomic<int> reached{0};
    auto bad = [] { Scheduler::fail("intentional"); };
    auto good = [&reached] {
        for (int i = 0; i < 100; ++i) {
            reached.fetch_add(1, std::memory_order_seq_cst);
        }
    };
    Scheduler scheduler;
    DefaultStrategy strategy;
    const RunResult r = scheduler.run({bad, good}, strategy);
    EXPECT_TRUE(r.violated);
    EXPECT_EQ(r.message, "intentional");
}

TEST(Scheduler, MutexBlocksAndHandsOver)
{
    Mutex mu;
    std::vector<int> order;
    auto body = [&mu, &order](int id) {
        MutexLock lock(mu);
        order.push_back(id);
        // A schedule point inside the critical section: the other
        // thread must block on the mutex, not interleave.
        Atomic<int> dummy{0};
        dummy.store(1, std::memory_order_seq_cst);
        order.push_back(id);
    };
    Scheduler scheduler;
    DefaultStrategy strategy;
    const RunResult r = scheduler.run(
        {[&] { body(0); }, [&] { body(1); }}, strategy);
    EXPECT_FALSE(r.violated);
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order[0], order[1]);  // critical sections not interleaved
    EXPECT_EQ(order[2], order[3]);
}

TEST(Scheduler, DeadlockIsReportedAndTokenReplays)
{
    // Classic lock-order inversion; the DFS must find the schedule
    // where both threads hold one mutex and want the other.
    const auto run_one = [](Strategy& strategy) {
        Mutex a;
        Mutex b;
        Atomic<int> sync{0};
        auto t0 = [&] {
            a.lock();
            sync.store(1, std::memory_order_seq_cst);  // schedule point
            b.lock();
            b.unlock();
            a.unlock();
        };
        auto t1 = [&] {
            b.lock();
            sync.store(2, std::memory_order_seq_cst);  // schedule point
            a.lock();
            a.unlock();
            b.unlock();
        };
        Scheduler scheduler;
        return scheduler.run({t0, t1}, strategy);
    };
    const ExploreResult r =
        explore_dfs(run_one, /*num_threads=*/2, /*preemption_bound=*/2,
                    /*max_executions=*/1000);
    ASSERT_GT(r.violations, 0u);
    EXPECT_NE(r.first_message.find("deadlock"), std::string::npos)
        << r.first_message;
    // The token pinpoints the deadlocking schedule deterministically.
    const auto token = decode_token(r.first_token);
    ASSERT_TRUE(token.has_value());
    PrefixStrategy replay(token->choices);
    const RunResult replayed = run_one(replay);
    EXPECT_TRUE(replayed.violated);
    EXPECT_EQ(replayed.message, r.first_message);
}

// ---- strategies ----

TEST(Strategies, PctSameSeedSameSchedule)
{
    const ModelConfig config;
    const RunFn run = make_run_fn(config, Mutation::kNone);
    PctStrategy a(42, config.threads, 3, 36);
    PctStrategy b(42, config.threads, 3, 36);
    const RunResult ra = run(a);
    const RunResult rb = run(b);
    EXPECT_FALSE(ra.violated) << ra.message;
    // Satellite: same seed => byte-identical schedule trace.
    EXPECT_EQ(ra.choices, rb.choices);
    EXPECT_EQ(ra.enabled, rb.enabled);
    EXPECT_EQ(ra.yielded, rb.yielded);
}

TEST(Strategies, DifferentSeedsDiffer)
{
    const ModelConfig config;
    const RunFn run = make_run_fn(config, Mutation::kNone);
    bool any_difference = false;
    const RunResult base = run(*std::make_unique<PctStrategy>(
        1, config.threads, 3, 36));
    for (std::uint64_t seed = 2; seed < 12 && !any_difference; ++seed) {
        PctStrategy s(seed, config.threads, 3, 36);
        any_difference = run(s).choices != base.choices;
    }
    EXPECT_TRUE(any_difference);
}

TEST(Strategies, PrefixReplayIsExact)
{
    const ModelConfig config;
    const RunFn run = make_run_fn(config, Mutation::kNone);
    PctStrategy original(7, config.threads, 3, 36);
    const RunResult first = run(original);
    PrefixStrategy replay(first.choices);
    const RunResult second = run(replay);
    EXPECT_EQ(first.choices, second.choices);
    EXPECT_FALSE(replay.diverged());
}

// ---- the commit models ----

TEST(CommitModel, Listing1CleanUnderDefaultSchedule)
{
    const ModelConfig config;
    DefaultStrategy strategy;
    CommitModel model(config, Mutation::kNone);
    const RunResult r = model.run(strategy);
    EXPECT_FALSE(r.violated) << r.message;
}

TEST(CommitModel, MiniModelMatchesRealOnSmallDfs)
{
    // The mini model (mutation host) must itself be clean — otherwise
    // a mutation "caught" could be an artifact of the mini rewrite.
    ModelConfig config;
    config.use_mini = true;
    const ExploreResult r = explore_dfs(
        make_run_fn(config, Mutation::kNone), config.threads,
        /*preemption_bound=*/1, /*max_executions=*/3000);
    EXPECT_EQ(r.violations, 0u) << r.first_message;
    EXPECT_GT(r.executions, 1u);
}

TEST(CommitModel, DfsBound1Listing1Clean)
{
    const ModelConfig config;
    const ExploreResult r =
        explore_dfs(make_run_fn(config, Mutation::kNone), config.threads,
                    /*preemption_bound=*/1, /*max_executions=*/3000);
    EXPECT_EQ(r.violations, 0u) << r.first_message;
}

TEST(Mutations, TicketReuseCaughtWithReplayableToken)
{
    const ModelConfig config;
    const ExploreResult r = explore_dfs(
        make_run_fn(config, Mutation::kTicketReuse), config.threads,
        /*preemption_bound=*/2, /*max_executions=*/200000);
    ASSERT_GT(r.violations, 0u);
    // Satellite: the saved failing token replays to the same
    // assertion.
    const auto token = decode_token(r.first_token);
    ASSERT_TRUE(token.has_value());
    CommitModel model(config, Mutation::kTicketReuse);
    PrefixStrategy replay(token->choices);
    const RunResult replayed = model.run(replay);
    EXPECT_TRUE(replayed.violated);
    EXPECT_EQ(replayed.message, r.first_message);
}

TEST(Mutations, BlindStoreCaught)
{
    const ModelConfig config;
    const ExploreResult r = explore_dfs(
        make_run_fn(config, Mutation::kBlindStore), config.threads,
        /*preemption_bound=*/2, /*max_executions=*/200000);
    ASSERT_GT(r.violations, 0u);
    const auto token = decode_token(r.first_token);
    ASSERT_TRUE(token.has_value());
    CommitModel model(config, Mutation::kBlindStore);
    PrefixStrategy replay(token->choices);
    const RunResult replayed = model.run(replay);
    EXPECT_TRUE(replayed.violated);
}

TEST(Mutations, LostWakeupDeadlocksWhenSlotStarved)
{
    // One slot per thread: begin() parks behind in-flight checkpoints,
    // so a recycle without its wake strands the parked thread.
    ModelConfig config;
    config.slot_count = 3;
    config.checkpoints_per_thread = 2;
    const ExploreResult r = explore_dfs(
        make_run_fn(config, Mutation::kLostWakeup), config.threads,
        /*preemption_bound=*/2, /*max_executions=*/200000);
    ASSERT_GT(r.violations, 0u);
    EXPECT_EQ(r.first_message.rfind("deadlock", 0), 0u) << r.first_message;
    const auto token = decode_token(r.first_token);
    ASSERT_TRUE(token.has_value());
    CommitModel model(config, Mutation::kLostWakeup);
    PrefixStrategy replay(token->choices);
    EXPECT_EQ(model.run(replay).message, r.first_message);
    // The same schedule with every wake in place completes.
    config.use_mini = true;
    CommitModel faithful(config, Mutation::kNone);
    PrefixStrategy again(token->choices);
    EXPECT_FALSE(faithful.run(again).violated);
}

// ---- the shared crash-image enumerator ----

/** One crash point over @p n one-byte lines, every line unflushed:
 *  durable 0x00, volatile 0xFF. */
CrashTrace one_byte_lines(std::size_t n)
{
    CrashTrace trace;
    CrashSnapshot snap;
    snap.line_size = 1;
    snap.durable.assign(n, 0x00);
    for (std::size_t i = 0; i < n; ++i) {
        snap.lines.push_back(i);
        snap.line_data.push_back({0xFF});
    }
    trace.push_back(std::move(snap));
    return trace;
}

/** Enumerate @p trace with an oracle that accepts and keeps every
 *  image it is shown. */
std::vector<std::vector<std::uint8_t>> images_seen(const CrashTrace& trace,
                                                   CrashImageResult* r)
{
    std::vector<std::vector<std::uint8_t>> seen;
    *r = enumerate_images(
        trace,
        [&seen](const CrashSnapshot&, const std::vector<std::uint8_t>& image)
            -> std::optional<std::string> {
            seen.push_back(image);
            return std::nullopt;
        });
    return seen;
}

TEST(CrashImages, PastTheLineLimitSamplesEmptyFullThenSeededMasks)
{
    const CrashTrace trace = one_byte_lines(13);
    CrashImageResult r;
    const auto seen = images_seen(trace, &r);
    EXPECT_FALSE(r.violated);
    EXPECT_EQ(r.crash_points, 1u);
    EXPECT_EQ(r.sampled_points, 1u);
    EXPECT_EQ(r.images, 2u + 4096u);
    ASSERT_EQ(seen.size(), 2u + 4096u);
    EXPECT_EQ(seen[0], std::vector<std::uint8_t>(13, 0x00));
    EXPECT_EQ(seen[1], std::vector<std::uint8_t>(13, 0xFF));
    // The draws are seeded from the op index: a second pass sees the
    // same images in the same order.
    CrashImageResult again;
    EXPECT_EQ(images_seen(trace, &again), seen);
}

TEST(CrashImages, UpToTheLineLimitEnumeratesEveryMask)
{
    const CrashTrace trace = one_byte_lines(12);
    CrashImageResult r;
    const auto seen = images_seen(trace, &r);
    EXPECT_EQ(r.sampled_points, 0u);
    EXPECT_EQ(r.images, 4096u);
    const std::set<std::vector<std::uint8_t>> distinct(seen.begin(),
                                                       seen.end());
    EXPECT_EQ(distinct.size(), 4096u);
}

TEST(CrashImages, ReplayOfAnUnrecordedOpIsNoVerdict)
{
    const CrashTrace trace = one_byte_lines(2);
    const ImageOracle reject_all = [](const CrashSnapshot&,
                                      const std::vector<std::uint8_t>&)
        -> std::optional<std::string> { return "rejected"; };
    const CrashImageResult hit = replay_image(trace, 0, 0x3, reject_all);
    EXPECT_TRUE(hit.violated);
    EXPECT_EQ(hit.token, "crash@0:0x3");
    const CrashImageResult miss = replay_image(trace, 7, 0x3, reject_all);
    EXPECT_FALSE(miss.violated);
    EXPECT_EQ(miss.crash_points, 0u);
    EXPECT_EQ(miss.images, 0u);
}

TEST(CrashImages, PastSixtyFourLinesMasksNameEveryLine)
{
    const CrashTrace trace = one_byte_lines(65);
    CrashImageResult r;
    const auto seen = images_seen(trace, &r);
    EXPECT_EQ(r.sampled_points, 1u);
    EXPECT_EQ(r.images, 2u + 4096u);
    ASSERT_EQ(seen.size(), 2u + 4096u);
    EXPECT_EQ(seen[1], std::vector<std::uint8_t>(65, 0xFF));
    // The draws reach the 65th line too.
    bool kept_last = false;
    for (const auto& image : seen) {
        kept_last = kept_last || image.back() == 0xFF;
    }
    EXPECT_TRUE(kept_last);
}

// ---- crash enumeration ----

TEST(CrashEnum, Listing1HasNoUnrecoverableImage)
{
    const ModelConfig config;
    DefaultStrategy strategy;
    const CrashImageResult r =
        enumerate_crashes(config, Mutation::kNone, strategy);
    EXPECT_FALSE(r.violated) << r.message << " token=" << r.token;
    EXPECT_EQ(r.crash_points, 18u);
    EXPECT_EQ(r.images, 30u);
}

TEST(CrashEnum, NoFenceCaughtAndTokenReplays)
{
    const ModelConfig config;
    DefaultStrategy strategy;
    const CrashImageResult r =
        enumerate_crashes(config, Mutation::kNoFence, strategy);
    ASSERT_TRUE(r.violated);
    const auto token = decode_token(r.token);
    ASSERT_TRUE(token.has_value());
    ASSERT_TRUE(token->crash_op.has_value());
    const CrashImageResult replayed =
        replay_crash_token(config, Mutation::kNoFence, *token);
    EXPECT_TRUE(replayed.violated);
    EXPECT_EQ(replayed.message, r.message);
    // The same token against the FIXED algorithm shows no violation.
    const CrashImageResult fixed =
        replay_crash_token(config, Mutation::kNone, *token);
    EXPECT_FALSE(fixed.violated) << fixed.message;
    EXPECT_EQ(fixed.crash_points, 1u);
}

TEST(CrashEnum, UnreachedCrashPointIsNotReproduced)
{
    // The faithful run has 18 crash points; op 999 names none of them.
    const auto token = decode_token("v1.3..crash@999:0x0");
    ASSERT_TRUE(token.has_value());
    const CrashImageResult r =
        replay_crash_token(ModelConfig(), Mutation::kNone, *token);
    EXPECT_FALSE(r.violated) << r.message;
    EXPECT_EQ(r.crash_points, 0u);
}

TEST(CrashEnum, MutexQueueVariantClean)
{
    ModelConfig config;
    config.queue_kind = SlotQueueKind::kMutex;
    DefaultStrategy strategy;
    const CrashImageResult r =
        enumerate_crashes(config, Mutation::kNone, strategy);
    EXPECT_FALSE(r.violated) << r.message;
    EXPECT_EQ(r.crash_points, 18u);
    EXPECT_EQ(r.images, 30u);
}

/** Enumerate one run of a deterministic workload. */
CrashImageResult enumerate(const CrashWorkload& w)
{
    return enumerate_images(w.trace, w.oracle);
}

/** Replay @p r's violating image on a fresh run @p fresh. */
CrashImageResult replay(const CrashWorkload& fresh,
                        const CrashImageResult& r)
{
    return replay_image(fresh.trace, r.crash_op, r.crash_mask, fresh.oracle);
}

TEST(DeltaEnum, FaithfulAppenderHasNoBadImage)
{
    const DeltaModelConfig config;
    const DeltaWorkload w = run_delta_workload(config, DeltaMutation::kNone);
    const CrashImageResult r = enumerate(w);
    EXPECT_FALSE(r.violated) << r.message;
    EXPECT_EQ(w.fulls_published, static_cast<std::size_t>(config.fulls));
    EXPECT_EQ(w.frames_sealed,
              static_cast<std::size_t>(config.fulls *
                                       config.deltas_between));
    EXPECT_EQ(r.crash_points, 66u);
    EXPECT_EQ(r.images, 642u);
}

TEST(DeltaEnum, AckBeforePayloadCaughtAndReplays)
{
    const DeltaModelConfig config;
    const CrashImageResult r = enumerate(
        run_delta_workload(config, DeltaMutation::kAckBeforePayload));
    ASSERT_TRUE(r.violated);
    EXPECT_EQ(r.token, crash_clause(r.crash_op, r.crash_mask));
    // Deterministic workload: the crash clause reproduces.
    const CrashImageResult replayed = replay(
        run_delta_workload(config, DeltaMutation::kAckBeforePayload), r);
    EXPECT_TRUE(replayed.violated);
    EXPECT_EQ(replayed.message, r.message);
    // The same image against the FAITHFUL appender is clean.
    // (Op indices differ across variants, so re-check the faithful
    // enumeration end-to-end instead of replaying the same pair.)
    const CrashImageResult fixed =
        enumerate(run_delta_workload(config, DeltaMutation::kNone));
    EXPECT_FALSE(fixed.violated) << fixed.message;
}

TEST(DeltaEnum, ResetBeforePublishCaughtAndReplays)
{
    const DeltaModelConfig config;
    const CrashImageResult r = enumerate(
        run_delta_workload(config, DeltaMutation::kResetBeforePublish));
    ASSERT_TRUE(r.violated);
    const CrashImageResult replayed = replay(
        run_delta_workload(config, DeltaMutation::kResetBeforePublish), r);
    EXPECT_TRUE(replayed.violated);
    EXPECT_EQ(replayed.message, r.message);
}

TEST(DeltaEnum, DifferentStorageSeedsStayClean)
{
    for (std::uint64_t seed = 2; seed <= 4; ++seed) {
        DeltaModelConfig config;
        config.storage_seed = seed;
        const CrashImageResult r =
            enumerate(run_delta_workload(config, DeltaMutation::kNone));
        EXPECT_FALSE(r.violated) << "seed " << seed << ": " << r.message;
        EXPECT_EQ(r.crash_points, 66u) << "seed " << seed;
        EXPECT_EQ(r.images, 642u) << "seed " << seed;
    }
}

TEST(RecoveryEnum, FaithfulSalvageSurvivesEveryCrashImage)
{
    const RecoveryModelConfig config;
    const RecoveryWorkload w =
        run_recovery_workload(config, RecoveryMutation::kNone);
    const CrashImageResult r = enumerate(w);
    EXPECT_FALSE(r.violated) << r.message;
    // The model's planner really did fetch from the peer and salvage —
    // otherwise the enumeration covered nothing interesting.
    EXPECT_TRUE(w.salvaged);
    EXPECT_EQ(r.crash_points, 18u);
    EXPECT_EQ(r.images, 58u);
}

TEST(RecoveryEnum, RepairOverLastGoodBreaksLocalFloor)
{
    const RecoveryModelConfig config;
    const CrashImageResult r = enumerate(run_recovery_workload(
        config, RecoveryMutation::kRepairOverLastGood));
    ASSERT_TRUE(r.violated);
    // The weakened salvage destroys the last good local copy while the
    // rotted one is still quarantined: no local floor remains.
    EXPECT_NE(r.message.find("no locally recoverable state"),
              std::string::npos)
        << r.message;
    const CrashImageResult replayed = replay(
        run_recovery_workload(config, RecoveryMutation::kRepairOverLastGood),
        r);
    EXPECT_TRUE(replayed.violated);
    EXPECT_EQ(replayed.message, r.message);
}

TEST(RecoveryEnum, DifferentStorageSeedsStayClean)
{
    for (std::uint64_t seed = 2; seed <= 4; ++seed) {
        RecoveryModelConfig config;
        config.storage_seed = seed;
        const CrashImageResult r =
            enumerate(run_recovery_workload(config, RecoveryMutation::kNone));
        EXPECT_FALSE(r.violated) << "seed " << seed << ": " << r.message;
        EXPECT_EQ(r.crash_points, 18u) << "seed " << seed;
        EXPECT_EQ(r.images, 58u) << "seed " << seed;
    }
}

TEST(RecoveryEnum, MoreCheckpointsStayClean)
{
    RecoveryModelConfig config;
    config.checkpoints = 5;
    const CrashImageResult r =
        enumerate(run_recovery_workload(config, RecoveryMutation::kNone));
    EXPECT_FALSE(r.violated) << r.message;
    EXPECT_EQ(r.crash_points, 18u);
    EXPECT_EQ(r.images, 58u);
}

}  // namespace
}  // namespace pccheck::mc
