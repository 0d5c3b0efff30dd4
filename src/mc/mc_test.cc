/**
 * @file
 * Unit tests for the model checker itself: token codec round-trips,
 * scheduler serialization and determinism, deterministic replay
 * (satellite requirement: same seed => byte-identical trace; a saved
 * failing token => the same assertion), and the exploration drivers
 * on small synthetic models.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mc/crash_enum.h"
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
    EXPECT_EQ(text, "v1.2.1,0.crash@27:0x1b");
    const auto token = decode_token(text);
    ASSERT_TRUE(token.has_value());
    ASSERT_TRUE(token->crash_op.has_value());
    EXPECT_EQ(*token->crash_op, 27u);
    EXPECT_EQ(token->crash_mask, 0x1bu);
    EXPECT_EQ(token->choices, choices);
}

TEST(Token, RejectsGarbage)
{
    EXPECT_FALSE(decode_token("").has_value());
    EXPECT_FALSE(decode_token("v2.3.0").has_value());
    EXPECT_FALSE(decode_token("v1.0.0").has_value());
    EXPECT_FALSE(decode_token("v1.2.5").has_value());  // thread out of range
    EXPECT_FALSE(decode_token("v1.2.0.crash@3").has_value());
    EXPECT_FALSE(decode_token("v1.2.0.crash@3:0xzz").has_value());
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

// ---- crash enumeration ----

TEST(CrashEnum, Listing1HasNoUnrecoverableImage)
{
    const ModelConfig config;
    DefaultStrategy strategy;
    const CrashEnumResult r =
        enumerate_crashes(config, Mutation::kNone, strategy);
    EXPECT_FALSE(r.violated) << r.message << " token=" << r.token;
    EXPECT_GT(r.crash_points, 0u);
    EXPECT_GT(r.images, r.crash_points);
}

TEST(CrashEnum, NoFenceCaughtAndTokenReplays)
{
    const ModelConfig config;
    DefaultStrategy strategy;
    const CrashEnumResult r =
        enumerate_crashes(config, Mutation::kNoFence, strategy);
    ASSERT_TRUE(r.violated);
    EXPECT_FALSE(r.schedule_violation);
    const auto token = decode_token(r.token);
    ASSERT_TRUE(token.has_value());
    ASSERT_TRUE(token->crash_op.has_value());
    const std::string replayed =
        replay_crash_token(config, Mutation::kNoFence, *token);
    EXPECT_EQ(replayed, r.message);
    // The same token against the FIXED algorithm shows no violation.
    const std::string fixed =
        replay_crash_token(config, Mutation::kNone, *token);
    EXPECT_EQ(fixed, "");
}

TEST(CrashEnum, MutexQueueVariantClean)
{
    ModelConfig config;
    config.queue_kind = SlotQueueKind::kMutex;
    DefaultStrategy strategy;
    const CrashEnumResult r =
        enumerate_crashes(config, Mutation::kNone, strategy);
    EXPECT_FALSE(r.violated) << r.message;
}

TEST(DeltaEnum, FaithfulAppenderHasNoBadImage)
{
    const DeltaModelConfig config;
    const DeltaEnumResult r =
        enumerate_delta_crashes(config, DeltaMutation::kNone);
    EXPECT_FALSE(r.violated) << r.message;
    EXPECT_EQ(r.fulls_published, static_cast<std::size_t>(config.fulls));
    EXPECT_EQ(r.frames_sealed,
              static_cast<std::size_t>(config.fulls *
                                       config.deltas_between));
    EXPECT_GT(r.crash_points, 0u);
    EXPECT_GT(r.images, r.crash_points);
}

TEST(DeltaEnum, AckBeforePayloadCaughtAndReplays)
{
    const DeltaModelConfig config;
    const DeltaEnumResult r = enumerate_delta_crashes(
        config, DeltaMutation::kAckBeforePayload);
    ASSERT_TRUE(r.violated);
    // Deterministic workload: the (crash_op, mask) pair reproduces.
    const std::string replayed = replay_delta_crash(
        config, DeltaMutation::kAckBeforePayload, r.crash_op, r.crash_mask);
    EXPECT_EQ(replayed, r.message);
    // The same image against the FAITHFUL appender is clean.
    // (Op indices differ across variants, so re-check the faithful
    // enumeration end-to-end instead of replaying the same pair.)
    const DeltaEnumResult fixed =
        enumerate_delta_crashes(config, DeltaMutation::kNone);
    EXPECT_FALSE(fixed.violated) << fixed.message;
}

TEST(DeltaEnum, ResetBeforePublishCaughtAndReplays)
{
    const DeltaModelConfig config;
    const DeltaEnumResult r = enumerate_delta_crashes(
        config, DeltaMutation::kResetBeforePublish);
    ASSERT_TRUE(r.violated);
    const std::string replayed =
        replay_delta_crash(config, DeltaMutation::kResetBeforePublish,
                           r.crash_op, r.crash_mask);
    EXPECT_EQ(replayed, r.message);
}

TEST(DeltaEnum, DifferentStorageSeedsStayClean)
{
    for (std::uint64_t seed = 2; seed <= 4; ++seed) {
        DeltaModelConfig config;
        config.storage_seed = seed;
        const DeltaEnumResult r =
            enumerate_delta_crashes(config, DeltaMutation::kNone);
        EXPECT_FALSE(r.violated) << "seed " << seed << ": " << r.message;
    }
}

TEST(RecoveryEnum, FaithfulSalvageSurvivesEveryCrashImage)
{
    const RecoveryModelConfig config;
    const RecoveryEnumResult r =
        enumerate_recovery_crashes(config, RecoveryMutation::kNone);
    EXPECT_FALSE(r.violated) << r.message;
    // The model's planner really did fetch from the peer and salvage —
    // otherwise the enumeration covered nothing interesting.
    EXPECT_TRUE(r.salvaged);
    EXPECT_GT(r.crash_points, 0u);
    EXPECT_GT(r.images, r.crash_points);
}

TEST(RecoveryEnum, RepairOverLastGoodBreaksLocalFloor)
{
    const RecoveryModelConfig config;
    const RecoveryEnumResult r = enumerate_recovery_crashes(
        config, RecoveryMutation::kRepairOverLastGood);
    ASSERT_TRUE(r.violated);
    // The weakened salvage destroys the last good local copy while the
    // rotted one is still quarantined: no local floor remains.
    EXPECT_NE(r.message.find("no locally recoverable state"),
              std::string::npos)
        << r.message;
}

TEST(RecoveryEnum, DifferentStorageSeedsStayClean)
{
    for (std::uint64_t seed = 2; seed <= 4; ++seed) {
        RecoveryModelConfig config;
        config.storage_seed = seed;
        const RecoveryEnumResult r =
            enumerate_recovery_crashes(config, RecoveryMutation::kNone);
        EXPECT_FALSE(r.violated) << "seed " << seed << ": " << r.message;
    }
}

TEST(RecoveryEnum, MoreCheckpointsStayClean)
{
    RecoveryModelConfig config;
    config.checkpoints = 5;
    const RecoveryEnumResult r =
        enumerate_recovery_crashes(config, RecoveryMutation::kNone);
    EXPECT_FALSE(r.violated) << r.message;
}

}  // namespace
}  // namespace pccheck::mc
