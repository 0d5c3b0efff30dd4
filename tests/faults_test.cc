/**
 * @file
 * Unit tests for the fault-injection subsystem: FaultPlan parsing and
 * schedules, FaultInjector determinism, the FaultyStorage decorator's
 * error/passthrough semantics, and the deterministic exponential
 * backoff + bounded retry loop the persist path is built on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "faults/fault.h"
#include "faults/faulty_storage.h"
#include "faults/retry.h"
#include "storage/mem_storage.h"
#include "util/check.h"
#include "util/metrics.h"

namespace pccheck {
namespace {

TEST(FaultPlanTest, ParsesFullGrammar)
{
    const FaultPlan plan = FaultPlan::parse(
        "storage.persist:transient@p=0.01;"
        "*:node_loss@nth=1234;"
        "storage.write:stall=0.005@every=100,limit=3;"
        "storage.fence:permanent@window=10-20");
    ASSERT_EQ(plan.rules().size(), 4u);

    const FaultRule& a = plan.rules()[0];
    EXPECT_EQ(a.point, "storage.persist");
    EXPECT_EQ(a.action, FaultAction::kTransient);
    EXPECT_EQ(a.trigger, FaultTrigger::kProbability);
    EXPECT_DOUBLE_EQ(a.probability, 0.01);

    const FaultRule& b = plan.rules()[1];
    EXPECT_EQ(b.point, "*");
    EXPECT_EQ(b.action, FaultAction::kNodeLoss);
    EXPECT_EQ(b.trigger, FaultTrigger::kNthOp);
    EXPECT_EQ(b.nth, 1234u);

    const FaultRule& c = plan.rules()[2];
    EXPECT_EQ(c.action, FaultAction::kStall);
    EXPECT_DOUBLE_EQ(c.stall_seconds, 0.005);
    EXPECT_EQ(c.trigger, FaultTrigger::kEveryNthOp);
    EXPECT_EQ(c.nth, 100u);
    EXPECT_EQ(c.limit, 3u);

    const FaultRule& d = plan.rules()[3];
    EXPECT_EQ(d.action, FaultAction::kPermanent);
    EXPECT_EQ(d.trigger, FaultTrigger::kOpWindow);
    EXPECT_EQ(d.window_lo, 10u);
    EXPECT_EQ(d.window_hi, 20u);
}

TEST(FaultPlanTest, ParsesReadCorruptionActions)
{
    const FaultPlan plan = FaultPlan::parse(
        "storage.read:bitflip=0x04@nth=7,limit=1;"
        "storage.read:unreadable@p=0.05");
    ASSERT_EQ(plan.rules().size(), 2u);

    const FaultRule& flip = plan.rules()[0];
    EXPECT_EQ(flip.point, "storage.read");
    EXPECT_EQ(flip.action, FaultAction::kBitflip);
    EXPECT_EQ(flip.bitflip_mask, 0x04u);
    EXPECT_EQ(flip.trigger, FaultTrigger::kNthOp);
    EXPECT_EQ(flip.nth, 7u);
    EXPECT_EQ(flip.limit, 1u);

    const FaultRule& dead = plan.rules()[1];
    EXPECT_EQ(dead.point, "storage.read");
    EXPECT_EQ(dead.action, FaultAction::kUnreadable);
    EXPECT_EQ(dead.trigger, FaultTrigger::kProbability);
    EXPECT_DOUBLE_EQ(dead.probability, 0.05);

    // Decimal masks parse too.
    const FaultPlan dec = FaultPlan::parse("p:bitflip=128@nth=1");
    EXPECT_EQ(dec.rules()[0].bitflip_mask, 0x80u);
}

TEST(FaultPlanTest, RejectsMalformedSpecs)
{
    EXPECT_THROW(FaultPlan::parse("nocolon@nth=1"), FatalError);
    EXPECT_THROW(FaultPlan::parse("p:transient"), FatalError);
    EXPECT_THROW(FaultPlan::parse("p:explode@nth=1"), FatalError);
    // Crash states come from the device (storage/crash_capture.h).
    EXPECT_THROW(FaultPlan::parse("*:crash@nth=1"), FatalError);
    EXPECT_THROW(FaultPlan::parse("p:stall@nth=1"), FatalError);
    EXPECT_THROW(FaultPlan::parse("p:transient=3@nth=1"), FatalError);
    EXPECT_THROW(FaultPlan::parse("p:transient@sometimes=1"), FatalError);
    EXPECT_THROW(FaultPlan::parse("p:transient@window=9"), FatalError);
    EXPECT_THROW(FaultPlan::parse("p:transient@nth=1,retries=2"),
                 FatalError);
    // bitflip needs a mask that is a non-zero byte.
    EXPECT_THROW(FaultPlan::parse("p:bitflip@nth=1"), FatalError);
    EXPECT_THROW(FaultPlan::parse("p:bitflip=0@nth=1"), FatalError);
    EXPECT_THROW(FaultPlan::parse("p:bitflip=256@nth=1"), FatalError);
    EXPECT_THROW(FaultPlan::parse("p:bitflip=zz@nth=1"), FatalError);
    // unreadable takes no argument.
    EXPECT_THROW(FaultPlan::parse("p:unreadable=1@nth=1"), FatalError);
}

TEST(FaultInjectorTest, NthOpFiresExactlyOnce)
{
    FaultRule rule;
    rule.action = FaultAction::kTransient;
    rule.trigger = FaultTrigger::kNthOp;
    rule.nth = 3;
    FaultInjector injector(1, FaultPlan{}.add(rule));
    std::vector<bool> failed;
    for (int i = 0; i < 6; ++i) {
        failed.push_back(!injector.on_op("storage.write").ok());
    }
    EXPECT_EQ(failed, (std::vector<bool>{false, false, true, false,
                                         false, false}));
    EXPECT_EQ(injector.ops(), 6u);
    EXPECT_EQ(injector.injected(), 1u);
}

TEST(FaultInjectorTest, EveryNthRespectsLimit)
{
    FaultRule rule;
    rule.trigger = FaultTrigger::kEveryNthOp;
    rule.nth = 2;
    rule.limit = 2;
    FaultInjector injector(1, FaultPlan{}.add(rule));
    int fired = 0;
    for (int i = 0; i < 10; ++i) {
        if (!injector.on_op("storage.write").ok()) {
            ++fired;
        }
    }
    EXPECT_EQ(fired, 2);  // ops 2 and 4; the limit stops 6, 8, 10
}

TEST(FaultInjectorTest, WindowCoversInclusiveRange)
{
    FaultRule rule;
    rule.trigger = FaultTrigger::kOpWindow;
    rule.window_lo = 4;
    rule.window_hi = 6;
    FaultInjector injector(1, FaultPlan{}.add(rule));
    int fired = 0;
    for (int i = 1; i <= 8; ++i) {
        if (!injector.on_op("storage.write").ok()) {
            ++fired;
            EXPECT_GE(injector.ops(), 4u);
            EXPECT_LE(injector.ops(), 6u);
        }
    }
    EXPECT_EQ(fired, 3);
}

TEST(FaultInjectorTest, ProbabilityScheduleIsSeedDeterministic)
{
    FaultRule rule;
    rule.trigger = FaultTrigger::kProbability;
    rule.probability = 0.2;
    const auto firing_pattern = [&rule](std::uint64_t seed) {
        FaultInjector injector(seed, FaultPlan{}.add(rule));
        std::vector<bool> pattern;
        for (int i = 0; i < 200; ++i) {
            pattern.push_back(!injector.on_op("storage.write").ok());
        }
        return pattern;
    };
    const auto a = firing_pattern(7);
    EXPECT_EQ(a, firing_pattern(7));      // replayable
    EXPECT_NE(a, firing_pattern(8));      // seed actually matters
    const auto fired = static_cast<double>(
        std::count(a.begin(), a.end(), true));
    EXPECT_GT(fired, 200 * 0.05);
    EXPECT_LT(fired, 200 * 0.5);
}

TEST(FaultInjectorTest, PointFilterAndFirstMatchWins)
{
    FaultRule persist_only;
    persist_only.point = "storage.persist";
    persist_only.action = FaultAction::kPermanent;
    persist_only.trigger = FaultTrigger::kOpWindow;
    persist_only.window_lo = 1;
    persist_only.window_hi = 100;
    FaultRule any;
    any.point = "*";
    any.action = FaultAction::kTransient;
    any.trigger = FaultTrigger::kOpWindow;
    any.window_lo = 1;
    any.window_hi = 100;
    FaultInjector injector(
        1, FaultPlan{}.add(persist_only).add(any));
    // Writes skip the first rule and hit the wildcard transient.
    EXPECT_TRUE(injector.on_op("storage.write").is_transient());
    // Persists match the first (permanent) rule — first match wins.
    EXPECT_TRUE(injector.on_op("storage.persist").is_permanent());
}

TEST(FaultyStorageTest, InjectedErrorNeverTouchesInnerDevice)
{
    FaultRule rule;
    rule.point = kFaultStorageWrite;
    rule.action = FaultAction::kTransient;
    rule.trigger = FaultTrigger::kNthOp;
    rule.nth = 1;
    auto injector =
        std::make_shared<FaultInjector>(1, FaultPlan{}.add(rule));
    FaultyStorage device(std::make_unique<MemStorage>(64), injector);

    const std::uint8_t payload[4] = {0xAA, 0xBB, 0xCC, 0xDD};
    EXPECT_TRUE(device.write(0, payload, sizeof(payload)).is_transient());
    std::uint8_t check[4] = {};
    PCCHECK_MUST(device.read(0, check, sizeof(check)));
    EXPECT_EQ(check[0], 0);  // the failed write never happened

    // Second attempt (the rule fired already) goes through.
    PCCHECK_MUST(device.write(0, payload, sizeof(payload)));
    PCCHECK_MUST(device.read(0, check, sizeof(check)));
    EXPECT_EQ(check[0], 0xAA);
    PCCHECK_MUST(device.persist(0, sizeof(payload)));
    PCCHECK_MUST(device.fence());
}

TEST(BackoffTest, DelayIsPureFunctionOfSeedAndAttempt)
{
    const RetryPolicy policy;
    const Backoff a(policy, 99);
    const Backoff b(policy, 99);
    for (int attempt = 0; attempt < 8; ++attempt) {
        EXPECT_DOUBLE_EQ(a.delay(attempt), b.delay(attempt))
            << "attempt " << attempt;
    }
    // Order independence: evaluating out of order changes nothing.
    const double third = a.delay(3);
    (void)a.delay(0);
    (void)a.delay(7);
    EXPECT_DOUBLE_EQ(a.delay(3), third);
    // A different seed gives a different (jittered) timeline.
    const Backoff c(policy, 100);
    bool any_different = false;
    for (int attempt = 0; attempt < 8; ++attempt) {
        any_different = any_different ||
                        a.delay(attempt) != c.delay(attempt);
    }
    EXPECT_TRUE(any_different);
}

TEST(BackoffTest, DelaysGrowExponentiallyWithinBounds)
{
    RetryPolicy policy;
    policy.base_delay = 100e-6;
    policy.multiplier = 2.0;
    policy.max_delay = 500e-6;
    policy.jitter = 0.25;
    const Backoff backoff(policy, 7);
    for (int attempt = 0; attempt < 6; ++attempt) {
        const double nominal =
            std::min(policy.base_delay *
                         std::pow(policy.multiplier, attempt),
                     policy.max_delay);
        const double d = backoff.delay(attempt);
        EXPECT_GE(d, nominal * (1.0 - policy.jitter)) << attempt;
        EXPECT_LE(d, nominal * (1.0 + policy.jitter)) << attempt;
    }
}

TEST(RetryTest, TransientErrorsRetryUntilSuccess)
{
    RetryPolicy policy;
    policy.base_delay = 1e-6;  // keep the test fast
    policy.max_delay = 2e-6;
    const Backoff backoff(policy, 3);
    const std::uint64_t errors_before =
        MetricsRegistry::global()
            .counter("pccheck.storage.transient_errors")
            .value();
    const std::uint64_t retries_before =
        MetricsRegistry::global()
            .counter("pccheck.storage.retries")
            .value();
    int calls = 0;
    const StorageStatus status = retry_storage_op(
        [&calls] {
            ++calls;
            return calls < 3
                       ? StorageStatus::transient_error("test.flaky")
                       : StorageStatus::success();
        },
        backoff);
    EXPECT_TRUE(status.ok());
    EXPECT_EQ(calls, 3);
    EXPECT_EQ(MetricsRegistry::global()
                      .counter("pccheck.storage.transient_errors")
                      .value() -
                  errors_before,
              2u);
    EXPECT_EQ(MetricsRegistry::global()
                      .counter("pccheck.storage.retries")
                      .value() -
                  retries_before,
              2u);
}

TEST(RetryTest, PermanentErrorShortCircuits)
{
    RetryPolicy policy;
    policy.base_delay = 1e-6;
    const Backoff backoff(policy, 3);
    int calls = 0;
    const StorageStatus status = retry_storage_op(
        [&calls] {
            ++calls;
            return StorageStatus::permanent_error("test.dead");
        },
        backoff);
    EXPECT_TRUE(status.is_permanent());
    EXPECT_EQ(calls, 1);  // permanents are never retried
}

TEST(RetryTest, ExhaustionReturnsLastTransientError)
{
    RetryPolicy policy;
    policy.max_attempts = 3;
    policy.base_delay = 1e-6;
    policy.max_delay = 2e-6;
    const Backoff backoff(policy, 3);
    int calls = 0;
    const StorageStatus status = retry_storage_op(
        [&calls] {
            ++calls;
            return StorageStatus::transient_error("test.flaky");
        },
        backoff);
    EXPECT_TRUE(status.is_transient());
    EXPECT_EQ(calls, 3);
    EXPECT_STREQ(status.context(), "test.flaky");
}

}  // namespace
}  // namespace pccheck
