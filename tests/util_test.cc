/**
 * @file
 * Unit tests for the util module: bytes, clocks, rng, stats, csv,
 * throttle, crc32, check/fatal.
 */

#include <gtest/gtest.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "util/affinity.h"
#include "util/annotations.h"
#include "util/bytes.h"
#include "util/check.h"
#include "util/clock.h"
#include "util/crc32.h"
#include "util/csv.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/throttle.h"

namespace pccheck {
namespace {

using namespace literals;

TEST(BytesTest, LiteralsMatchConstants)
{
    EXPECT_EQ(1_kib, 1024u);
    EXPECT_EQ(1_mib, 1024u * 1024u);
    EXPECT_EQ(1_gib, 1024u * 1024u * 1024u);
    EXPECT_EQ(1_gb, 1000000000u);
}

TEST(BytesTest, AlignUpDown)
{
    EXPECT_EQ(align_up(0, 64), 0u);
    EXPECT_EQ(align_up(1, 64), 64u);
    EXPECT_EQ(align_up(64, 64), 64u);
    EXPECT_EQ(align_up(65, 64), 128u);
    EXPECT_EQ(align_down(63, 64), 0u);
    EXPECT_EQ(align_down(64, 64), 64u);
    EXPECT_EQ(align_down(127, 64), 64u);
}

TEST(BytesTest, FormatBytesPicksUnits)
{
    EXPECT_EQ(format_bytes(512), "512 B");
    EXPECT_EQ(format_bytes(1536), "1.50 KiB");
    EXPECT_EQ(format_bytes(3 * kGiB), "3.00 GiB");
}

TEST(CheckTest, FatalThrows)
{
    EXPECT_THROW(fatal("boom"), FatalError);
    try {
        fatal("specific message");
    } catch (const FatalError& e) {
        EXPECT_STREQ(e.what(), "specific message");
    }
}

TEST(ClockTest, MonotonicAdvances)
{
    const auto& clock = MonotonicClock::instance();
    const Seconds a = clock.now();
    clock.sleep_for(0.002);
    const Seconds b = clock.now();
    EXPECT_GE(b - a, 0.0015);
}

TEST(ClockTest, SleepForNegativeIsNoop)
{
    const auto& clock = MonotonicClock::instance();
    const Seconds a = clock.now();
    clock.sleep_for(-1.0);
    EXPECT_LT(clock.now() - a, 0.05);
}

Seconds
thread_cpu_seconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<Seconds>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

// MonotonicClock::sleep_for's contract (clock.h): never early, and a
// 1 ms sleep spins only its last 50 µs. A 300 µs spin costs about
// 250 µs of CPU per 1 ms sleep, which the CPU bound rejects.
TEST(ClockTest, SleepsNeverEarlyAndBarelySpin)
{
    const auto& clock = MonotonicClock::instance();
    for (Seconds d :
         {1e-6, 20e-6, 49e-6, 51e-6, 100e-6, 300e-6, 1e-3, 3e-3}) {
        for (int i = 0; i < 5; ++i) {
            const Seconds start = clock.now();
            clock.sleep_for(d);
            EXPECT_GE(clock.now() - start, d) << d << " s sleep ended early";
        }
    }

    constexpr int kSleeps = 200;
    constexpr Seconds kSleep = 1e-3;
    std::vector<Seconds> overshoot;
    overshoot.reserve(kSleeps);
    const Seconds cpu_start = thread_cpu_seconds();
    for (int i = 0; i < kSleeps; ++i) {
        const Seconds start = clock.now();
        clock.sleep_for(kSleep);
        overshoot.push_back(clock.now() - start - kSleep);
    }
    const Seconds cpu_per_sleep =
        (thread_cpu_seconds() - cpu_start) / kSleeps;
    EXPECT_LT(cpu_per_sleep, 125e-6);
    std::nth_element(overshoot.begin(), overshoot.begin() + kSleeps / 2,
                     overshoot.end());
    EXPECT_LT(overshoot[kSleeps / 2], 50e-6);
}

TEST(ClockTest, ScaledClockSpeedsUpTime)
{
    const auto& base = MonotonicClock::instance();
    ScaledClock scaled(base, 100.0);
    const Seconds a = scaled.now();
    base.sleep_for(0.002);
    const Seconds b = scaled.now();
    EXPECT_GE(b - a, 0.15);  // 2 ms real ≈ 200 ms scaled
}

TEST(ClockTest, ScaledClockShortensSleeps)
{
    const auto& base = MonotonicClock::instance();
    ScaledClock scaled(base, 1000.0);
    const Seconds a = base.now();
    scaled.sleep_for(1.0);  // one scaled second = 1 ms real
    EXPECT_LT(base.now() - a, 0.25);
}

TEST(StopwatchTest, MeasuresElapsed)
{
    Stopwatch watch;
    MonotonicClock::instance().sleep_for(0.002);
    EXPECT_GE(watch.elapsed(), 0.0015);
    watch.reset();
    EXPECT_LT(watch.elapsed(), 0.002);
}

TEST(RngTest, Deterministic)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a.next_u64(), b.next_u64());
    }
}

TEST(RngTest, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int equal = 0;
    for (int i = 0; i < 64; ++i) {
        equal += a.next_u64() == b.next_u64();
    }
    EXPECT_LT(equal, 2);
}

TEST(RngTest, NextBelowInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(rng.next_below(17), 17u);
    }
}

TEST(RngTest, DoubleInUnitInterval)
{
    Rng rng(9);
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.next_double();
        EXPECT_GE(x, 0.0);
        EXPECT_LT(x, 1.0);
    }
}

TEST(RngTest, ExponentialMeanConverges)
{
    Rng rng(11);
    RunningStat stat;
    for (int i = 0; i < 20000; ++i) {
        stat.add(rng.exponential(3.0));
    }
    EXPECT_NEAR(stat.mean(), 3.0, 0.15);
}

TEST(RngTest, NormalMeanAndStddevConverge)
{
    Rng rng(13);
    RunningStat stat;
    for (int i = 0; i < 20000; ++i) {
        stat.add(rng.normal(5.0, 2.0));
    }
    EXPECT_NEAR(stat.mean(), 5.0, 0.1);
    EXPECT_NEAR(stat.stddev(), 2.0, 0.1);
}

TEST(RngTest, ChanceRespectsProbability)
{
    Rng rng(17);
    int hits = 0;
    for (int i = 0; i < 10000; ++i) {
        hits += rng.chance(0.25);
    }
    EXPECT_NEAR(hits / 10000.0, 0.25, 0.03);
}

TEST(RunningStatTest, BasicMoments)
{
    RunningStat stat;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
        stat.add(x);
    }
    EXPECT_EQ(stat.count(), 8u);
    EXPECT_DOUBLE_EQ(stat.mean(), 5.0);
    EXPECT_NEAR(stat.stddev(), 2.138, 0.01);
    EXPECT_DOUBLE_EQ(stat.min(), 2.0);
    EXPECT_DOUBLE_EQ(stat.max(), 9.0);
    EXPECT_DOUBLE_EQ(stat.sum(), 40.0);
}

TEST(RunningStatTest, EmptyIsZero)
{
    RunningStat stat;
    EXPECT_EQ(stat.count(), 0u);
    EXPECT_EQ(stat.mean(), 0.0);
    EXPECT_EQ(stat.variance(), 0.0);
}

TEST(RunningStatTest, MergeMatchesCombined)
{
    Rng rng(23);
    RunningStat all;
    RunningStat left;
    RunningStat right;
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.normal(0, 1);
        all.add(x);
        (i % 2 ? left : right).add(x);
    }
    left.merge(right);
    EXPECT_EQ(left.count(), all.count());
    EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(left.min(), all.min());
    EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(HistogramTest, QuantilesOfUniformData)
{
    Histogram hist(0.0, 100.0, 100);
    for (int i = 0; i < 100; ++i) {
        hist.add(i + 0.5);
    }
    EXPECT_NEAR(hist.quantile(0.5), 50.0, 2.0);
    EXPECT_NEAR(hist.quantile(0.9), 90.0, 2.0);
}

TEST(HistogramTest, OverflowUnderflowCounted)
{
    Histogram hist(0.0, 10.0, 10);
    hist.add(-5.0);
    hist.add(50.0);
    hist.add(5.0);
    EXPECT_EQ(hist.count(), 3u);
}

TEST(CsvTest, EscapesSpecialCharacters)
{
    EXPECT_EQ(csv_escape("plain"), "plain");
    EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
    EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(CsvTest, WritesHeaderAndRows)
{
    // One file per process: concurrent util_test runs must not share it.
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("pccheck_csv_test." + std::to_string(::getpid()) + ".csv"))
            .string();
    {
        CsvWriter writer(path, {"a", "b"});
        writer.row({"1", "2"});
        writer.row_numeric("x", {3.5});
    }
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    EXPECT_EQ(line, "a,b");
    std::getline(in, line);
    EXPECT_EQ(line, "1,2");
    std::getline(in, line);
    EXPECT_EQ(line, "x,3.5");
    std::remove(path.c_str());
}

TEST(ThrottleTest, UnthrottledIsImmediate)
{
    BandwidthThrottle throttle(0);
    Stopwatch watch;
    throttle.acquire(100 * kMiB);
    EXPECT_LT(watch.elapsed(), 0.01);
    EXPECT_EQ(throttle.service_time(100 * kMiB), 0.0);
}

TEST(ThrottleTest, PacesToConfiguredBandwidth)
{
    BandwidthThrottle throttle(10e6);  // 10 MB/s
    EXPECT_DOUBLE_EQ(throttle.service_time(100'000), 0.01);
    Stopwatch watch;
    throttle.acquire(100'000);  // expect ~10 ms
    const Seconds elapsed = watch.elapsed();
    EXPECT_GE(elapsed, 0.008);
    EXPECT_LT(elapsed, 0.15);
}

TEST(ThrottleTest, ConcurrentCallersShareChannel)
{
    BandwidthThrottle throttle(10e6);
    Stopwatch watch;
    std::vector<std::thread> threads;
    for (int i = 0; i < 4; ++i) {
        threads.emplace_back([&throttle] { throttle.acquire(50'000); });
    }
    for (auto& thread : threads) {
        thread.join();
    }
    // 4 × 50 KB at 10 MB/s shared = at least ~20 ms total.
    EXPECT_GE(watch.elapsed(), 0.016);
}

/**
 * Virtual clock: sleep_for advances time by the request plus a fixed
 * overshoot (a sleep that always wakes late), and counts the sleeps.
 */
class VirtualClock final : public Clock {
  public:
    explicit VirtualClock(Seconds overshoot = 0) : overshoot_(overshoot) {}
    Seconds now() const override
    {
        MutexLock lock(mu_);
        return now_;
    }
    void sleep_for(Seconds duration) const override
    {
        MutexLock lock(mu_);
        now_ += duration + overshoot_;
        ++sleeps_;
    }
    int sleeps() const
    {
        MutexLock lock(mu_);
        return sleeps_;
    }

  private:
    const Seconds overshoot_;
    mutable Mutex mu_;
    mutable Seconds now_ PCCHECK_GUARDED_BY(mu_) = 0;
    mutable int sleeps_ PCCHECK_GUARDED_BY(mu_) = 0;
};

TEST(ThrottleTest, LoneSlicedFlowEndsWhereOneReservationWould)
{
    // Every sleep wakes 1 ms late. A flow alone on the channel starts
    // each later turn where its previous turn ended, not where the
    // late wake left it, so ten turns pay the overshoot once, exactly
    // like one whole reservation.
    for (const Bytes quantum : {Bytes{0}, Bytes{100}}) {
        VirtualClock clock(/*overshoot=*/1e-3);
        BandwidthThrottle throttle(1000.0, clock, quantum);
        const Seconds modeled = throttle.acquire(1000);
        EXPECT_NEAR(clock.now(), 1.001, 1e-9) << "quantum " << quantum;
        EXPECT_NEAR(modeled, 1.0, 1e-9) << "quantum " << quantum;
        EXPECT_EQ(clock.sleeps(), quantum == 0 ? 1 : 10);
    }
}

TEST(ThrottleTest, WeightedTurnsPaceOneFlowToTheBudget)
{
    VirtualClock clock;
    BandwidthThrottle throttle(1000.0, clock, /*quantum=*/100);
    // 1000 bytes at 1000 B/s: exactly one virtual second, paid in
    // quantum-sized turns, with no queueing past its own service time.
    EXPECT_NEAR(throttle.acquire(1000), 1.0, 1e-9);
    EXPECT_NEAR(clock.now(), 1.0, 1e-9);
    EXPECT_EQ(clock.sleeps(), 10);
    // Weight 2 doubles the turn: half as many turns, same pacing.
    EXPECT_NEAR(throttle.acquire(1000, 2.0), 1.0, 1e-9);
    EXPECT_NEAR(clock.now(), 2.0, 1e-9);
    EXPECT_EQ(clock.sleeps(), 15);
}

TEST(ThrottleTest, HugeWeightTakesOneTurn)
{
    // quantum x weight is far past what a Bytes holds: the turn is
    // clamped to the bytes left, so the flow is one reservation.
    VirtualClock clock;
    BandwidthThrottle throttle(1000.0, clock, /*quantum=*/100);
    EXPECT_NEAR(throttle.acquire(1000, 1e30), 1.0, 1e-9);
    EXPECT_EQ(clock.sleeps(), 1);
}

TEST(ThrottleTest, CompetingFlowsShareTheBudget)
{
    // A virtual clock cannot show queueing here: every sleep snaps
    // time forward to the cursor, so two flows only interleave if a
    // real-time race goes one way. On the real clock the background
    // flow sleeps ~1 ms between turns, so the foreground flow's turns
    // land between them and wait behind the shared cursor.
    const Clock& clock = MonotonicClock::instance();
    BandwidthThrottle throttle(1.0e6, clock, /*quantum=*/1000);
    std::thread other([&throttle] { throttle.acquire(300000); });  // ~300 ms
    clock.sleep_for(0.03);  // background flow is mid-flight
    Stopwatch watch(clock);
    const Seconds modeled = throttle.acquire(20000);  // 20 ms alone
    const Seconds elapsed = watch.elapsed();
    other.join();
    // Interleaved with the background turns, the foreground flow
    // queued far past its own 20 ms of service time, and it was
    // blocked for all of it. Wall time has no tighter floor: when a
    // scheduler stall leaves the channel idle, the lone-flow rule
    // lets the next turns start where the stalled ones would have.
    EXPECT_GT(modeled - 0.020, 2e-3);
    EXPECT_GE(elapsed, modeled);
    // Shared 1:1 it takes ~40 ms. A FIFO channel would have queued it
    // behind the ~270 ms left of the background reservation.
    EXPECT_LT(modeled, 0.15);
}

TEST(Crc32Test, KnownVector)
{
    // CRC-32C("123456789") = 0xE3069283.
    const char* data = "123456789";
    EXPECT_EQ(crc32c(data, 9), 0xE3069283u);
}

TEST(Crc32Test, Rfc3720Vectors)
{
    // RFC 3720 §B.4 iSCSI test vectors.
    std::uint8_t data[32];
    std::memset(data, 0x00, sizeof(data));
    EXPECT_EQ(crc32c(data, sizeof(data)), 0x8A9136AAu);
    std::memset(data, 0xFF, sizeof(data));
    EXPECT_EQ(crc32c(data, sizeof(data)), 0x62A8AB43u);
    for (int i = 0; i < 32; ++i) {
        data[i] = static_cast<std::uint8_t>(i);
    }
    EXPECT_EQ(crc32c(data, sizeof(data)), 0x46DD794Eu);
    for (int i = 0; i < 32; ++i) {
        data[i] = static_cast<std::uint8_t>(31 - i);
    }
    EXPECT_EQ(crc32c(data, sizeof(data)), 0x113FDB5Cu);
    EXPECT_EQ(crc32c_portable(data, sizeof(data)), 0x113FDB5Cu);
}

TEST(Crc32Test, MatchesPortableReference)
{
    // Every length up to 1100 at every start offset 0-15 covers the
    // 8-byte loop, its byte tail and unaligned word loads.
    constexpr std::size_t kMaxLen = 1100;
    constexpr std::size_t kOffsets = 16;
    std::vector<std::uint8_t> data(kMaxLen + kOffsets);
    Rng rng(7);
    for (auto& byte : data) {
        byte = static_cast<std::uint8_t>(rng.next_u64());
    }
    for (std::size_t offset = 0; offset < kOffsets; ++offset) {
        for (std::size_t len = 0; len <= kMaxLen; ++len) {
            const std::uint8_t* p = data.data() + offset;
            const auto seed = static_cast<std::uint32_t>(rng.next_u64());
            const std::uint32_t want = crc32c_portable(p, len, seed);
            ASSERT_EQ(crc32c(p, len, seed), want)
                << "offset " << offset << " len " << len;
            const std::size_t split = len == 0 ? 0 : rng.next_u64() % len;
            ASSERT_EQ(crc32c(p + split, len - split, crc32c(p, split, seed)),
                      want)
                << "offset " << offset << " len " << len << " split "
                << split;
        }
    }
}

TEST(Crc32Test, IncrementalMatchesOneShot)
{
    std::vector<std::uint8_t> data(10000);
    Rng rng(31);
    for (auto& byte : data) {
        byte = static_cast<std::uint8_t>(rng.next_u64());
    }
    const std::uint32_t whole = crc32c(data.data(), data.size());
    std::uint32_t inc = crc32c(data.data(), 1234);
    inc = crc32c(data.data() + 1234, data.size() - 1234, inc);
    EXPECT_EQ(whole, inc);
}

TEST(Crc32Test, DetectsBitFlip)
{
    std::vector<std::uint8_t> data(4096, 0xAB);
    const std::uint32_t before = crc32c(data.data(), data.size());
    data[2048] ^= 0x01;
    EXPECT_NE(before, crc32c(data.data(), data.size()));
}

TEST(AffinityTest, ReportsAtLeastOneCpu)
{
    EXPECT_GE(available_cpus(), 1);
}

TEST(AffinityTest, PinAndUnpinSucceed)
{
    // Pinning to CPU 0 must always be possible; index wraps modulo
    // the available CPUs, so large indices also succeed.
    EXPECT_TRUE(pin_current_thread(0));
    EXPECT_TRUE(pin_current_thread(1000));
    EXPECT_TRUE(unpin_current_thread());
}

TEST(AffinityTest, NegativeCpuRejected)
{
    EXPECT_FALSE(pin_current_thread(-1));
    unpin_current_thread();
}

}  // namespace
}  // namespace pccheck
