/**
 * @file
 * Tests for the storage substrate: DRAM/file/crash-sim devices,
 * persistence semantics, and the bandwidth-throttling decorator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "storage/crash_capture.h"
#include "storage/crash_sim.h"
#include "storage/file_storage.h"
#include "storage/mem_storage.h"
#include "storage/region_storage.h"
#include "storage/throttled_storage.h"
#include "util/clock.h"
#include "util/rng.h"
#include "util/check.h"

namespace pccheck {
namespace {

std::vector<std::uint8_t>
pattern(Bytes len, std::uint8_t seed)
{
    std::vector<std::uint8_t> data(len);
    for (Bytes i = 0; i < len; ++i) {
        data[i] = static_cast<std::uint8_t>(seed + i);
    }
    return data;
}

TEST(MemStorageTest, WriteReadRoundTrip)
{
    MemStorage mem(4096);
    const auto data = pattern(100, 7);
    PCCHECK_MUST(mem.write(123, data.data(), data.size()));
    std::vector<std::uint8_t> out(100);
    PCCHECK_MUST(mem.read(123, out.data(), out.size()));
    EXPECT_EQ(out, data);
}

TEST(MemStorageTest, KindIsDram)
{
    MemStorage mem(64);
    EXPECT_EQ(mem.kind(), StorageKind::kDram);
    EXPECT_FALSE(needs_fence(mem.kind()));
}

TEST(CrashSimTest, PersistedDataSurvivesCrash)
{
    CrashSimStorage dev(8192, StorageKind::kPmemNt, /*seed=*/1,
                        /*eviction_probability=*/0.0);
    const auto data = pattern(256, 1);
    PCCHECK_MUST(dev.write(0, data.data(), data.size()));
    PCCHECK_MUST(dev.persist(0, data.size()));
    PCCHECK_MUST(dev.fence());
    dev.crash();
    std::vector<std::uint8_t> out(256);
    PCCHECK_MUST(dev.read(0, out.data(), out.size()));
    EXPECT_EQ(out, data);
}

TEST(CrashSimTest, UnpersistedDataLostWithZeroEviction)
{
    CrashSimStorage dev(8192, StorageKind::kPmemNt, 1, 0.0);
    const auto data = pattern(256, 2);
    PCCHECK_MUST(dev.write(0, data.data(), data.size()));
    // No persist. With eviction probability 0 nothing reaches media.
    dev.crash();
    std::vector<std::uint8_t> out(256, 0xFF);
    PCCHECK_MUST(dev.read(0, out.data(), out.size()));
    EXPECT_EQ(out, std::vector<std::uint8_t>(256, 0));
}

TEST(CrashSimTest, PmemRequiresFenceForDurability)
{
    CrashSimStorage dev(8192, StorageKind::kPmemNt, 1, 0.0);
    const auto data = pattern(64, 3);
    PCCHECK_MUST(dev.write(0, data.data(), data.size()));
    PCCHECK_MUST(dev.persist(0, data.size()));  // write-back initiated, NOT fenced
    EXPECT_EQ(dev.pending_lines(), 1u);
    dev.crash();
    std::vector<std::uint8_t> out(64, 0xFF);
    PCCHECK_MUST(dev.read(0, out.data(), out.size()));
    EXPECT_EQ(out, std::vector<std::uint8_t>(64, 0));  // lost
}

TEST(CrashSimTest, SsdMsyncIsSynchronouslyDurable)
{
    CrashSimStorage dev(16384, StorageKind::kSsdMsync, 1, 0.0);
    const auto data = pattern(4096, 4);
    PCCHECK_MUST(dev.write(0, data.data(), data.size()));
    PCCHECK_MUST(dev.persist(0, data.size()));  // msync — durable without fence
    dev.crash();
    std::vector<std::uint8_t> out(4096);
    PCCHECK_MUST(dev.read(0, out.data(), out.size()));
    EXPECT_EQ(out, data);
}

TEST(CrashSimTest, RewriteInvalidatesPendingWriteback)
{
    CrashSimStorage dev(8192, StorageKind::kPmemNt, 1, 0.0);
    const auto first = pattern(64, 5);
    PCCHECK_MUST(dev.write(0, first.data(), first.size()));
    PCCHECK_MUST(dev.persist(0, 64));
    // Overwrite before the fence: the old write-back must not count.
    const auto second = pattern(64, 6);
    PCCHECK_MUST(dev.write(0, second.data(), second.size()));
    PCCHECK_MUST(dev.fence());  // nothing pending for this line anymore
    dev.crash();
    std::vector<std::uint8_t> out(64, 0xFF);
    PCCHECK_MUST(dev.read(0, out.data(), out.size()));
    EXPECT_EQ(out, std::vector<std::uint8_t>(64, 0));
}

TEST(CrashSimTest, EvictionMayPersistUnflushedLines)
{
    // With eviction probability 1 every dirty line reaches media even
    // without persist — modeling arbitrary cache eviction order.
    CrashSimStorage dev(8192, StorageKind::kPmemNt, 1, 1.0);
    const auto data = pattern(256, 7);
    PCCHECK_MUST(dev.write(0, data.data(), data.size()));
    dev.crash();
    std::vector<std::uint8_t> out(256);
    PCCHECK_MUST(dev.read(0, out.data(), out.size()));
    EXPECT_EQ(out, data);
}

TEST(CrashSimTest, PartialEvictionTearsData)
{
    // With probability 0.5 some lines of a multi-line write survive
    // and others do not — the torn-state hazard of §2.3.
    CrashSimStorage dev(64 * 1024, StorageKind::kPmemNt, 12345, 0.5);
    const auto data = pattern(32 * 1024, 8);
    PCCHECK_MUST(dev.write(0, data.data(), data.size()));
    dev.crash();
    std::vector<std::uint8_t> out(32 * 1024);
    PCCHECK_MUST(dev.read(0, out.data(), out.size()));
    bool any_survived = false;
    bool any_lost = false;
    for (Bytes line = 0; line < 32 * 1024 / 64; ++line) {
        const bool survived =
            std::memcmp(out.data() + line * 64, data.data() + line * 64,
                        64) == 0;
        any_survived |= survived;
        any_lost |= !survived;
    }
    EXPECT_TRUE(any_survived);
    EXPECT_TRUE(any_lost);
}

TEST(CrashSimTest, DirtyTrackingCounts)
{
    CrashSimStorage dev(8192, StorageKind::kPmemNt, 1, 0.0);
    EXPECT_EQ(dev.dirty_lines(), 0u);
    std::uint8_t byte = 1;
    PCCHECK_MUST(dev.write(0, &byte, 1));
    PCCHECK_MUST(dev.write(64, &byte, 1));
    EXPECT_EQ(dev.dirty_lines(), 2u);
    PCCHECK_MUST(dev.persist(0, 1));
    EXPECT_EQ(dev.dirty_lines(), 1u);
    EXPECT_EQ(dev.pending_lines(), 1u);
    PCCHECK_MUST(dev.fence());
    EXPECT_EQ(dev.pending_lines(), 0u);
}

TEST(CrashCaptureTest, WideMaskKeepsExactlyItsLines)
{
    // 100 unflushed 64-byte lines: a mask names lines past bit 64.
    constexpr std::size_t kLines = 100;
    CrashSimStorage dev(kLines * 64, StorageKind::kPmemNt);
    const auto fresh = pattern(kLines * 64, 1);
    PCCHECK_MUST(dev.write(0, fresh.data(), fresh.size()));
    const CrashSnapshot snap = dev.snapshot();
    ASSERT_EQ(snap.lines.size(), kLines);
    const std::vector<std::size_t> kept = {0, 63, 64, 65, 99};
    LineMask mask;
    for (std::size_t line : kept) {
        mask.keep(line);
    }
    EXPECT_EQ(crash_clause(snap.op_index, mask),
              "crash@1:0x8000000038000000000000001");
    const std::vector<std::uint8_t> image = materialize(snap, mask);
    for (std::size_t line = 0; line < kLines; ++line) {
        const bool keep =
            std::find(kept.begin(), kept.end(), line) != kept.end();
        for (Bytes b = line * 64; b < (line + 1) * 64; ++b) {
            ASSERT_EQ(image[b], keep ? fresh[b] : 0) << "line " << line;
        }
    }
}

TEST(CrashCaptureTest, ConcurrentCommitsNeverOutrunTheirData)
{
    // Each thread writes, persists and fences a data line, then a
    // commit line naming that round. Every recorded state, under every
    // mask, must show each commit line no newer than its data line:
    // a state copied in pieces while other threads run breaks this.
    constexpr int kThreads = 4;
    constexpr int kRounds = 25;
    constexpr Bytes kLine = 64;
    CrashSimStorage dev(2 * kThreads * kLine, StorageKind::kPmemNt);
    CrashTrace trace;
    {
        SnapshotRecorder recorder(dev, &trace);
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([&dev, t] {
                const Bytes data = 2 * t * kLine;
                const Bytes commit = data + kLine;
                for (int r = 1; r <= kRounds; ++r) {
                    const std::vector<std::uint8_t> line(
                        kLine, static_cast<std::uint8_t>(r));
                    for (const Bytes off : {data, commit}) {
                        PCCHECK_MUST(dev.write(off, line.data(), kLine));
                        PCCHECK_MUST(dev.persist(off, kLine));
                        PCCHECK_MUST(dev.fence());
                    }
                }
            });
        }
        for (std::thread& thread : threads) {
            thread.join();
        }
    }
    ASSERT_EQ(trace.size(),
              static_cast<std::size_t>(kThreads * kRounds * 6));
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const CrashSnapshot& snap = trace[i];
        ASSERT_EQ(snap.op_index, i);  // each op once, in lock order
        // At most one unflushed line per thread: try every mask.
        ASSERT_LE(snap.lines.size(), static_cast<std::size_t>(kThreads));
        for (std::uint64_t m = 0; m < (1ULL << snap.lines.size()); ++m) {
            const std::vector<std::uint8_t> image = materialize(snap, m);
            for (int t = 0; t < kThreads; ++t) {
                const Bytes data = 2 * t * kLine;
                ASSERT_LE(image[data + kLine], image[data])
                    << "thread " << t << " " << crash_clause(i, m);
            }
        }
    }
}

TEST(CrashCaptureTest, SamplerKeepsEachStateAtOrAfterItsMarkEquallyOften)
{
    // Three ops before the mark, nine after: ten states to draw from.
    constexpr int kDraws = 4000;
    std::vector<int> kept(10, 0);
    const std::uint8_t byte = 1;
    for (int seed = 0; seed < kDraws; ++seed) {
        CrashSimStorage dev(4096, StorageKind::kPmemNt);
        for (int op = 0; op < 3; ++op) {
            PCCHECK_MUST(dev.write(0, &byte, 1));
        }
        CrashPointSampler sampler(dev, static_cast<std::uint64_t>(seed));
        for (int op = 0; op < 9; ++op) {
            PCCHECK_MUST(dev.write(64 * (op + 1), &byte, 1));
        }
        const CrashPoint point = sampler.take();
        ASSERT_EQ(point.mark, 3u);
        ASSERT_EQ(point.states, 10u);
        ASSERT_GE(point.state.op_index, point.mark);
        ASSERT_LT(point.state.op_index, point.mark + point.states);
        // The kept state is the one its op left.
        ASSERT_EQ(point.state.lines.size(), point.state.op_index - 2);
        ++kept[point.state.op_index - point.mark];
    }
    for (int count : kept) {
        EXPECT_GT(count, kDraws / 10 * 3 / 4);
        EXPECT_LT(count, kDraws / 10 * 5 / 4);
    }
}

TEST(FileStorageTest, PersistsAcrossReopen)
{
    const std::string path = "/tmp/pccheck_file_storage_test.bin";
    const auto data = pattern(8192, 9);
    {
        FileStorage file(path, 16384);
        PCCHECK_MUST(file.write(100, data.data(), data.size()));
        PCCHECK_MUST(file.persist(100, data.size()));
        EXPECT_EQ(file.kind(), StorageKind::kSsdMsync);
    }
    {
        FileStorage file(path, 16384);
        std::vector<std::uint8_t> out(8192);
        PCCHECK_MUST(file.read(100, out.data(), out.size()));
        EXPECT_EQ(out, data);
    }
    std::remove(path.c_str());
}

// Regression: a device image truncated below what a reader expects
// (e.g. a checkpoint arena cut short mid-copy) must surface as a
// permanent StorageStatus from read(), not a process abort. Recovery
// relies on this to classify the candidate unreadable and fall back.
TEST(FileStorageTest, ReadPastTruncatedImageIsPermanentError)
{
    const std::string path = "/tmp/pccheck_file_storage_trunc_test.bin";
    const auto data = pattern(4096, 13);
    {
        FileStorage file(path, 16384);
        PCCHECK_MUST(file.write(0, data.data(), data.size()));
        PCCHECK_MUST(file.persist(0, data.size()));
    }
    {
        // Reopen the same image mapped at a quarter of the original
        // size, as if the tail never reached the disk.
        FileStorage file(path, 4096);
        std::vector<std::uint8_t> out(4096);
        PCCHECK_MUST(file.read(0, out.data(), out.size()));
        EXPECT_EQ(out, data);

        // Straddling the mapped size and landing entirely past it are
        // both permanent faults: retrying cannot make the bytes exist.
        StorageStatus straddle = file.read(2048, out.data(), out.size());
        EXPECT_FALSE(straddle.ok());
        EXPECT_TRUE(straddle.is_permanent());
        StorageStatus beyond = file.read(8192, out.data(), 64);
        EXPECT_FALSE(beyond.ok());
        EXPECT_TRUE(beyond.is_permanent());

        // The device stays usable after a rejected read.
        PCCHECK_MUST(file.read(0, out.data(), 64));
    }
    std::remove(path.c_str());
}

// A range whose end wraps past 2^64 is out of range, not a short one:
// every leaf device must refuse the read instead of copying from just
// before its buffer.
TEST(StorageRangeTest, WrappingReadFailsOnEveryLeafDevice)
{
    const std::string path = "/tmp/pccheck_file_storage_wrap_test.bin";
    {
        MemStorage mem(4096);
        CrashSimStorage sim(4096, StorageKind::kPmemClwb);
        FileStorage file(path, 4096);
        RegionStorage region(mem, 0, 4096);
        StorageDevice* const devices[] = {&mem, &sim, &file, &region};
        for (StorageDevice* device : devices) {
            std::uint8_t out[16] = {};
            const StorageStatus status =
                device->read(UINT64_MAX - 8, out, sizeof(out));
            EXPECT_FALSE(status.ok());
            EXPECT_TRUE(status.is_permanent());
        }
    }
    std::remove(path.c_str());
    EXPECT_TRUE(range_fits(0, 4096, 4096));
    EXPECT_TRUE(range_fits(4096, 0, 4096));
    EXPECT_FALSE(range_fits(4097, 0, 4096));
    EXPECT_FALSE(range_fits(UINT64_MAX - 8, 16, 4096));
    EXPECT_FALSE(range_fits(8, UINT64_MAX - 4, 4096));
}

TEST(ThrottledStorageTest, ForwardsDataIntact)
{
    ThrottledStorage dev(std::make_unique<MemStorage>(4096), 0, 0, 0);
    const auto data = pattern(512, 10);
    PCCHECK_MUST(dev.write(64, data.data(), data.size()));
    std::vector<std::uint8_t> out(512);
    PCCHECK_MUST(dev.read(64, out.data(), out.size()));
    EXPECT_EQ(out, data);
    EXPECT_EQ(dev.size(), 4096u);
}

TEST(ThrottledStorageTest, WriteChannelPaced)
{
    ThrottledStorage dev(std::make_unique<MemStorage>(1 << 20),
                         /*write=*/10e6, /*persist=*/0, /*read=*/0);
    const auto data = pattern(100'000, 11);
    Stopwatch watch;
    PCCHECK_MUST(dev.write(0, data.data(), data.size()));  // ~10 ms at 10 MB/s
    EXPECT_GE(watch.elapsed(), 0.008);
}

TEST(ThrottledStorageTest, PersistChannelPaced)
{
    ThrottledStorage dev(std::make_unique<MemStorage>(1 << 20), 0,
                         /*persist=*/10e6, 0);
    const auto data = pattern(100'000, 12);
    PCCHECK_MUST(dev.write(0, data.data(), data.size()));
    Stopwatch watch;
    PCCHECK_MUST(dev.persist(0, data.size()));
    EXPECT_GE(watch.elapsed(), 0.008);
}

TEST(ThrottledStorageTest, PaperProfilesAreSane)
{
    const auto ssd = paper_bandwidth(StorageKind::kSsdMsync);
    EXPECT_GT(ssd.persist_bytes_per_sec, 0);
    const auto nt = paper_bandwidth(StorageKind::kPmemNt);
    const auto clwb = paper_bandwidth(StorageKind::kPmemClwb);
    // §3.3: nt-store (4.01 GB/s) beats clwb (2.46 GB/s).
    EXPECT_GT(nt.write_bytes_per_sec, clwb.write_bytes_per_sec);
}

}  // namespace
}  // namespace pccheck
