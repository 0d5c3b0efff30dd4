/**
 * @file
 * Incremental (delta-log) tier tests — docs/DELTA_LOG.md:
 *  - DirtyTracker chunk accounting (collect / restore / adopt);
 *  - DeltaLog append + replay round trips and the stop-at-first-torn
 *    rules: torn payload mid-record, dead header between records,
 *    stale-epoch frames, a reopened device's stale chain, and GC
 *    racing an in-flight replay;
 *  - recover_to_buffer over a SlotStore device: empty log, chain replay,
 *    and fallback to an older full checkpoint whose chain is gone;
 *  - orchestrator-level request_delta: no-durable-base and log-full
 *    skips, and a full train → crash → recover → resume cycle.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "core/orchestrator.h"
#include "core/recovery.h"
#include "core/slot_store.h"
#include "delta/delta_log.h"
#include "delta/dirty_tracker.h"
#include "storage/crash_sim.h"
#include "storage/mem_storage.h"
#include "trainsim/models.h"
#include "trainsim/training_loop.h"
#include "util/check.h"
#include "util/crc32.h"

namespace pccheck {
namespace {

// ---------------------------------------------------------------- DirtyTracker

TEST(DirtyTracker, MarksCollectsAndClears)
{
    DirtyTracker tracker(/*total=*/1024, /*chunk=*/256);
    EXPECT_EQ(tracker.chunk_count(), 4u);
    tracker.mark(0, 1);       // chunk 0
    tracker.mark(255, 2);     // chunks 0 and 1
    tracker.mark(768, 256);   // chunk 3
    EXPECT_EQ(tracker.collect_frame(),
              (std::vector<std::uint32_t>{0, 1, 3}));
    // The collect cleared the since-frame set.
    EXPECT_TRUE(tracker.collect_frame().empty());
}

TEST(DirtyTracker, RestoreUndoesAFailedCollect)
{
    DirtyTracker tracker(1024, 256);
    tracker.mark(512, 1);
    auto frame = tracker.collect_frame();
    EXPECT_EQ(frame, (std::vector<std::uint32_t>{2}));
    // Append failed: hand the chunks back; the next frame re-carries
    // them merged with anything dirtied meanwhile.
    tracker.mark(0, 1);
    tracker.restore(frame);
    EXPECT_EQ(tracker.collect_frame(),
              (std::vector<std::uint32_t>{0, 2}));
}

TEST(DirtyTracker, AdoptingUnknownBaseReturnsEverything)
{
    DirtyTracker tracker(1024, 256);
    tracker.mark(0, 1);
    // Counter 9 was never a candidate: the tracker cannot know what
    // changed since it, so the first frame must carry the whole state.
    const auto all = tracker.adopt_base(9);
    EXPECT_EQ(all.size(), tracker.chunk_count());
}

TEST(DirtyTracker, AdoptedCandidateCarriesSinceCheckpointSet)
{
    DirtyTracker tracker(1024, 256);
    tracker.begin_candidate(5);  // snapshot of counter 5 taken here
    tracker.mark(256, 1);        // dirtied while 5 persists
    tracker.collect_frame();     // frame consumed the since-frame set
    const auto since = tracker.adopt_base(5);
    // Everything dirtied since the snapshot — including chunks already
    // carried by frames of the previous epoch — seeds the new epoch.
    EXPECT_EQ(since, (std::vector<std::uint32_t>{1}));
}

// -------------------------------------------------------------------- DeltaLog

constexpr Bytes kRegionOff = 128;
constexpr Bytes kRegionBytes = 4096;
constexpr Bytes kImageBytes = 1024;

struct LogFixture {
    MemStorage device{kRegionOff + kRegionBytes};
    DeltaRegion region{kRegionOff, kRegionBytes};
    DeltaLog log{device, region};
};

/** One-chunk frame payload, deterministic in (seq, len). */
std::vector<std::uint8_t> chunk_fill(std::uint64_t seq, Bytes len)
{
    std::vector<std::uint8_t> data(len);
    for (Bytes j = 0; j < len; ++j) {
        data[j] = static_cast<std::uint8_t>(seq * 7 + j);
    }
    return data;
}

TEST(DeltaLog, RoundTripAppendReplay)
{
    LogFixture f;
    f.log.reset_epoch(/*base_counter=*/3, /*base_iteration=*/30);
    const auto d1 = chunk_fill(1, 100);
    const auto d2 = chunk_fill(2, 64);
    ASSERT_TRUE(f.log.append(31, {{0, 100}}, d1.data()).ok());
    ASSERT_TRUE(f.log.append(32, {{512, 64}}, d2.data()).ok());
    EXPECT_EQ(f.log.last_sealed_seq(), 2u);
    EXPECT_EQ(f.log.last_iteration(), 32u);

    std::vector<std::uint8_t> image(kImageBytes, 0xEE);
    const DeltaReplayStats stats = delta_replay(
        f.device, f.region, 3, 30, image.data(), image.size());
    EXPECT_EQ(stats.frames_applied, 2u);
    EXPECT_EQ(stats.iteration, 32u);
    EXPECT_EQ(stats.bytes_applied, 164u);
    EXPECT_TRUE(std::equal(d1.begin(), d1.end(), image.begin()));
    EXPECT_TRUE(std::equal(d2.begin(), d2.end(), image.begin() + 512));
    EXPECT_EQ(image[200], 0xEE);  // untouched bytes stay
}

TEST(DeltaLog, EmptyRegionReplayIsANoop)
{
    MemStorage device(256);
    std::vector<std::uint8_t> image(kImageBytes, 0xAA);
    const DeltaReplayStats stats = delta_replay(
        device, DeltaRegion{0, 0}, 1, 10, image.data(), image.size());
    EXPECT_EQ(stats.frames_applied, 0u);
    EXPECT_EQ(stats.iteration, 10u);
}

TEST(DeltaLog, EmptyFramesAdvanceIterationOnly)
{
    LogFixture f;
    f.log.reset_epoch(1, 10);
    ASSERT_TRUE(f.log.append(11, {}, nullptr).ok());
    ASSERT_TRUE(f.log.append(12, {}, nullptr).ok());
    std::vector<std::uint8_t> image(kImageBytes, 0);
    const DeltaReplayStats stats = delta_replay(
        f.device, f.region, 1, 10, image.data(), image.size());
    EXPECT_EQ(stats.frames_applied, 2u);
    EXPECT_EQ(stats.iteration, 12u);
    EXPECT_EQ(stats.bytes_applied, 0u);
}

TEST(DeltaLog, TornPayloadMidRecordStopsAtPrefix)
{
    LogFixture f;
    f.log.reset_epoch(1, 10);
    const auto d1 = chunk_fill(1, 100);
    const auto d2 = chunk_fill(2, 100);
    ASSERT_TRUE(f.log.append(11, {{0, 100}}, d1.data()).ok());
    const Bytes frame2 = DeltaLog::frame_bytes(1, 100);
    ASSERT_TRUE(f.log.append(12, {{100, 100}}, d2.data()).ok());
    // Flip one payload byte of the SEALED second frame: a torn write
    // inside a record. Its payload CRC must reject the whole frame.
    std::uint8_t byte = 0;
    const Bytes victim =
        kRegionOff + frame2 + DeltaLog::kFrameAlign + 16 + 50;
    PCCHECK_MUST(f.device.read(victim, &byte, 1));
    byte ^= 0xFF;
    ASSERT_TRUE(f.device.write(victim, &byte, 1).ok());

    std::vector<std::uint8_t> image(kImageBytes, 0);
    const DeltaReplayStats stats = delta_replay(
        f.device, f.region, 1, 10, image.data(), image.size());
    EXPECT_EQ(stats.frames_applied, 1u);  // frame 1 intact, 2 rejected
    EXPECT_EQ(stats.iteration, 11u);
    EXPECT_TRUE(std::equal(d1.begin(), d1.end(), image.begin()));
    EXPECT_EQ(image[150], 0);  // none of frame 2 leaked through
}

TEST(DeltaLog, DeadHeaderBetweenRecordsStopsCleanly)
{
    LogFixture f;
    f.log.reset_epoch(1, 10);
    const auto d1 = chunk_fill(1, 100);
    const auto d2 = chunk_fill(2, 100);
    ASSERT_TRUE(f.log.append(11, {{0, 100}}, d1.data()).ok());
    const Bytes frame2 = DeltaLog::frame_bytes(1, 100);
    ASSERT_TRUE(f.log.append(12, {{100, 100}}, d2.data()).ok());
    // Kill frame 2's header outright — a crash between records.
    const std::uint8_t dead[DeltaLog::kFrameAlign] = {};
    ASSERT_TRUE(
        f.device.write(kRegionOff + frame2, dead, sizeof(dead)).ok());

    std::vector<std::uint8_t> image(kImageBytes, 0);
    const DeltaReplayStats stats = delta_replay(
        f.device, f.region, 1, 10, image.data(), image.size());
    EXPECT_EQ(stats.frames_applied, 1u);
    EXPECT_EQ(stats.iteration, 11u);
}

TEST(DeltaLog, StaleEpochFramesDieAfterReset)
{
    LogFixture f;
    f.log.reset_epoch(1, 10);
    const auto d1 = chunk_fill(1, 100);
    ASSERT_TRUE(f.log.append(11, {{0, 100}}, d1.data()).ok());
    ASSERT_TRUE(f.log.append(12, {{0, 100}}, d1.data()).ok());
    // GC: epoch 2 starts; no media write happened, yet replay against
    // base 2 must apply nothing (base_counter mismatch at seq 1).
    f.log.reset_epoch(2, 20);
    std::vector<std::uint8_t> image(kImageBytes, 0);
    DeltaReplayStats stats = delta_replay(f.device, f.region, 2, 20,
                                          image.data(), image.size());
    EXPECT_EQ(stats.frames_applied, 0u);
    // And after one epoch-2 append, replay against base 1 dies too.
    ASSERT_TRUE(f.log.append(21, {{0, 100}}, d1.data()).ok());
    stats = delta_replay(f.device, f.region, 1, 10, image.data(),
                         image.size());
    EXPECT_EQ(stats.frames_applied, 0u);
}

TEST(DeltaLog, ReopenedDeviceStaleChainIsTruncated)
{
    LogFixture f;
    // Previous process: three frames on base 5, all durable.
    f.log.reset_epoch(5, 50);
    const auto stale = chunk_fill(9, 100);
    ASSERT_TRUE(f.log.append(51, {{0, 100}}, stale.data()).ok());
    ASSERT_TRUE(f.log.append(52, {{100, 100}}, stale.data()).ok());
    ASSERT_TRUE(f.log.append(53, {{200, 100}}, stale.data()).ok());

    // Crash + restart: recovery resumed from full checkpoint 5 at
    // iteration 50 (the frames above were NOT recovered — e.g. the
    // operator restored the base snapshot), so the new process appends
    // a DIVERGENT frame 1 on the SAME base counter.
    DeltaLog reopened(f.device, f.region);
    reopened.reset_epoch(5, 50);
    const auto fresh = chunk_fill(1, 100);
    ASSERT_TRUE(reopened.append(51, {{512, 100}}, fresh.data()).ok());

    // The stale chain's tail must be unreachable: without the
    // truncating seal, stale frame 2 (seq 2, iteration 52 > 51) would
    // satisfy every replay rule and splice the old timeline onto the
    // new one.
    std::vector<std::uint8_t> image(kImageBytes, 0);
    const DeltaReplayStats stats = delta_replay(
        f.device, f.region, 5, 50, image.data(), image.size());
    EXPECT_EQ(stats.frames_applied, 1u);
    EXPECT_EQ(stats.iteration, 51u);
    EXPECT_TRUE(std::equal(fresh.begin(), fresh.end(),
                           image.begin() + 512));
    EXPECT_EQ(image[100], 0);  // stale frame 2's chunk never applied
}

TEST(DeltaLog, GcRacingInFlightReplayStopsCleanly)
{
    LogFixture f;
    f.log.reset_epoch(7, 70);
    const auto data = chunk_fill(3, 40);
    ASSERT_TRUE(f.log.append(71, {{0, 40}}, data.data()).ok());
    ASSERT_TRUE(f.log.append(72, {{100, 40}}, data.data()).ok());
    ASSERT_TRUE(f.log.append(73, {{200, 40}}, data.data()).ok());

    // A reader replays the chain while the writer garbage-collects the
    // epoch and appends on the new base, overwriting the region under
    // the reader's feet. The replay must stop at a frame boundary, not
    // splice epoch-8 frames onto the epoch-7 prefix.
    std::vector<std::uint8_t> image(kImageBytes, 0);
    const DeltaReplayStats stats = delta_replay(
        f.device, f.region, 7, 70, image.data(), image.size(),
        [&](const DeltaFrameInfo& info) {
            if (info.seq == 1) {
                f.log.reset_epoch(8, 80);
                PCCHECK_MUST(f.log.append(81, {{300, 40}}, data.data()));
            }
            return true;
        });
    EXPECT_EQ(stats.frames_applied, 1u);
    EXPECT_EQ(stats.iteration, 71u);
    EXPECT_EQ(image[300], 0);  // no epoch-8 content leaked in
}

TEST(DeltaLog, FailedAppendLeavesHeadForRetry)
{
    LogFixture f;
    f.log.reset_epoch(1, 10);
    int failures = 1;
    f.log.set_op_probe([&failures]() {
        if (failures > 0) {
            --failures;
            return StorageStatus::transient_error("injected");
        }
        return StorageStatus::success();
    });
    const auto data = chunk_fill(1, 100);
    EXPECT_FALSE(f.log.append(11, {{0, 100}}, data.data()).ok());
    EXPECT_EQ(f.log.last_sealed_seq(), 0u);
    // Same append again: the head did not advance, so the retry seals
    // frame 1 exactly where the failed attempt would have.
    EXPECT_TRUE(f.log.append(11, {{0, 100}}, data.data()).ok());
    std::vector<std::uint8_t> image(kImageBytes, 0);
    const DeltaReplayStats stats = delta_replay(
        f.device, f.region, 1, 10, image.data(), image.size());
    EXPECT_EQ(stats.frames_applied, 1u);
    EXPECT_EQ(stats.iteration, 11u);
}

// ----------------------------------------------------------- recover_to_buffer

constexpr Bytes kSlotBytes = 1024;
constexpr Bytes kLogBytes = 8192;

std::vector<std::uint8_t> full_image(std::uint64_t counter)
{
    return chunk_fill(counter * 31, kSlotBytes);
}

void publish_full(SlotStore& store, StorageDevice& device,
                  std::uint64_t counter, std::uint64_t iteration,
                  const std::vector<std::uint8_t>& image)
{
    const std::uint32_t slot =
        static_cast<std::uint32_t>(counter % store.slot_count());
    PCCHECK_MUST(store.write_slot(slot, 0, image.data(), image.size()));
    PCCHECK_MUST(store.persist_slot_range(slot, 0, image.size()));
    PCCHECK_MUST(device.fence());
    PCCHECK_MUST(store.publish_pointer(CheckpointPointer{
        counter, slot, image.size(), iteration,
        crc32c(image.data(), image.size())}));
}

TEST(RecoverLatest, EmptyLogRecoversTheFullImage)
{
    MemStorage device(SlotStore::required_size(3, kSlotBytes, kLogBytes));
    SlotStore store = SlotStore::format(device, 3, kSlotBytes, kLogBytes);
    const auto image = full_image(1);
    publish_full(store, device, 1, 10, image);

    std::vector<std::uint8_t> buffer;
    const auto rec = recover_to_buffer(device, &buffer);
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->counter, 1u);
    EXPECT_EQ(rec->iteration, 10u);
    EXPECT_EQ(rec->delta_frames, 0u);
    EXPECT_EQ(buffer, image);
}

TEST(RecoverLatest, ReplaysTheChainOnTopOfTheFullImage)
{
    MemStorage device(SlotStore::required_size(3, kSlotBytes, kLogBytes));
    SlotStore store = SlotStore::format(device, 3, kSlotBytes, kLogBytes);
    auto image = full_image(1);
    publish_full(store, device, 1, 10, image);

    DeltaLog log(device, DeltaRegion{store.delta_offset(),
                                     store.delta_bytes()});
    log.reset_epoch(1, 10);
    const auto d1 = chunk_fill(4, 64);
    const auto d2 = chunk_fill(5, 64);
    ASSERT_TRUE(log.append(11, {{0, 64}}, d1.data()).ok());
    ASSERT_TRUE(log.append(12, {{256, 64}}, d2.data()).ok());

    std::vector<std::uint8_t> buffer;
    const auto rec = recover_to_buffer(device, &buffer);
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->counter, 1u);
    EXPECT_EQ(rec->iteration, 12u);
    EXPECT_EQ(rec->delta_frames, 2u);
    EXPECT_EQ(rec->delta_seq, 2u);
    std::copy(d1.begin(), d1.end(), image.begin());
    std::copy(d2.begin(), d2.end(), image.begin() + 256);
    EXPECT_EQ(buffer, image);
}

TEST(RecoverLatest, FallbackBaseIgnoresTheNewerChain)
{
    MemStorage device(SlotStore::required_size(3, kSlotBytes, kLogBytes));
    SlotStore store = SlotStore::format(device, 3, kSlotBytes, kLogBytes);
    const auto image1 = full_image(1);
    publish_full(store, device, 1, 10, image1);
    publish_full(store, device, 2, 20, full_image(2));

    DeltaLog log(device, DeltaRegion{store.delta_offset(),
                                     store.delta_bytes()});
    log.reset_epoch(2, 20);
    const auto d = chunk_fill(6, 64);
    ASSERT_TRUE(log.append(21, {{0, 64}}, d.data()).ok());

    // Checkpoint 2's slot data is then lost (bit rot / recycled slot):
    // recovery falls back to checkpoint 1 — and the delta chain, based
    // on counter 2, must NOT replay on top of it.
    std::uint8_t byte = 0xFF;
    PCCHECK_MUST(store.write_slot(2 % 3, 100, &byte, 1));
    std::vector<std::uint8_t> buffer;
    const auto rec = recover_to_buffer(device, &buffer);
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->counter, 1u);
    EXPECT_EQ(rec->iteration, 10u);
    EXPECT_EQ(rec->delta_frames, 0u);
    EXPECT_EQ(buffer, image1);
}

// ----------------------------------------------------------- orchestrator tier

constexpr Bytes kStateBytes = 64 * 1024;

GpuConfig fast_gpu()
{
    GpuConfig config;
    config.memory_bytes = 2 * kMiB;
    config.pcie_bytes_per_sec = 0;
    return config;
}

ScaledModel tiny_model()
{
    return scale_model(model_by_name("vgg16"),
                       ScaleFactors{600.0, 20000.0});
}

TEST(DeltaOrchestrator, SkipsWithoutADurableBase)
{
    MemStorage device(
        SlotStore::required_size(3, kStateBytes, 256 * 1024));
    SimGpu gpu(fast_gpu());
    TrainingState state(gpu, kStateBytes);
    PCcheckConfig config;
    config.concurrent_checkpoints = 2;
    config.delta_log_bytes = 256 * 1024;
    PCcheckCheckpointer checkpointer(state, device, config);
    ASSERT_NE(checkpointer.delta_log(), nullptr);

    // No full checkpoint exists yet: there is nothing for a frame to
    // be relative to, so the request is counted and dropped.
    checkpointer.request_delta(1);
    const CheckpointerStats stats = checkpointer.stats();
    EXPECT_EQ(stats.delta_frames, 0u);
    EXPECT_EQ(stats.delta_skipped, 1u);
}

TEST(DeltaOrchestrator, DisabledTierIsANoop)
{
    MemStorage device(SlotStore::required_size(3, kStateBytes));
    SimGpu gpu(fast_gpu());
    TrainingState state(gpu, kStateBytes);
    PCcheckConfig config;
    config.concurrent_checkpoints = 2;
    PCcheckCheckpointer checkpointer(state, device, config);
    EXPECT_EQ(checkpointer.delta_log(), nullptr);
    checkpointer.request_delta(1);  // must not crash or count
    EXPECT_EQ(checkpointer.stats().delta_skipped, 0u);
}

TEST(DeltaOrchestrator, FullLogSkipsInsteadOfWedging)
{
    // A log too small for even one frame: every request is skipped,
    // training proceeds, and recovery still finds the full tier.
    MemStorage device(SlotStore::required_size(3, kStateBytes, 128));
    SimGpu gpu(fast_gpu());
    TrainingState state(gpu, kStateBytes);
    PCcheckConfig config;
    config.concurrent_checkpoints = 2;
    config.delta_log_bytes = 128;
    PCcheckCheckpointer checkpointer(state, device, config);
    TrainingLoop loop(gpu, state, tiny_model());
    loop.set_delta_interval(1);
    loop.set_sparse_updates(0.2, 17);
    loop.run(8, 4, checkpointer);

    const CheckpointerStats stats = checkpointer.stats();
    EXPECT_EQ(stats.delta_frames, 0u);
    EXPECT_GT(stats.delta_skipped, 0u);
    std::vector<std::uint8_t> buffer;
    const auto rec = recover_to_buffer(device, &buffer);
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->delta_frames, 0u);
    EXPECT_EQ(rec->iteration % 4, 0u);  // a full-tier checkpoint
}

TEST(DeltaOrchestrator, TrainCrashRecoverResumeRoundTrip)
{
    CrashSimStorage device(
        SlotStore::required_size(3, kStateBytes, 256 * 1024),
        StorageKind::kPmemNt, 23, 0.5);
    {
        SimGpu gpu(fast_gpu());
        TrainingState state(gpu, kStateBytes);
        PCcheckConfig config;
        config.concurrent_checkpoints = 2;
        config.delta_log_bytes = 256 * 1024;
        PCcheckCheckpointer checkpointer(state, device, config);
        TrainingLoop loop(gpu, state, tiny_model());
        loop.set_delta_interval(1);
        loop.set_sparse_updates(0.1, 42);
        loop.run(16, 4, checkpointer);
        EXPECT_GT(checkpointer.stats().delta_frames, 0u);
    }
    device.crash();

    std::vector<std::uint8_t> buffer;
    const auto rec = recover_to_buffer(device, &buffer);
    ASSERT_TRUE(rec.has_value());
    EXPECT_GE(rec->iteration, 4u);   // at least the first full
    EXPECT_LE(rec->iteration, 16u);
    // Every marker is intact and none is newer than the recovered
    // iteration (frames legally leave older stamps behind).
    EXPECT_EQ(TrainingState::verify_buffer_sparse(buffer.data(),
                                                  buffer.size()),
              rec->iteration);

    // Resume: load into a fresh state and train on.
    SimGpu gpu(fast_gpu());
    TrainingState state(gpu, kStateBytes);
    const auto resumed = recover_latest_into_state(device, state);
    ASSERT_TRUE(resumed.has_value());
    EXPECT_EQ(resumed->iteration, rec->iteration);
    EXPECT_EQ(state.iteration(), rec->iteration);
    PCcheckConfig config;
    config.concurrent_checkpoints = 2;
    config.delta_log_bytes = 256 * 1024;
    PCcheckCheckpointer checkpointer(state, device, config);
    TrainingLoop loop(gpu, state, tiny_model());
    loop.set_delta_interval(1);
    loop.set_sparse_updates(0.1, 43);
    loop.run(4, 2, checkpointer, rec->iteration + 1);
    EXPECT_EQ(state.iteration(), rec->iteration + 4);
}

// The stamp oracle follows the arena, not the replay: a full
// checkpoint of a sparsely updated state already mixes iterations.
TEST(RecoverIntoState, StampCheckFollowsTheArenaNotTheReplay)
{
    // One CRC-valid image whose markers mix iterations 3 and 4, under
    // a pointer at iteration 4.
    std::vector<std::uint8_t> image(kStateBytes);
    TrainingState::stamp_buffer(image.data(), image.size(), 3);
    TrainingState::sparse_update_buffer(image.data(), image.size(), 4, 0.5,
                                        7);
    ASSERT_FALSE(TrainingState::verify_buffer(image.data(), image.size())
                     .has_value());
    ASSERT_EQ(TrainingState::verify_buffer_sparse(image.data(),
                                                  image.size()),
              std::make_optional<std::uint64_t>(4));

    // No delta region: every checkpoint is one full stamp, so mixed
    // markers are a torn image and the state stays untouched.
    {
        MemStorage device(SlotStore::required_size(3, kStateBytes));
        SlotStore store = SlotStore::format(device, 3, kStateBytes);
        publish_full(store, device, 1, 4, image);
        SimGpu gpu(fast_gpu());
        TrainingState state(gpu, kStateBytes);
        EXPECT_FALSE(recover_latest_into_state(device, state).has_value());
        EXPECT_EQ(state.iteration(), 0u);
        EXPECT_EQ(TrainingState::verify_buffer(
                      gpu.device_data(state.device_ptr()), state.size()),
                  std::make_optional<std::uint64_t>(0));
    }
    // Delta region, no frame sealed: the same bytes are a valid base
    // checkpoint and are restored as they are.
    {
        MemStorage device(
            SlotStore::required_size(3, kStateBytes, kLogBytes));
        SlotStore store =
            SlotStore::format(device, 3, kStateBytes, kLogBytes);
        publish_full(store, device, 1, 4, image);
        SimGpu gpu(fast_gpu());
        TrainingState state(gpu, kStateBytes);
        const auto recovered = recover_latest_into_state(device, state);
        ASSERT_TRUE(recovered.has_value());
        EXPECT_EQ(recovered->iteration, 4u);
        EXPECT_EQ(recovered->delta_frames, 0u);
        EXPECT_EQ(state.iteration(), 4u);
        EXPECT_TRUE(std::equal(image.begin(), image.end(),
                               gpu.device_data(state.device_ptr())));
    }
}

}  // namespace
}  // namespace pccheck
