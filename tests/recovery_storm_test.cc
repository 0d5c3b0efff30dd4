/**
 * @file
 * Recovery-under-fire storm: a seeded sweep that arms bit-rot and
 * unreadable-sector faults WHILE the RecoveryPlanner is running, keeps
 * one crash state of that recovery (storage/crash_capture.h), then
 * asserts the tentpole guarantees of docs/RECOVERY.md:
 *
 *   - armored recovery (local arena + peer replica) restores the
 *     newest checkpoint byte-exactly no matter which reads lie;
 *   - recovery is re-entrant: a crash image of a state the recovery
 *     reached (mid-quarantine, mid-salvage, mid-publish) recovers
 *     again, and
 *     repeated recoveries reach a fixpoint — same counter, same
 *     bytes, byte-identical media;
 *   - quarantine accounting: every slot the planner quarantines is
 *     durably excluded from recovery until repaired, the planner's
 *     slots_quarantined report matches the store's bitmap delta, and
 *     no published pointer ever references a quarantined slot.
 *
 * Runs 64 seeds by default; PCCHECK_RECOVERY_STORM_SEEDS overrides
 * (CI smoke runs 8 under sanitizers). Every failure replays from its
 * printed seed.
 */

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/recovery_planner.h"
#include "core/slot_store.h"
#include "faults/fault.h"
#include "faults/faulty_storage.h"
#include "net/network.h"
#include "remote/replica_source.h"
#include "remote/replica_store.h"
#include "remote/replication.h"
#include "storage/crash_capture.h"
#include "storage/crash_sim.h"
#include "storage/mem_storage.h"
#include "sweep_support.h"
#include "util/check.h"
#include "util/crc32.h"
#include "util/logging.h"
#include "util/rng.h"

namespace pccheck {
namespace {

constexpr Bytes kState = 4 * 1024;
constexpr std::uint32_t kSlots = 2;
constexpr std::uint64_t kCheckpoints = 3;

std::vector<std::uint8_t>
image_for(std::uint64_t counter)
{
    std::vector<std::uint8_t> image(kState);
    for (Bytes j = 0; j < kState; ++j) {
        image[j] = static_cast<std::uint8_t>((counter * 131 + j) & 0xFF);
    }
    return image;
}

/** Fixture for one seed: faulted media + a peer holding the newest. */
struct Storm {
    std::shared_ptr<FaultInjector> injector;
    CrashSimStorage* media = nullptr;  ///< owned by device
    std::unique_ptr<FaultyStorage> device;
    std::unique_ptr<SimNetwork> network;
    std::unique_ptr<ReplicaStore> peer_store;
    std::vector<ReplicaPeer> peers;
    std::vector<std::vector<std::uint8_t>> expected;  ///< [counter]
    bool rotted = false;  ///< newest slot durably corrupted pre-storm
};

Storm
make_storm(std::uint64_t seed)
{
    Storm storm;
    storm.injector = std::make_shared<FaultInjector>(seed);
    auto media = std::make_unique<CrashSimStorage>(
        SlotStore::required_size(kSlots, kState), StorageKind::kPmemClwb,
        seed, 0.5);
    storm.media = media.get();
    storm.device =
        std::make_unique<FaultyStorage>(std::move(media), storm.injector);

    SlotStore store = SlotStore::format(*storm.device, kSlots, kState);
    storm.expected.resize(kCheckpoints + 1);
    for (std::uint64_t c = 1; c <= kCheckpoints; ++c) {
        storm.expected[c] = image_for(c);
        const std::vector<std::uint8_t>& image = storm.expected[c];
        const auto slot = static_cast<std::uint32_t>(c % kSlots);
        PCCHECK_MUST(store.write_slot(slot, 0, image.data(), image.size()));
        PCCHECK_MUST(store.persist_slot_range(slot, 0, image.size()));
        PCCHECK_MUST(storm.device->fence());
        PCCHECK_MUST(store.publish_pointer(
            CheckpointPointer{c, slot, kState, c * 10,
                              crc32c(image.data(), image.size())}));
    }

    // Half the seeds start with latent rot already on the newest slot:
    // the storm then exercises quarantine + salvage, not just retries.
    if (seed % 2 == 0) {
        const auto slot = static_cast<std::uint32_t>(kCheckpoints % kSlots);
        const Bytes off = store.slot_offset(slot) + (seed % kState);
        std::uint8_t byte = 0;
        PCCHECK_MUST(storm.device->read(off, &byte, 1));
        byte ^= 0x80;
        PCCHECK_MUST(storm.device->write(off, &byte, 1));
        PCCHECK_MUST(storm.device->persist(off, 1));
        PCCHECK_MUST(storm.device->fence());
        storm.rotted = true;
    }

    NetworkConfig net;
    net.nodes = 2;
    net.latency = 0;
    storm.network = std::make_unique<SimNetwork>(net);
    storm.peer_store = std::make_unique<ReplicaStore>();
    const std::vector<std::uint8_t>& newest =
        storm.expected[kCheckpoints];
    storm.peer_store->store_chunk(kCheckpoints, kCheckpoints * 10,
                                  newest.size(), 0, newest.data(),
                                  newest.size());
    PCCHECK_CHECK(storm.peer_store->seal(
        kCheckpoints, crc32c(newest.data(), newest.size())));
    storm.peers.push_back(ReplicaPeer{1, storm.peer_store.get()});
    return storm;
}

/** One armored planner run against @p device. */
std::optional<PlannedRecovery>
armored_recover(Storm& storm, StorageDevice& device,
                std::vector<std::uint8_t>* out)
{
    RecoveryPlanner planner(&device);
    ReplicaRecoverySource replicas(*storm.network, /*self_node=*/0,
                                   storm.peers);
    planner.add_source(&replicas);
    return planner.recover(out);
}

std::vector<std::uint8_t>
volatile_image(StorageDevice& device)
{
    std::vector<std::uint8_t> image(device.size());
    PCCHECK_MUST(device.read(0, image.data(), image.size()));
    return image;
}

/** Quarantined slots as durably recorded on @p device (fault-free). */
std::vector<std::uint32_t>
quarantine_set(StorageDevice& device)
{
    return SlotStore::open(device).quarantined_slots();
}

/** Arms @p seed's weather — probabilistic bit rot and bad sectors on
 *  every read — and returns the seed of its crash point. */
std::uint64_t
arm_weather(Storm& storm, std::uint64_t seed)
{
    Rng pick(seed * 0x9E3779B97F4A7C15ULL);
    const std::uint64_t crash_seed = pick.next_u64();
    const char* weather[] = {
        "storage.read:bitflip=0x01@p=0.25",
        "storage.read:unreadable@p=0.2",
        "storage.read:bitflip=0x80@p=0.1;storage.read:unreadable@p=0.1",
    };
    storm.injector->set_plan(FaultPlan::parse(weather[pick.next_below(3)]));
    return crash_seed;
}

/**
 * Local-only recovery from @p crash_image must either serve a real
 * checkpoint byte-exactly, or come up empty ONLY because the storm had
 * durably quarantined a slot (a transient read lie can quarantine the
 * good slot — the accounted, repairable case the peer path and the
 * scrubber exist for).
 */
void
expect_local_copy_or_quarantine(const Storm& storm,
                                const std::vector<std::uint8_t>& crash_image)
{
    const auto dead = reboot(crash_image);
    std::vector<std::uint8_t> local_bytes;
    RecoveryPlanner local(dead.get());
    const auto local_result = local.recover(&local_bytes);
    if (local_result.has_value()) {
        EXPECT_GE(local_result->result.counter, kCheckpoints - 1);
        EXPECT_LE(local_result->result.counter, kCheckpoints);
        EXPECT_EQ(local_bytes, storm.expected[local_result->result.counter]);
    } else {
        // Unexplained loss would be a durability bug; loss with a
        // quarantine record is the documented contract.
        EXPECT_FALSE(quarantine_set(*reboot(crash_image)).empty())
            << "crash image lost every local checkpoint without a "
               "quarantine record";
    }
}

TEST(RecoveryStormTest, ArmoredRecoverySurvivesReadFaultsAndCrashes)
{
    PsanCleanGuard psan_clean;
    const int seeds = sweep_seeds("PCCHECK_RECOVERY_STORM_SEEDS", 64);
    int crashed = 0;
    int storms_quarantined = 0;
    for (int s = 1; s <= seeds; ++s) {
        const std::uint64_t seed = 7000 + static_cast<std::uint64_t>(s);
        SCOPED_TRACE("seed " + std::to_string(seed));
        Storm storm = make_storm(seed);

        // Arm the weather. Every state the recovery reaches may be the
        // crash point, so one run tests both "recovery finishes under
        // fire" and "recovery restarts from a mid-recovery crash".
        const std::uint64_t crash_seed = arm_weather(storm, seed);
        const std::size_t mark = storm.media->ops();
        CrashPointSampler sampler(*storm.media, crash_seed);

        // Storm recovery: the peer always holds the newest image, so
        // no matter which local reads lie the planner must restore it.
        std::vector<std::uint8_t> bytes;
        const auto stormy = armored_recover(storm, *storm.device, &bytes);
        ASSERT_TRUE(stormy.has_value());
        EXPECT_EQ(stormy->result.counter, kCheckpoints);
        EXPECT_EQ(bytes, storm.expected[kCheckpoints]);

        // Calm the weather; everything from here on reads true.
        storm.injector->set_plan(FaultPlan());
        const CrashPoint point = sampler.take();
        ASSERT_TRUE(is_own_crash_point(point, mark)) << point.clause();
        ++crashed;

        // Quarantine accounting: only the newest local candidate is
        // ever quarantined (at most one per run), a successful salvage
        // releases it again, so the durable bitmap can only hold slots
        // the planner reported — and no published pointer may
        // reference one.
        if (stormy->slots_quarantined > 0) {
            ++storms_quarantined;
        }
        EXPECT_LE(stormy->slots_quarantined, 1u);
        {
            SlotStore store = SlotStore::open(*storm.device);
            const auto quarantined = store.quarantined_slots();
            EXPECT_LE(quarantined.size(), stormy->slots_quarantined);
            const auto ptr = store.recover_pointer(/*validate_data=*/false);
            if (ptr.has_value()) {
                for (std::uint32_t slot : quarantined) {
                    EXPECT_NE(ptr->slot, slot)
                        << "published pointer references a quarantined "
                           "slot";
                }
            }
        }

        // Recover-again fixpoint on the live device: the first calm
        // run may still salvage/repair; the one after it must change
        // nothing — same counter, same bytes, byte-identical media,
        // stable quarantine set.
        std::vector<std::uint8_t> calm_bytes;
        const auto calm =
            armored_recover(storm, *storm.device, &calm_bytes);
        ASSERT_TRUE(calm.has_value());
        EXPECT_EQ(calm->result.counter, kCheckpoints);
        EXPECT_EQ(calm_bytes, storm.expected[kCheckpoints]);
        const auto media_after_calm = volatile_image(*storm.device);
        const auto quarantine_after_calm = quarantine_set(*storm.device);

        std::vector<std::uint8_t> fix_bytes;
        const auto fixed = armored_recover(storm, *storm.device, &fix_bytes);
        ASSERT_TRUE(fixed.has_value());
        EXPECT_EQ(fixed->result.counter, calm->result.counter);
        EXPECT_EQ(fix_bytes, calm_bytes);
        EXPECT_EQ(volatile_image(*storm.device), media_after_calm)
            << "second calm recovery mutated the media (no fixpoint)";
        EXPECT_EQ(quarantine_set(*storm.device), quarantine_after_calm);

        // Re-entrancy from the mid-recovery crash image: whatever the
        // quarantine/salvage sequence was doing when the crash hit, a
        // fresh process must restore K via the peer and reach the same
        // fixpoint, and local-only recovery must keep its contract.
        {
            SCOPED_TRACE(point.clause());
            const std::vector<std::uint8_t> crash_image = point.image();
            expect_local_copy_or_quarantine(storm, crash_image);
            const auto dead_owned = reboot(crash_image);
            MemStorage& dead = *dead_owned;

            std::vector<std::uint8_t> armored_bytes;
            const auto armored =
                armored_recover(storm, dead, &armored_bytes);
            ASSERT_TRUE(armored.has_value());
            EXPECT_EQ(armored->result.counter, kCheckpoints);
            EXPECT_EQ(armored_bytes, storm.expected[kCheckpoints]);

            const auto dead_after = volatile_image(dead);
            std::vector<std::uint8_t> again_bytes;
            const auto again = armored_recover(storm, dead, &again_bytes);
            ASSERT_TRUE(again.has_value());
            EXPECT_EQ(again->result.counter, kCheckpoints);
            EXPECT_EQ(again_bytes, armored_bytes);
            EXPECT_EQ(volatile_image(dead), dead_after)
                << "re-entrant recovery mutated the repaired image";
        }
    }
    // The sweep must actually have exercised both hard paths.
    EXPECT_EQ(crashed, seeds);
    EXPECT_GT(storms_quarantined, 0);
    LOG_INFO("recovery storm: " << seeds << " seeds, " << crashed
                                << " crash images, " << storms_quarantined
                                << " storms quarantined a slot");
}

TEST(RecoveryStormTest, EveryStateOfAStormyRecoveryKeepsTheLocalContract)
{
    PsanCleanGuard psan_clean;
    // The local-only contract at every state the armored recovery
    // passes through, not just the one the sweep keeps, under a few
    // masks each. A salvage that a read lie misleads into overwriting
    // the last good local copy must hold a quarantine meanwhile
    // (seeds 7028, 7044 and 7046 reach that case).
    for (int s = 1; s <= 64; ++s) {
        const std::uint64_t seed = 7000 + static_cast<std::uint64_t>(s);
        SCOPED_TRACE("seed " + std::to_string(seed));
        Storm storm = make_storm(seed);
        arm_weather(storm, seed);
        CrashTrace trace;
        {
            SnapshotRecorder recorder(*storm.media, &trace);
            std::vector<std::uint8_t> bytes;
            ASSERT_TRUE(
                armored_recover(storm, *storm.device, &bytes).has_value());
        }
        for (const CrashSnapshot& snap : trace) {
            Rng draws(seed + snap.op_index);
            const std::size_t lines = snap.lines.size();
            std::vector<LineMask> masks = {LineMask(), LineMask::all(lines)};
            for (int k = 0; k < 6; ++k) {
                masks.push_back(LineMask::random(draws, lines));
            }
            for (const LineMask& mask : masks) {
                SCOPED_TRACE(crash_clause(snap.op_index, mask));
                expect_local_copy_or_quarantine(storm,
                                                materialize(snap, mask));
            }
        }
    }
}

TEST(RecoveryStormTest, LocalOnlyStormNeverRegressesPastLastGood)
{
    PsanCleanGuard psan_clean;
    const int seeds = sweep_seeds("PCCHECK_RECOVERY_STORM_SEEDS", 64);
    for (int s = 1; s <= seeds; ++s) {
        const std::uint64_t seed = 9000 + static_cast<std::uint64_t>(s);
        SCOPED_TRACE("seed " + std::to_string(seed));
        Storm storm = make_storm(seed);

        // Transient weather only (no crash point, no peer), with
        // quarantine disabled: a planner that cannot write must never
        // durably regress anything, so whatever it returns is a real
        // checkpoint's exact bytes and the pre-storm floor of K-1
        // (the un-rotted slot) holds once the weather clears. (With
        // quarantine ON, a transient lie may durably quarantine the
        // good slot — that accounted case is the armored sweep's job.)
        storm.injector->set_plan(
            FaultPlan::parse("storage.read:bitflip=0x02@p=0.3;"
                             "storage.read:unreadable@p=0.2"));
        std::vector<std::uint8_t> bytes;
        RecoveryPlanner::Options readonly;
        readonly.quarantine = false;
        readonly.salvage = false;
        RecoveryPlanner stormy_planner(storm.device.get(), readonly);
        const auto stormy = stormy_planner.recover(&bytes);
        if (stormy.has_value()) {
            const std::uint64_t counter = stormy->result.counter;
            ASSERT_GE(counter, 1u);
            ASSERT_LE(counter, kCheckpoints);
            EXPECT_EQ(bytes, storm.expected[counter]);
        }

        storm.injector->set_plan(FaultPlan());
        std::vector<std::uint8_t> calm_bytes;
        RecoveryPlanner calm_planner(storm.device.get());
        const auto calm = calm_planner.recover(&calm_bytes);
        ASSERT_TRUE(calm.has_value())
            << "transient read faults durably destroyed all checkpoints";
        EXPECT_GE(calm->result.counter, kCheckpoints - 1);
        EXPECT_EQ(calm_bytes, storm.expected[calm->result.counter]);
    }
}

}  // namespace
}  // namespace pccheck
