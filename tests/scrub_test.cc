/**
 * @file
 * Scrubber unit tests (docs/RECOVERY.md §scrub): latent bit rot is
 * detected by CRC re-verification, quarantined durably, repaired from
 * a peer replica or the live in-DRAM state, re-verified from media,
 * and returned to service — or kept quarantined when no source can
 * produce verified bytes. Rotten delta frames are truncated, peer
 * ReplicaStores are re-verified in DRAM, and the whole repair path is
 * psan-clean (the acceptance demo of the recovery-under-fire work:
 * inject rot, watch the scrubber heal it from the peer, recover the
 * repaired slot locally).
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "core/concurrent_commit.h"
#include "core/recovery_planner.h"
#include "core/slot_store.h"
#include "delta/delta_log.h"
#include "net/network.h"
#include "psan/psan.h"
#include "psan/psan_storage.h"
#include "remote/replica_source.h"
#include "remote/replica_store.h"
#include "remote/replication.h"
#include "scrub/scrubber.h"
#include "storage/crash_sim.h"
#include "storage/mem_storage.h"
#include "util/check.h"
#include "util/crc32.h"
#include "util/metrics.h"

namespace pccheck {
namespace {

constexpr Bytes kState = 1024;
constexpr std::uint32_t kSlots = 3;

std::vector<std::uint8_t>
image_for(std::uint64_t counter)
{
    std::vector<std::uint8_t> image(kState);
    for (Bytes j = 0; j < kState; ++j) {
        image[j] = static_cast<std::uint8_t>((counter * 131 + j) & 0xFF);
    }
    return image;
}

/** Publish @p counter into slot (counter % kSlots) under the full
 *  persist contract; returns the image. */
std::vector<std::uint8_t>
publish(SlotStore& store, StorageDevice& device, std::uint64_t counter)
{
    const std::vector<std::uint8_t> image = image_for(counter);
    const auto slot = static_cast<std::uint32_t>(counter % kSlots);
    PCCHECK_MUST(store.write_slot(slot, 0, image.data(), image.size()));
    PCCHECK_MUST(store.persist_slot_range(slot, 0, image.size()));
    PCCHECK_MUST(device.fence());
    PCCHECK_MUST(store.publish_pointer(
        CheckpointPointer{counter, slot, kState, counter * 10,
                          crc32c(image.data(), image.size())}));
    return image;
}

/** Durably flip one payload byte of @p counter's slot via @p device
 *  (pass the RAW device, not the psan wrapper — rot is the adversary,
 *  not the program). */
void
inject_rot(SlotStore& store, StorageDevice& device, std::uint64_t counter)
{
    const auto slot = static_cast<std::uint32_t>(counter % kSlots);
    const Bytes off = store.slot_offset(slot) + 11;
    std::uint8_t byte = 0;
    PCCHECK_MUST(device.read(off, &byte, 1));
    byte ^= 0x20;
    PCCHECK_MUST(device.write(off, &byte, 1));
    PCCHECK_MUST(device.persist(off, 1));
    PCCHECK_MUST(device.fence());
}

TEST(ScrubberTest, CleanStoreScansWithoutFindings)
{
    MemStorage device(SlotStore::required_size(kSlots, kState));
    SlotStore store = SlotStore::format(device, kSlots, kState);
    publish(store, device, 1);
    publish(store, device, 2);

    Scrubber scrubber(store);
    const ScrubReport report = scrubber.scrub_once();
    EXPECT_EQ(report.scanned, 1u);  // newest payload only
    EXPECT_EQ(report.corrupt, 0u);
    EXPECT_EQ(report.quarantined, 0u);
    EXPECT_EQ(report.repaired, 0u);
    EXPECT_TRUE(store.quarantined_slots().empty());
}

TEST(ScrubberTest, DetectsRotAndQuarantinesWithoutSources)
{
    MemStorage device(SlotStore::required_size(kSlots, kState));
    SlotStore store = SlotStore::format(device, kSlots, kState);
    publish(store, device, 1);
    publish(store, device, 2);
    inject_rot(store, device, 2);

    const std::uint64_t corrupt_before =
        MetricsRegistry::global().counter("pccheck.scrub.corrupt").value();
    Scrubber scrubber(store);
    const ScrubReport report = scrubber.scrub_once();
    EXPECT_EQ(report.corrupt, 1u);
    EXPECT_EQ(report.quarantined, 1u);
    EXPECT_EQ(report.repaired, 0u);  // nothing to repair from
    EXPECT_TRUE(store.is_quarantined(2 % kSlots));
    EXPECT_EQ(
        MetricsRegistry::global().counter("pccheck.scrub.corrupt").value(),
        corrupt_before + 1);

    // Recovery now skips the quarantined newest and serves counter 1.
    const auto ptr = store.recover_pointer();
    ASSERT_TRUE(ptr.has_value());
    EXPECT_EQ(ptr->counter, 1u);

    // The quarantine is sticky: a second pass neither double-counts
    // nor releases anything.
    const ScrubReport second = scrubber.scrub_once();
    EXPECT_EQ(second.quarantined, 0u);
    EXPECT_TRUE(store.is_quarantined(2 % kSlots));
}

// The acceptance demo: inject bit rot, let the scrubber detect it,
// repair from a peer replica over the simulated fabric, and return the
// slot to service — local recovery then restores the repaired
// checkpoint byte-exactly.
TEST(ScrubberTest, RepairsFromPeerReplicaAndReturnsSlotToService)
{
    MemStorage device(SlotStore::required_size(kSlots, kState));
    SlotStore store = SlotStore::format(device, kSlots, kState);
    publish(store, device, 1);
    const std::vector<std::uint8_t> newest = publish(store, device, 2);
    inject_rot(store, device, 2);

    NetworkConfig net;
    net.nodes = 2;
    net.latency = 0;
    SimNetwork network(net);
    ReplicaStore peer_store;
    peer_store.store_chunk(2, 20, newest.size(), 0, newest.data(),
                           newest.size());
    ASSERT_TRUE(peer_store.seal(2, crc32c(newest.data(), newest.size())));
    ReplicaRecoverySource replicas(network, /*self_node=*/0,
                                   {ReplicaPeer{1, &peer_store}});

    const std::uint64_t repaired_before =
        MetricsRegistry::global().counter("pccheck.scrub.repaired").value();
    Scrubber scrubber(store);
    scrubber.add_repair_source(&replicas);
    const ScrubReport report = scrubber.scrub_once();
    EXPECT_EQ(report.corrupt, 1u);
    EXPECT_EQ(report.quarantined, 1u);
    EXPECT_EQ(report.repaired, 1u);
    EXPECT_FALSE(store.is_quarantined(2 % kSlots));
    EXPECT_EQ(
        MetricsRegistry::global().counter("pccheck.scrub.repaired").value(),
        repaired_before + 1);

    // Back in service: plain local recovery restores the repaired
    // newest checkpoint with the exact original bytes.
    std::vector<std::uint8_t> bytes;
    RecoveryPlanner planner(&device);
    const auto recovered = planner.recover(&bytes);
    ASSERT_TRUE(recovered.has_value());
    EXPECT_EQ(recovered->result.counter, 2u);
    EXPECT_EQ(bytes, newest);

    // Healed for good: the next pass is clean.
    const ScrubReport second = scrubber.scrub_once();
    EXPECT_EQ(second.corrupt, 0u);
    EXPECT_EQ(second.repaired, 0u);
}

TEST(ScrubberTest, RepairsFromLiveStateWhenNoPeerServes)
{
    MemStorage device(SlotStore::required_size(kSlots, kState));
    SlotStore store = SlotStore::format(device, kSlots, kState);
    publish(store, device, 1);
    const std::vector<std::uint8_t> newest = publish(store, device, 2);
    inject_rot(store, device, 2);

    Scrubber scrubber(store);
    scrubber.set_live_state_provider(
        [&newest](std::uint64_t counter, std::vector<std::uint8_t>* out) {
            if (counter != 2) {
                return false;
            }
            *out = newest;
            return true;
        });
    const ScrubReport report = scrubber.scrub_once();
    EXPECT_EQ(report.corrupt, 1u);
    EXPECT_EQ(report.repaired, 1u);
    EXPECT_FALSE(store.is_quarantined(2 % kSlots));
    const auto ptr = store.recover_pointer();
    ASSERT_TRUE(ptr.has_value());
    EXPECT_EQ(ptr->counter, 2u);
}

TEST(ScrubberTest, RejectsLiveStateBytesThatFailTheRecordCrc)
{
    MemStorage device(SlotStore::required_size(kSlots, kState));
    SlotStore store = SlotStore::format(device, kSlots, kState);
    publish(store, device, 1);
    publish(store, device, 2);
    inject_rot(store, device, 2);

    Scrubber scrubber(store);
    scrubber.set_live_state_provider(
        [](std::uint64_t, std::vector<std::uint8_t>* out) {
            // Right length, wrong bytes: a repair that trusted this
            // would replace rot with different rot.
            out->assign(kState, 0xAB);
            return true;
        });
    const ScrubReport report = scrubber.scrub_once();
    EXPECT_EQ(report.corrupt, 1u);
    EXPECT_EQ(report.repaired, 0u);
    EXPECT_TRUE(store.is_quarantined(2 % kSlots));
}

TEST(ScrubberTest, ReclaimsSupersededQuarantinedSlotIntoFreePool)
{
    MemStorage device(SlotStore::required_size(kSlots, kState));
    SlotStore store = SlotStore::format(device, kSlots, kState);
    publish(store, device, 1);
    publish(store, device, 2);
    // Slot 1 held counter 1, which slot-1-record no longer... it does:
    // counter 1's record still lists slot 1, but counter 2 is the
    // newest. Quarantine an entirely unreferenced slot instead: slot 0
    // holds nothing.
    PCCHECK_MUST(store.quarantine_slot(0));

    // The commit protocol, opened on this state, withholds the
    // quarantined slot from its free pool.
    ConcurrentCommit commit(store);
    std::vector<CheckpointTicket> tickets;
    CheckpointTicket ticket;
    while (commit.try_begin(&ticket)) {
        tickets.push_back(ticket);
    }
    const std::size_t free_before = tickets.size();
    for (const CheckpointTicket& t : tickets) {
        commit.abort(t);
    }

    Scrubber scrubber(store);
    scrubber.set_commit(&commit);
    const ScrubReport report = scrubber.scrub_once();
    EXPECT_EQ(report.repaired, 1u);  // reclaimed counts as healed
    EXPECT_FALSE(store.is_quarantined(0));

    tickets.clear();
    while (commit.try_begin(&ticket)) {
        tickets.push_back(ticket);
    }
    EXPECT_EQ(tickets.size(), free_before + 1)
        << "reclaimed slot did not return to the free pool";
    for (const CheckpointTicket& t : tickets) {
        commit.abort(t);
    }
}

// Regression: once the newest record's slot is quarantined, the
// scrubber must NOT fall through to rot-checking older records. Their
// slots are recycled by live commits, so a payload mismatch there is
// routine reuse — quarantining it would poison a slot the commit
// protocol may be writing right now.
TEST(ScrubberTest, NewestQuarantinedNeverFallsThroughToOlderRecords)
{
    MemStorage device(SlotStore::required_size(kSlots, kState));
    SlotStore store = SlotStore::format(device, kSlots, kState);
    publish(store, device, 1);
    publish(store, device, 2);
    inject_rot(store, device, 2);

    Scrubber scrubber(store);
    ASSERT_EQ(scrubber.scrub_once().quarantined, 1u);
    ASSERT_TRUE(store.is_quarantined(2 % kSlots));

    // A live commit rewrites counter 1's slot while the stale record
    // still names it — what every in-flight checkpoint does.
    inject_rot(store, device, 1);
    const ScrubReport second = scrubber.scrub_once();
    EXPECT_EQ(second.scanned, 0u);  // newest quarantined: nothing scanned
    EXPECT_EQ(second.corrupt, 0u);
    EXPECT_EQ(second.quarantined, 0u);
    EXPECT_FALSE(store.is_quarantined(1 % kSlots))
        << "scrubber rot-checked an older record's recyclable slot";
}

// Regression: reclaiming a slot that was quarantined AFTER the commit
// protocol already pooled it (e.g. by a concurrent recovery on another
// handle) must not enqueue it a second time — restore_slot() only
// re-admits slots the protocol actually withheld at construction.
TEST(ScrubberTest, ReclaimOfSlotStillInFreePoolIsNotDoubleAdded)
{
    MemStorage device(SlotStore::required_size(kSlots, kState));
    SlotStore store = SlotStore::format(device, kSlots, kState);
    publish(store, device, 1);
    publish(store, device, 2);

    // Slot 0 is unreferenced, so construction pools it; only THEN is
    // it quarantined.
    ConcurrentCommit commit(store);
    PCCHECK_MUST(store.quarantine_slot(0));

    Scrubber scrubber(store);
    scrubber.set_commit(&commit);
    scrubber.scrub_once();  // releases slot 0; restore must be a no-op
    EXPECT_FALSE(store.is_quarantined(0));

    std::vector<CheckpointTicket> tickets;
    CheckpointTicket ticket;
    while (commit.try_begin(&ticket)) {
        tickets.push_back(ticket);
    }
    ASSERT_EQ(tickets.size(), 2u) << "slot re-admitted to the pool twice";
    EXPECT_NE(tickets[0].slot, tickets[1].slot);
    for (const CheckpointTicket& t : tickets) {
        commit.abort(t);
    }
}

// Regression: concurrent stop()s (an explicit stop racing the
// destructor) and start()-during-stop must not double-join or assign
// over a joinable thread handle.
TEST(ScrubberTest, ConcurrentStopsAndRestartsAreSafe)
{
    MemStorage device(SlotStore::required_size(kSlots, kState));
    SlotStore store = SlotStore::format(device, kSlots, kState);
    publish(store, device, 1);

    Scrubber::Options options;
    options.interval = 0.0005;
    Scrubber scrubber(store, options);
    for (int round = 0; round < 25; ++round) {
        scrubber.start();
        std::thread stopper([&scrubber] { scrubber.stop(); });
        std::thread restarter([&scrubber] { scrubber.start(); });
        scrubber.stop();
        stopper.join();
        restarter.join();
        scrubber.stop();  // shut down whatever the restart left running
    }
    EXPECT_GE(scrubber.totals().scanned, 0u);
}

TEST(ScrubberTest, TruncatesRottenDeltaFrames)
{
    constexpr Bytes kDeltaBytes = 4 * 1024;
    MemStorage device(
        SlotStore::required_size(kSlots, kState, kDeltaBytes));
    SlotStore store = SlotStore::format(device, kSlots, kState,
                                        kDeltaBytes);
    publish(store, device, 1);

    DeltaLog log(device, DeltaRegion{store.delta_offset(),
                                     store.delta_bytes()});
    log.reset_epoch(/*base_counter=*/1, /*base_iteration=*/10);
    const std::vector<DeltaChunk> chunks{{0, 64}};
    std::vector<std::uint8_t> payload(64, 0x5A);
    PCCHECK_MUST(log.append(11, chunks, payload.data()));
    PCCHECK_MUST(log.append(12, chunks, payload.data()));

    // Rot one byte of the FIRST frame's payload (64B header, then
    // payload): replay would now silently stop before frame 1.
    const Bytes rot_off = store.delta_offset() + 64;
    std::uint8_t byte = 0;
    PCCHECK_MUST(device.read(rot_off, &byte, 1));
    byte ^= 0x01;
    PCCHECK_MUST(device.write(rot_off, &byte, 1));
    PCCHECK_MUST(device.persist(rot_off, 1));
    PCCHECK_MUST(device.fence());

    Scrubber scrubber(store);
    const ScrubReport report = scrubber.scrub_once();
    EXPECT_EQ(report.corrupt, 1u);
    EXPECT_EQ(report.frames_truncated, 1u);

    // The truncation is durable and explicit: replay applies zero
    // frames, and the next scrub pass has nothing left to flag.
    std::vector<std::uint8_t> image = image_for(1);
    const DeltaReplayStats replay = delta_replay(
        device, DeltaRegion{store.delta_offset(), store.delta_bytes()},
        1, 10, image.data(), image.size());
    EXPECT_EQ(replay.frames_applied, 0u);
    const ScrubReport second = scrubber.scrub_once();
    EXPECT_EQ(second.corrupt, 0u);
    EXPECT_EQ(second.frames_truncated, 0u);
}

TEST(ScrubberTest, ScrubsAttachedReplicaStores)
{
    MemStorage device(SlotStore::required_size(kSlots, kState));
    SlotStore store = SlotStore::format(device, kSlots, kState);
    publish(store, device, 1);

    ReplicaStore replica;
    const std::vector<std::uint8_t> held = image_for(7);
    replica.store_chunk(7, 70, held.size(), 0, held.data(), held.size());
    ASSERT_TRUE(replica.seal(7, crc32c(held.data(), held.size())));

    Scrubber scrubber(store);
    scrubber.add_replica_store(&replica);
    const ScrubReport report = scrubber.scrub_once();
    // 1 newest local payload + 1 replica version, both healthy.
    EXPECT_EQ(report.scanned, 2u);
    EXPECT_EQ(report.replica_dropped, 0u);
    EXPECT_TRUE(replica.newest_complete().has_value());
}

TEST(ScrubberTest, BackgroundThreadDetectsAndRepairsRot)
{
    MemStorage device(SlotStore::required_size(kSlots, kState));
    SlotStore store = SlotStore::format(device, kSlots, kState);
    publish(store, device, 1);
    const std::vector<std::uint8_t> newest = publish(store, device, 2);

    Scrubber::Options options;
    options.interval = 0.001;
    Scrubber scrubber(store, options);
    scrubber.set_live_state_provider(
        [&newest](std::uint64_t counter, std::vector<std::uint8_t>* out) {
            if (counter != 2) {
                return false;
            }
            *out = newest;
            return true;
        });
    scrubber.start();
    scrubber.start();  // idempotent
    inject_rot(store, device, 2);
    // Bounded wait for the background loop to find and heal the rot.
    for (int i = 0; i < 2000; ++i) {
        if (scrubber.totals().repaired >= 1) {
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    scrubber.stop();
    scrubber.stop();  // idempotent
    const ScrubReport totals = scrubber.totals();
    EXPECT_GE(totals.corrupt, 1u);
    EXPECT_GE(totals.repaired, 1u);
    EXPECT_FALSE(store.is_quarantined(2 % kSlots));
}

// The full heal cycle under the persistence sanitizer: quarantine
// lifts the slot's lost-update protection, the salvage write follows
// write→persist→fence, and release re-arms — all without a violation.
TEST(ScrubberTest, RepairPathIsPsanClean)
{
    psan::Runtime::global().set_trap(psan::Runtime::Trap::kCollect);
    psan::Runtime::global().take_violations();

    CrashSimStorage inner(SlotStore::required_size(kSlots, kState),
                          StorageKind::kPmemClwb, 1);
    PsanStorage device(inner);
    SlotStore store = SlotStore::format(device, kSlots, kState);
    publish(store, device, 1);
    const std::vector<std::uint8_t> newest = publish(store, device, 2);
    // Rot through the RAW device: the adversary does not run psan.
    const Bytes off = store.slot_offset(2 % kSlots) + 11;
    std::uint8_t byte = 0;
    PCCHECK_MUST(inner.read(off, &byte, 1));
    byte ^= 0x20;
    PCCHECK_MUST(inner.write(off, &byte, 1));
    PCCHECK_MUST(inner.persist(off, 1));
    PCCHECK_MUST(inner.fence());

    Scrubber scrubber(store);
    scrubber.set_live_state_provider(
        [&newest](std::uint64_t counter, std::vector<std::uint8_t>* out) {
            if (counter != 2) {
                return false;
            }
            *out = newest;
            return true;
        });
    const ScrubReport report = scrubber.scrub_once();
    EXPECT_EQ(report.repaired, 1u);
    EXPECT_FALSE(store.is_quarantined(2 % kSlots));

    const auto violations = psan::Runtime::global().take_violations();
    for (const auto& v : violations) {
        ADD_FAILURE() << "psan violation during repair: " << v.to_string();
    }
}

}  // namespace
}  // namespace pccheck
