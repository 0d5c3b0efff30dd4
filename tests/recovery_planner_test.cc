/**
 * @file
 * Unit tests for the multi-source RecoveryPlanner (docs/RECOVERY.md):
 * candidate ranking, per-candidate verdict reporting, quarantine of a
 * corrupt newest local slot, salvage of a remotely restored image, and
 * the salvage-target policy that refuses to overwrite a live copy.
 * End-to-end storm coverage lives in tests/recovery_storm_test.cc.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/recovery_planner.h"
#include "core/slot_store.h"
#include "faults/fault.h"
#include "faults/faulty_storage.h"
#include "storage/mem_storage.h"
#include "util/check.h"
#include "util/crc32.h"

namespace pccheck {
namespace {

constexpr Bytes kState = 512;
constexpr std::uint32_t kSlots = 2;

std::vector<std::uint8_t>
image_for(std::uint64_t counter)
{
    std::vector<std::uint8_t> image(kState);
    for (Bytes j = 0; j < kState; ++j) {
        image[j] = static_cast<std::uint8_t>((counter * 37 + j) & 0xFF);
    }
    return image;
}

/** Publish @p counter into slot counter%kSlots under the full
 *  write → persist → fence → publish contract. */
std::vector<std::uint8_t>
publish(SlotStore& store, StorageDevice& device, std::uint64_t counter)
{
    const auto image = image_for(counter);
    const std::uint32_t slot = static_cast<std::uint32_t>(counter % kSlots);
    PCCHECK_MUST(store.write_slot(slot, 0, image.data(), image.size()));
    PCCHECK_MUST(store.persist_slot_range(slot, 0, image.size()));
    PCCHECK_MUST(device.fence());
    CheckpointPointer pointer;
    pointer.counter = counter;
    pointer.slot = slot;
    pointer.data_len = image.size();
    pointer.iteration = counter * 10;
    pointer.data_crc = crc32c(image.data(), image.size());
    PCCHECK_MUST(store.publish_pointer(pointer));
    return image;
}

/** In-memory RecoverySource: a map of counter → image, with optional
 *  fetch failure to model a peer dying between survey and transfer. */
class FakeSource final : public RecoverySource {
  public:
    explicit FakeSource(double cost = 5.0) : cost_(cost) {}

    void offer(std::uint64_t counter)
    {
        images_[counter] = image_for(counter);
    }
    void fail_fetches() { serve_ = false; }
    /** Run @p hook at the start of every fetch. */
    void before_fetch(std::function<void()> hook)
    {
        before_fetch_ = std::move(hook);
    }

    const char* name() const override { return "fake"; }

    std::vector<RecoveryCandidate> survey() override
    {
        std::vector<RecoveryCandidate> out;
        for (const auto& [counter, image] : images_) {
            RecoveryCandidate c;
            c.counter = counter;
            c.iteration = counter * 10;
            c.data_len = image.size();
            c.data_crc = crc32c(image.data(), image.size());
            c.cost = cost_;
            c.local = false;
            c.source_node = 1;
            out.push_back(c);
        }
        return out;
    }

    bool fetch(const RecoveryCandidate& candidate,
               std::vector<std::uint8_t>* out) override
    {
        ++fetches_;
        if (before_fetch_) {
            before_fetch_();
        }
        auto it = images_.find(candidate.counter);
        if (!serve_ || it == images_.end()) {
            return false;
        }
        *out = it->second;
        return true;
    }

    int fetches() const { return fetches_; }

  private:
    double cost_;
    bool serve_ = true;
    int fetches_ = 0;
    std::function<void()> before_fetch_;
    std::map<std::uint64_t, std::vector<std::uint8_t>> images_;
};

/** Durably flip one byte inside a slot's payload, bypassing the
 *  publish protocol — modeled bit rot at rest. */
void
rot_slot(StorageDevice& device, const SlotStore& store, std::uint32_t slot)
{
    std::uint8_t byte = 0;
    const Bytes off = store.slot_offset(slot) + 3;
    PCCHECK_MUST(device.read(off, &byte, 1));
    byte ^= 0x10;
    PCCHECK_MUST(device.write(off, &byte, 1));
    PCCHECK_MUST(device.persist(off, 1));
    PCCHECK_MUST(device.fence());
}

TEST(RecoveryPlannerTest, ReportRanksNewestFirstCostBreaksTies)
{
    MemStorage device(SlotStore::required_size(kSlots, kState));
    SlotStore store = SlotStore::format(device, kSlots, kState);
    publish(store, device, 1);
    publish(store, device, 2);

    FakeSource peer(/*cost=*/5.0);
    peer.offer(2);  // same counter as the newest local record
    peer.offer(3);  // strictly newer than anything local

    RecoveryPlanner planner(&device);
    planner.add_source(&peer);
    std::vector<std::uint8_t> out;
    const auto planned = planner.recover(&out);
    ASSERT_TRUE(planned.has_value());
    const std::vector<RecoveryCandidate>& ranked = planned->report;
    ASSERT_EQ(ranked.size(), 4u);
    EXPECT_EQ(ranked[0].counter, 3u);
    EXPECT_FALSE(ranked[0].local);
    // Counter tie: the free local read outranks the costed fetch.
    EXPECT_EQ(ranked[1].counter, 2u);
    EXPECT_TRUE(ranked[1].local);
    EXPECT_EQ(ranked[2].counter, 2u);
    EXPECT_FALSE(ranked[2].local);
    EXPECT_EQ(ranked[3].counter, 1u);
    EXPECT_STREQ(ranked[2].source, "fake");
    EXPECT_STREQ(ranked[1].source, "local");
    EXPECT_EQ(ranked[0].verdict, CandidateVerdict::kValid);
}

TEST(RecoveryPlannerTest, RecoversNewestLocalAndMarksRestStale)
{
    MemStorage device(SlotStore::required_size(kSlots, kState));
    SlotStore store = SlotStore::format(device, kSlots, kState);
    publish(store, device, 1);
    const auto newest = publish(store, device, 2);

    RecoveryPlanner planner(&device);
    std::vector<std::uint8_t> out;
    const auto planned = planner.recover(&out);
    ASSERT_TRUE(planned.has_value());
    EXPECT_EQ(planned->result.counter, 2u);
    EXPECT_EQ(out, newest);
    EXPECT_FALSE(planned->from_replica);
    EXPECT_EQ(planned->slots_quarantined, 0u);
    ASSERT_EQ(planned->report.size(), 2u);
    EXPECT_EQ(planned->report[0].verdict, CandidateVerdict::kValid);
    EXPECT_EQ(planned->report[1].verdict, CandidateVerdict::kStale);
}

TEST(RecoveryPlannerTest, QuarantinesTornNewestAndFallsBack)
{
    MemStorage device(SlotStore::required_size(kSlots, kState));
    SlotStore store = SlotStore::format(device, kSlots, kState);
    const auto older = publish(store, device, 1);
    publish(store, device, 2);
    rot_slot(device, store, 2 % kSlots);

    RecoveryPlanner planner(&device);
    std::vector<std::uint8_t> out;
    const auto planned = planner.recover(&out);
    ASSERT_TRUE(planned.has_value());
    EXPECT_EQ(planned->result.counter, 1u);
    EXPECT_EQ(out, older);
    EXPECT_EQ(planned->slots_quarantined, 1u);
    ASSERT_EQ(planned->report.size(), 2u);
    EXPECT_EQ(planned->report[0].verdict, CandidateVerdict::kTorn);
    EXPECT_EQ(planned->report[1].verdict, CandidateVerdict::kValid);

    const SlotStore reopened = SlotStore::open(device);
    EXPECT_TRUE(reopened.is_quarantined(2 % kSlots));
}

TEST(RecoveryPlannerTest, SalvagesRemoteImageIntoQuarantinedSlot)
{
    MemStorage device(SlotStore::required_size(kSlots, kState));
    SlotStore store = SlotStore::format(device, kSlots, kState);
    publish(store, device, 1);
    publish(store, device, 2);
    rot_slot(device, store, 2 % kSlots);

    FakeSource peer;
    peer.offer(2);
    RecoveryPlanner planner(&device);
    planner.add_source(&peer);
    std::vector<std::uint8_t> out;
    const auto planned = planner.recover(&out);
    ASSERT_TRUE(planned.has_value());
    // Torn local copy of 2 loses; the peer's copy of 2 wins and is
    // salvaged back into the slot its quarantine freed up.
    EXPECT_EQ(planned->result.counter, 2u);
    EXPECT_EQ(out, image_for(2));
    EXPECT_TRUE(planned->from_replica);
    EXPECT_EQ(planned->source_node, 1);
    EXPECT_TRUE(planned->salvaged);
    EXPECT_EQ(planned->slots_quarantined, 1u);

    // The salvage released the quarantine and re-published locally:
    // a planner with no sources now recovers the same bytes.
    const SlotStore reopened = SlotStore::open(device);
    EXPECT_TRUE(reopened.quarantined_slots().empty());
    RecoveryPlanner local_only(&device);
    std::vector<std::uint8_t> local_out;
    const auto relocal = local_only.recover(&local_out);
    ASSERT_TRUE(relocal.has_value());
    EXPECT_EQ(relocal->result.counter, 2u);
    EXPECT_EQ(local_out, image_for(2));
    EXPECT_FALSE(relocal->from_replica);
}

TEST(RecoveryPlannerTest, RefusesSalvageThatWouldRiskALiveCopy)
{
    MemStorage device(SlotStore::required_size(kSlots, kState));
    SlotStore store = SlotStore::format(device, kSlots, kState);
    publish(store, device, 1);
    publish(store, device, 2);

    // Both slots hold live, CRC-valid copies; the peer has something
    // newer. Salvaging counter 3 would have to overwrite one of them,
    // so the planner must restore from the peer WITHOUT salvaging.
    FakeSource peer;
    peer.offer(3);
    RecoveryPlanner planner(&device);
    planner.add_source(&peer);
    std::vector<std::uint8_t> out;
    const auto planned = planner.recover(&out);
    ASSERT_TRUE(planned.has_value());
    EXPECT_EQ(planned->result.counter, 3u);
    EXPECT_EQ(out, image_for(3));
    EXPECT_TRUE(planned->from_replica);
    EXPECT_FALSE(planned->salvaged);
    EXPECT_EQ(planned->slots_quarantined, 0u);

    // Local state is untouched: both copies still recoverable.
    const SlotStore reopened = SlotStore::open(device);
    EXPECT_TRUE(reopened.quarantined_slots().empty());
    RecoveryPlanner local_only(&device);
    std::vector<std::uint8_t> local_out;
    const auto relocal = local_only.recover(&local_out);
    ASSERT_TRUE(relocal.has_value());
    EXPECT_EQ(relocal->result.counter, 2u);
    EXPECT_EQ(local_out, image_for(2));
}

// Regression: the salvage re-reads the pointer records, and a read
// that lies there hides a record. Both slots hold live copies (1 and
// 2) and the peer holds 3, so the survey finds no slot to spare. The
// re-read of record 0, counter 2's, is made unreadable: the salvage
// must still see slot 0 as referenced and refuse, never overwrite the
// newest local copy with 3's bytes.
TEST(RecoveryPlannerTest, SalvageKeepsSlotsTheSurveySawReferenced)
{
    auto injector = std::make_shared<FaultInjector>(1);
    FaultyStorage device(std::make_unique<MemStorage>(
                             SlotStore::required_size(kSlots, kState)),
                         injector);
    SlotStore store = SlotStore::format(device, kSlots, kState);
    publish(store, device, 1);
    publish(store, device, 2);
    ASSERT_EQ(2 % kSlots, 0u);  // counter 2: record 0, slot 0

    // The peer's fetch arms one unreadable read at the next storage
    // op: the salvage's first pointer-record read.
    FakeSource peer;
    peer.offer(3);
    peer.before_fetch([&injector] {
        injector->set_plan(FaultPlan::parse(
            "storage.read:unreadable@nth=" +
            std::to_string(injector->ops() + 1) + ",limit=1"));
    });
    RecoveryPlanner planner(&device);
    planner.add_source(&peer);
    std::vector<std::uint8_t> out;
    const auto planned = planner.recover(&out);
    ASSERT_TRUE(planned.has_value());
    EXPECT_EQ(injector->injected(), 1u);
    EXPECT_EQ(planned->result.counter, 3u);
    EXPECT_EQ(out, image_for(3));
    EXPECT_TRUE(planned->from_replica);
    EXPECT_FALSE(planned->salvaged);
    EXPECT_EQ(planned->slots_quarantined, 0u);

    // Both local copies survive: the local floor is still counter 2.
    injector->set_plan(FaultPlan());
    const SlotStore reopened = SlotStore::open(device);
    EXPECT_TRUE(reopened.quarantined_slots().empty());
    RecoveryPlanner local_only(&device);
    std::vector<std::uint8_t> local_out;
    const auto relocal = local_only.recover(&local_out);
    ASSERT_TRUE(relocal.has_value());
    EXPECT_EQ(relocal->result.counter, 2u);
    EXPECT_EQ(local_out, image_for(2));
}

// Regression: a quarantined slot still referenced by a record NEWER
// than the salvaged counter must not be the preferred target. Here
// counter 3's record (torn, quarantined slot 1) survives; salvaging
// counter 2 into slot 1 would leave that newer record naming bytes it
// does not describe, and the next local recovery would re-quarantine
// the slot holding the only valid copy. The planner must instead
// overwrite counter 2's own torn slot.
TEST(RecoveryPlannerTest, SalvageAvoidsQuarantinedSlotWithNewerRecord)
{
    MemStorage device(SlotStore::required_size(kSlots, kState));
    SlotStore store = SlotStore::format(device, kSlots, kState);
    publish(store, device, 1);  // slot 1 (record later replaced by 3)
    publish(store, device, 2);  // slot 0
    publish(store, device, 3);  // slot 1
    rot_slot(device, store, 0);
    rot_slot(device, store, 1);

    FakeSource peer;
    peer.offer(2);  // only counter 2 is restorable anywhere
    RecoveryPlanner planner(&device);
    planner.add_source(&peer);
    std::vector<std::uint8_t> out;
    const auto planned = planner.recover(&out);
    ASSERT_TRUE(planned.has_value());
    EXPECT_EQ(planned->result.counter, 2u);
    EXPECT_EQ(out, image_for(2));
    EXPECT_TRUE(planned->salvaged);
    EXPECT_EQ(planned->slots_quarantined, 1u);  // counter 3's slot

    // The salvage landed in counter 2's own slot (0); counter 3's
    // record and quarantined slot 1 are untouched.
    const SlotStore reopened = SlotStore::open(device);
    EXPECT_TRUE(reopened.is_quarantined(1));
    EXPECT_FALSE(reopened.is_quarantined(0));

    // Local-only recovery now works and is a fixpoint: counter 2 is
    // served, nothing new is quarantined.
    RecoveryPlanner local_only(&device);
    std::vector<std::uint8_t> local_out;
    const auto relocal = local_only.recover(&local_out);
    ASSERT_TRUE(relocal.has_value());
    EXPECT_EQ(relocal->result.counter, 2u);
    EXPECT_EQ(local_out, image_for(2));
    EXPECT_FALSE(relocal->from_replica);
    EXPECT_EQ(relocal->slots_quarantined, 0u);
}

// Regression: when the ONLY possible target is a quarantined slot
// referenced by a newer record, the stale record must be durably
// invalidated before the salvage write — otherwise it survives as
// "newest local", CRC-fails on the next recovery, and hides the
// salvaged copy behind a fresh quarantine.
TEST(RecoveryPlannerTest, LastResortSalvageRetiresTheStaleNewerRecord)
{
    MemStorage device(SlotStore::required_size(kSlots, kState));
    SlotStore store = SlotStore::format(device, kSlots, kState);
    publish(store, device, 4);  // slot 0
    publish(store, device, 5);  // slot 1
    rot_slot(device, store, 0);
    rot_slot(device, store, 1);

    FakeSource peer;
    peer.offer(2);  // older than every local record
    RecoveryPlanner planner(&device);
    planner.add_source(&peer);
    std::vector<std::uint8_t> out;
    const auto planned = planner.recover(&out);
    ASSERT_TRUE(planned.has_value());
    EXPECT_EQ(planned->result.counter, 2u);
    EXPECT_EQ(out, image_for(2));
    EXPECT_TRUE(planned->from_replica);
    EXPECT_TRUE(planned->salvaged);

    // Counter 5's record is retired, its slot repaired and released:
    // no quarantine survives, and local-only recovery reaches the
    // salvaged counter 2 as a fixpoint instead of dying on a stale
    // newer record.
    const SlotStore reopened = SlotStore::open(device);
    EXPECT_TRUE(reopened.quarantined_slots().empty());
    RecoveryPlanner local_only(&device);
    std::vector<std::uint8_t> local_out;
    const auto relocal = local_only.recover(&local_out);
    ASSERT_TRUE(relocal.has_value());
    EXPECT_EQ(relocal->result.counter, 2u);
    EXPECT_EQ(local_out, image_for(2));
    EXPECT_FALSE(relocal->from_replica);
    EXPECT_EQ(relocal->slots_quarantined, 0u);
    ASSERT_FALSE(relocal->report.empty());
    EXPECT_EQ(relocal->report[0].counter, 2u);
}

TEST(RecoveryPlannerTest, FailedFetchFallsBackToLocal)
{
    MemStorage device(SlotStore::required_size(kSlots, kState));
    SlotStore store = SlotStore::format(device, kSlots, kState);
    const auto newest = publish(store, device, 2);

    FakeSource peer;
    peer.offer(5);
    peer.fail_fetches();  // peer dies between survey and transfer
    RecoveryPlanner planner(&device);
    planner.add_source(&peer);
    std::vector<std::uint8_t> out;
    const auto planned = planner.recover(&out);
    ASSERT_TRUE(planned.has_value());
    EXPECT_EQ(planned->result.counter, 2u);
    EXPECT_EQ(out, newest);
    EXPECT_EQ(planned->report[0].verdict, CandidateVerdict::kUnreadable);
    EXPECT_EQ(planned->report[1].verdict, CandidateVerdict::kValid);
    EXPECT_EQ(peer.fetches(), 1);
}

TEST(RecoveryPlannerTest, EmptyArenaAndNoSourcesYieldsNullopt)
{
    MemStorage device(SlotStore::required_size(kSlots, kState));
    SlotStore::format(device, kSlots, kState);
    RecoveryPlanner planner(&device);
    std::vector<std::uint8_t> out;
    EXPECT_FALSE(planner.recover(&out).has_value());

    // Unformatted media is "unreadable before we even rank", not fatal.
    MemStorage blank(SlotStore::required_size(kSlots, kState));
    RecoveryPlanner blank_planner(&blank);
    EXPECT_FALSE(blank_planner.recover(&out).has_value());
}

}  // namespace
}  // namespace pccheck
