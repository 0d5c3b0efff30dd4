#include "core/recovery_planner.h"

#include <algorithm>
#include <cstring>
#include <unordered_set>

#include "delta/delta_log.h"
#include "psan/psan.h"
#include "util/check.h"
#include "util/crc32.h"
#include "util/logging.h"
#include "util/metrics.h"

namespace pccheck {
namespace {

/** Internal ranking entry: candidate + the source that serves it
 *  (nullptr = the built-in local arena). */
struct Ranked {
    RecoveryCandidate candidate;
    RecoverySource* source = nullptr;
};

/**
 * The survey: open the local arena (into @p store; left empty when
 * there is no device or its header is unusable), list its pointer
 * records and every source's images, and rank them newest counter
 * first, cheapest source on ties.
 */
std::vector<Ranked>
survey(StorageDevice* local_device,
       const std::vector<RecoverySource*>& sources,
       std::optional<SlotStore>* store)
{
    if (local_device != nullptr) {
        try {
            store->emplace(SlotStore::open(*local_device));
        } catch (const FatalError&) {
            // Unformatted / wiped / truncated media: every local
            // candidate is unreadable before we even rank.
        }
    }
    std::vector<Ranked> entries;
    if (store->has_value()) {
        for (const CheckpointPointer& pointer :
             (*store)->candidate_pointers()) {
            RecoveryCandidate candidate;
            candidate.counter = pointer.counter;
            candidate.iteration = pointer.iteration;
            candidate.data_len = pointer.data_len;
            candidate.data_crc = pointer.data_crc;
            candidate.cost = 0.0;  // local reads beat any network fetch
            candidate.local = true;
            candidate.slot = pointer.slot;
            candidate.source = "local";
            entries.push_back(Ranked{candidate, nullptr});
        }
    }
    for (RecoverySource* source : sources) {
        for (RecoveryCandidate& c : source->survey()) {
            c.source = source->name();
            entries.push_back(Ranked{c, source});
        }
    }
    std::sort(entries.begin(), entries.end(),
              [](const Ranked& a, const Ranked& b) {
                  if (a.candidate.counter != b.candidate.counter) {
                      return a.candidate.counter > b.candidate.counter;
                  }
                  return a.candidate.cost < b.candidate.cost;
              });
    return entries;
}

}  // namespace

const char*
to_string(CandidateVerdict verdict)
{
    switch (verdict) {
      case CandidateVerdict::kUntried:
        return "untried";
      case CandidateVerdict::kValid:
        return "valid";
      case CandidateVerdict::kTorn:
        return "torn";
      case CandidateVerdict::kUnreadable:
        return "unreadable";
      case CandidateVerdict::kStale:
        return "stale";
    }
    return "?";
}

RecoveryPlanner::RecoveryPlanner(StorageDevice* local_device)
    : RecoveryPlanner(local_device, Options())
{
}

RecoveryPlanner::RecoveryPlanner(StorageDevice* local_device,
                                 Options options, const Clock& clock)
    : local_device_(local_device), options_(options), clock_(&clock)
{
}

void
RecoveryPlanner::add_source(RecoverySource* source)
{
    PCCHECK_CHECK(source != nullptr);
    sources_.push_back(source);
}

bool
RecoveryPlanner::salvage_local(SlotStore& store,
                               const std::vector<std::uint8_t>& image,
                               const RecoveryCandidate& chosen,
                               PlannedRecovery* planned)
{
    psan::ScopeLabel psan_label("recovery.salvage");
    if (image.size() > store.slot_size()) {
        return false;  // local arena cannot hold this checkpoint
    }
    // Pick a target slot whose loss cannot regress the local floor:
    // a quarantined slot no NEWER-counter record references first (the
    // salvage doubles as its repair), then a slot no surviving pointer
    // record references, then the slot referenced by @p chosen's OWN
    // counter — the corrupt copy this salvage replaces, so a torn
    // write there changes nothing recovery could have used. Never a
    // live older record's slot: a crash mid-write would destroy the
    // last good local copy while the rotten one still fails CRC (the
    // exact failure mode the MC recovery-crash mutation models).
    //
    // A quarantined slot still referenced by a record NEWER than
    // @p chosen is only used as a last resort, and only after that
    // stale record is durably invalidated: salvaging an older image
    // under a surviving newer record would make the next recovery
    // CRC-fail that record as "newest local", re-quarantine the slot
    // now holding the only valid local copy, and hide the salvaged
    // record behind the quarantine — local recovery dead despite a
    // good local copy.
    //
    // The records below are a second read, and a read that lies hides
    // a record, so a slot the survey saw referenced stays referenced.
    std::unordered_set<std::uint32_t> referenced;
    for (const RecoveryCandidate& candidate : planned->report) {
        if (candidate.local) {
            referenced.insert(candidate.slot);
        }
    }
    std::unordered_set<std::uint32_t> newer_referenced;
    std::optional<std::uint32_t> same_counter_slot;
    const auto records =
        store.candidate_pointers(/*include_quarantined=*/true);
    for (const CheckpointPointer& pointer : records) {
        referenced.insert(pointer.slot);
        if (pointer.counter == chosen.counter) {
            same_counter_slot = pointer.slot;
        }
        if (pointer.counter > chosen.counter) {
            newer_referenced.insert(pointer.slot);
        }
    }
    std::optional<std::uint32_t> target;
    const std::vector<std::uint32_t> quarantined =
        store.quarantined_slots();
    for (std::uint32_t slot : quarantined) {
        if (!newer_referenced.contains(slot)) {
            target = slot;
            break;
        }
    }
    if (!target.has_value()) {
        for (std::uint32_t slot = 0; slot < store.slot_count(); ++slot) {
            if (!referenced.contains(slot)) {
                target = slot;
                break;
            }
        }
    }
    if (!target.has_value() && same_counter_slot.has_value() &&
        !newer_referenced.contains(*same_counter_slot)) {
        target = same_counter_slot;
    }
    if (!target.has_value() && !quarantined.empty()) {
        // Last resort: only newer-referenced quarantined slots remain.
        // Retire the stale record(s) first — they name corrupt bytes
        // this salvage is about to overwrite, so invalidating them
        // loses nothing recoverable and makes the slot unreferenced
        // before the write lands. Crash analysis: after the durable
        // invalidation the local arena holds at most the other (older)
        // record, exactly what it effectively held already.
        target = quarantined.front();
        for (const CheckpointPointer& pointer : records) {
            if (pointer.slot == *target &&
                pointer.counter > chosen.counter &&
                !store.invalidate_record(pointer.counter).ok()) {
                return false;  // stale record survives; don't salvage
            }
        }
    }
    if (!target.has_value()) {
        return false;  // every slot holds a live copy; don't risk one
    }
    // The records above were re-read, and a read that lies hides a
    // record: a target this recovery did not quarantine may still hold
    // the last good local copy. Hold it in quarantine until the new
    // record is durable, so a crash or a failed step in between leaves
    // an accounted loss, never a silent one.
    const bool hold = !store.is_quarantined(*target);
    if (hold) {
        if (!store.quarantine_slot(*target).ok()) {
            return false;
        }
        ++planned->slots_quarantined;  // until released below
    }
    // Full persist contract, then verify the media actually holds the
    // bytes before the record (or the quarantine release) trusts it.
    if (!store.repair_slot(*target, image.data(), image.size()).ok()) {
        return false;
    }
    std::vector<std::uint8_t> readback(image.size());
    if (!store.read_slot(*target, 0, readback.data(), readback.size())
             .ok()) {
        return false;
    }
    if (std::memcmp(readback.data(), image.data(), image.size()) != 0) {
        return false;  // media rejected the repair; leave quarantine on
    }
    if (!hold && !store.release_quarantine(*target).ok()) {
        return false;
    }
    CheckpointPointer pointer;
    pointer.counter = chosen.counter;
    pointer.slot = *target;
    pointer.data_len = image.size();
    pointer.iteration = chosen.iteration;
    pointer.data_crc = chosen.data_crc != 0
                           ? chosen.data_crc
                           : crc32c(image.data(), image.size());
    if (!store.publish_pointer(pointer).ok()) {
        return false;
    }
    if (hold) {
        if (!store.release_quarantine(*target).ok()) {
            return false;
        }
        --planned->slots_quarantined;
    }
    LOG_INFO("pccheck: salvaged checkpoint counter "
             << chosen.counter << " into local slot " << *target);
    MetricsRegistry::global().counter("pccheck.recovery.salvages").add();
    planned->salvaged = true;
    return true;
}

std::optional<PlannedRecovery>
RecoveryPlanner::recover(std::vector<std::uint8_t>* out)
{
    PCCHECK_CHECK(out != nullptr);
    Stopwatch watch(*clock_);
    // V5: everything recovery reads must be durable media content; the
    // salvage/repair writes below re-earn durability explicitly.
    psan::RecoveryScope psan_scope;
    psan::ScopeLabel psan_label("recovery.planner");
    MetricsRegistry::global().counter("pccheck.recovery.planner_runs").add();

    std::optional<SlotStore> store;
    const std::vector<Ranked> entries =
        survey(local_device_, sources_, &store);

    PlannedRecovery planned;
    planned.report.reserve(entries.size());
    for (const Ranked& entry : entries) {
        planned.report.push_back(entry.candidate);
    }

    // Newest-first, falling back source by source. The first local
    // candidate is the newest record the arena still claims: if ITS
    // payload is bad, that is latent corruption worth quarantining.
    // Older local candidates that fail CRC were usually recycled under
    // a stale record — a healthy condition, classified kStale.
    bool newest_local_tried = false;
    std::optional<std::size_t> winner;
    for (std::size_t i = 0; i < entries.size(); ++i) {
        RecoveryCandidate& candidate = planned.report[i];
        RecoverySource* source = entries[i].source;
        const bool is_newest_local = candidate.local && !newest_local_tried;
        if (candidate.local) {
            newest_local_tried = true;
        }
        if (candidate.local) {
            out->resize(candidate.data_len);
            if (!store
                     ->read_slot(candidate.slot, 0, out->data(),
                                 candidate.data_len)
                     .ok()) {
                candidate.verdict = CandidateVerdict::kUnreadable;
                // A media error is never a legitimate recycle.
                if (options_.quarantine &&
                    store->quarantine_slot(candidate.slot).ok()) {
                    ++planned.slots_quarantined;
                    MetricsRegistry::global()
                        .counter("pccheck.recovery.quarantined")
                        .add();
                }
                continue;
            }
        } else {
            if (!source->fetch(candidate, out)) {
                candidate.verdict = CandidateVerdict::kUnreadable;
                continue;
            }
        }
        if (candidate.data_crc != 0 &&
            crc32c(out->data(), out->size()) != candidate.data_crc) {
            if (candidate.local && !is_newest_local) {
                candidate.verdict = CandidateVerdict::kStale;
                continue;
            }
            candidate.verdict = CandidateVerdict::kTorn;
            if (candidate.local && options_.quarantine &&
                store->quarantine_slot(candidate.slot).ok()) {
                ++planned.slots_quarantined;
                MetricsRegistry::global()
                    .counter("pccheck.recovery.quarantined")
                    .add();
            }
            continue;
        }
        candidate.verdict = CandidateVerdict::kValid;
        winner = i;
        break;
    }
    if (!winner.has_value()) {
        return std::nullopt;
    }

    const RecoveryCandidate& chosen = planned.report[*winner];
    // Everything strictly older than the winner is superseded.
    for (std::size_t i = *winner + 1; i < planned.report.size(); ++i) {
        if (planned.report[i].verdict == CandidateVerdict::kUntried &&
            planned.report[i].counter < chosen.counter) {
            planned.report[i].verdict = CandidateVerdict::kStale;
        }
    }
    planned.from_replica = !chosen.local;
    planned.source_node = chosen.local ? -1 : chosen.source_node;
    planned.result.counter = chosen.counter;
    planned.result.iteration = chosen.iteration;
    planned.result.data_len = chosen.data_len;
    planned.result.data_crc = chosen.data_crc;

    if (planned.from_replica) {
        MetricsRegistry::global()
            .counter("pccheck.recovery.replica_restores")
            .add();
        if (options_.salvage && store.has_value()) {
            salvage_local(*store, *out, chosen, &planned);
        }
    }

    // Replay the local delta chain on top of the chosen base. The
    // chain validates its base counter itself, so a base restored from
    // a replica still picks up frames sealed against the same counter.
    planned.result.delta_region =
        store.has_value() && store->delta_bytes() > 0;
    if (planned.result.delta_region) {
        const DeltaRegion region{store->delta_offset(),
                                 store->delta_bytes()};
        const DeltaReplayStats replay =
            delta_replay(*local_device_, region, chosen.counter,
                         chosen.iteration, out->data(), out->size());
        if (replay.frames_applied > 0) {
            planned.result.iteration = replay.iteration;
        }
        planned.result.delta_frames = replay.frames_applied;
        planned.result.delta_seq = replay.last_seq;
    }
    planned.result.load_time = watch.elapsed();
    return planned;
}

}  // namespace pccheck
