#include "mc/recovery_enum.h"

#include <algorithm>
#include <map>
#include <optional>
#include <sstream>
#include <vector>

#include "core/recovery_planner.h"
#include "core/slot_store.h"
#include "mc/models.h"
#include "storage/crash_sim.h"
#include "storage/mem_storage.h"
#include "util/check.h"
#include "util/crc32.h"
#include "util/logging.h"

namespace pccheck::mc {
namespace {

/** In-memory stand-in for a quorum peer holding the pristine image. */
class MemorySource final : public RecoverySource {
  public:
    MemorySource(std::uint64_t counter, std::uint64_t iteration,
                 std::vector<std::uint8_t> image)
        : counter_(counter), iteration_(iteration), image_(std::move(image))
    {
    }

    const char* name() const override { return "mem-peer"; }

    std::vector<RecoveryCandidate> survey() override
    {
        RecoveryCandidate candidate;
        candidate.counter = counter_;
        candidate.iteration = iteration_;
        candidate.data_len = image_.size();
        candidate.data_crc = crc32c(image_.data(), image_.size());
        candidate.cost = 1.0;
        candidate.local = false;
        candidate.source_node = 1;
        return {candidate};
    }

    bool fetch(const RecoveryCandidate& candidate,
               std::vector<std::uint8_t>* out) override
    {
        if (candidate.counter != counter_) {
            return false;
        }
        *out = image_;
        return true;
    }

  private:
    std::uint64_t counter_;
    std::uint64_t iteration_;
    std::vector<std::uint8_t> image_;
};

/** What the oracle holds each image to. */
struct RecoveryHistory {
    std::uint64_t last_counter = 0;  ///< K: rotted, then salvaged
    std::uint64_t prev_counter = 0;  ///< K-1: last locally intact
    std::map<std::uint64_t, std::vector<std::uint8_t>> expected;
};

/** Keeps only warnings for its lifetime: every planner run reports
 *  its quarantine and salvage steps, and the oracle runs thousands. */
class QuietLogs {
  public:
    QuietLogs() : saved_(log_level()) { set_log_level(LogLevel::kWarn); }
    ~QuietLogs() { set_log_level(saved_); }
    QuietLogs(const QuietLogs&) = delete;
    QuietLogs& operator=(const QuietLogs&) = delete;

  private:
    LogLevel saved_;
};

/** Run the planner over @p mem; nullopt result stays nullopt. */
std::optional<PlannedRecovery>
planner_recover(MemStorage& mem, RecoverySource* source,
                std::vector<std::uint8_t>* out)
{
    RecoveryPlanner planner(&mem);
    if (source != nullptr) {
        planner.add_source(source);
    }
    return planner.recover(out);
}

/** Run the recovery invariants against one crash image.
 *  @return the violation message, or std::nullopt when consistent. */
std::optional<std::string>
check_image(const RecoveryHistory& history,
            const std::vector<std::uint8_t>& image)
{
    // 1. Local floor + integrity: with no peer, recovery must still
    //    find at least K-1 — salvage never cost us the last good copy.
    {
        MemStorage mem(image.size());
        std::copy(image.begin(), image.end(), mem.raw());
        std::vector<std::uint8_t> buffer;
        const auto local = planner_recover(mem, nullptr, &buffer);
        if (!local.has_value()) {
            std::ostringstream os;
            os << "no locally recoverable state although checkpoint "
               << history.prev_counter << " was durable before salvage";
            return os.str();
        }
        const std::uint64_t counter = local->result.counter;
        if (counter < history.prev_counter) {
            std::ostringstream os;
            os << "local recovery found counter " << counter
               << ", older than the pre-salvage floor "
               << history.prev_counter;
            return os.str();
        }
        const auto expected = history.expected.find(counter);
        if (expected == history.expected.end()) {
            std::ostringstream os;
            os << "local recovery found counter " << counter
               << " which never existed";
            return os.str();
        }
        if (buffer != expected->second) {
            std::ostringstream os;
            os << "local recovery of counter " << counter
               << " returned bytes that do not match that checkpoint";
            return os.str();
        }
    }

    // 2. Fixpoint / re-entrancy: the armored recovery restores K, and
    //    running it AGAIN on the device it just repaired changes
    //    nothing — same counter, byte-identical media.
    {
        MemStorage mem(image.size());
        std::copy(image.begin(), image.end(), mem.raw());
        MemorySource peer(history.last_counter, history.last_counter * 10,
                          history.expected.at(history.last_counter));
        std::vector<std::uint8_t> buffer;
        const auto first = planner_recover(mem, &peer, &buffer);
        if (!first.has_value() ||
            first->result.counter != history.last_counter) {
            std::ostringstream os;
            os << "armored recovery with a live peer did not restore "
               << history.last_counter;
            return os.str();
        }
        if (buffer != history.expected.at(history.last_counter)) {
            return "armored recovery restored the wrong bytes";
        }
        const std::vector<std::uint8_t> media_after_first(
            mem.raw(), mem.raw() + mem.size());
        std::vector<std::uint8_t> buffer2;
        const auto second = planner_recover(mem, &peer, &buffer2);
        if (!second.has_value() ||
            second->result.counter != first->result.counter) {
            return "re-entrant recovery changed the recovered counter";
        }
        if (buffer2 != buffer) {
            return "re-entrant recovery changed the recovered bytes";
        }
        if (!std::equal(media_after_first.begin(), media_after_first.end(),
                        mem.raw())) {
            return "re-entrant recovery mutated an already-repaired "
                   "device (no fixpoint)";
        }
    }
    return std::nullopt;
}

}  // namespace

RecoveryWorkload run_recovery_workload(const RecoveryModelConfig& cfg,
                                       RecoveryMutation mutation)
{
    PCCHECK_CHECK(cfg.checkpoints >= 2);
    constexpr std::uint32_t kSlots = 2;
    const QuietLogs quiet;
    RecoveryWorkload out;
    RecoveryHistory history;
    CrashSimStorage device(SlotStore::required_size(kSlots, cfg.image_len),
                           StorageKind::kPmemClwb, cfg.storage_seed,
                           /*eviction_probability=*/0.5);

    SlotStore store = SlotStore::format(device, kSlots, cfg.image_len);
    std::vector<std::uint8_t> image(cfg.image_len);
    for (int c = 1; c <= cfg.checkpoints; ++c) {
        const auto counter = static_cast<std::uint64_t>(c);
        for (Bytes j = 0; j < cfg.image_len; ++j) {
            image[j] = payload_byte(counter, j);
        }
        history.expected[counter] = image;
        const std::uint32_t slot = counter % kSlots;
        PCCHECK_MUST(store.write_slot(slot, 0, image.data(), image.size()));
        PCCHECK_MUST(store.persist_slot_range(slot, 0, image.size()));
        PCCHECK_MUST(device.fence());
        PCCHECK_MUST(store.publish_pointer(CheckpointPointer{
            counter, slot, cfg.image_len, counter * 10,
            crc32c(image.data(), image.size())}));
    }
    history.last_counter = static_cast<std::uint64_t>(cfg.checkpoints);
    history.prev_counter = history.last_counter - 1;
    const std::uint32_t rotted_slot = history.last_counter % kSlots;
    const std::uint32_t good_slot = history.prev_counter % kSlots;

    // Latent bit rot: durably flip one payload byte of the newest
    // checkpoint. This happened "in the past" — it is part of every
    // crash image, not a crash point itself.
    const Bytes rot_off = store.slot_offset(rotted_slot) + 7;
    std::uint8_t byte = 0;
    PCCHECK_MUST(device.read(rot_off, &byte, 1));
    byte ^= 0x40;
    PCCHECK_MUST(device.write(rot_off, &byte, 1));
    PCCHECK_MUST(device.persist(rot_off, 1));
    PCCHECK_MUST(device.fence());

    // Every storage op from here on is a crash point: the quarantine,
    // salvage, and publish writes of recovery itself.
    SnapshotRecorder recorder(device, &out.trace);
    const std::vector<std::uint8_t>& pristine =
        history.expected[history.last_counter];
    if (mutation == RecoveryMutation::kNone) {
        // The real armored recovery: quarantine, fetch from the peer,
        // salvage into the quarantined slot, publish.
        MemorySource peer(history.last_counter, history.last_counter * 10,
                          pristine);
        RecoveryPlanner planner(&device);
        planner.add_source(&peer);
        std::vector<std::uint8_t> recovered;
        const auto planned = planner.recover(&recovered);
        out.salvaged = planned.has_value() && planned->salvaged;
    } else {
        // THE BUG: salvage writes the fetched image over the slot
        // holding the last locally valid checkpoint. A crash mid-write
        // leaves the rotted newest copy AND a half-written previous
        // copy — no local recovery target at all.
        SlotStore reopened = SlotStore::open(device);
        PCCHECK_MUST(reopened.quarantine_slot(rotted_slot));
        PCCHECK_MUST(reopened.write_slot(good_slot, 0, pristine.data(),
                                         pristine.size()));
        PCCHECK_MUST(
            reopened.persist_slot_range(good_slot, 0, pristine.size()));
        PCCHECK_MUST(device.fence());
        PCCHECK_MUST(reopened.publish_pointer(CheckpointPointer{
            history.last_counter, good_slot, cfg.image_len,
            history.last_counter * 10,
            crc32c(pristine.data(), pristine.size())}));
        PCCHECK_MUST(reopened.release_quarantine(rotted_slot));
        out.salvaged = true;
    }
    out.oracle = [history = std::move(history)](
                     const CrashSnapshot&,
                     const std::vector<std::uint8_t>& crash_image) {
        const QuietLogs quiet_oracle;
        return check_image(history, crash_image);
    };
    return out;
}

}  // namespace pccheck::mc
