#include "mc/delta_enum.h"

#include <algorithm>
#include <map>
#include <optional>
#include <sstream>
#include <vector>

#include "core/recovery.h"
#include "core/slot_store.h"
#include "delta/delta_log.h"
#include "delta/frame_format.h"
#include "mc/models.h"
#include "storage/crash_sim.h"
#include "storage/mem_storage.h"
#include "util/check.h"
#include "util/crc32.h"

namespace pccheck::mc {
namespace {

/** What one workload run promised, for the oracle to hold it to. */
struct DeltaHistory {
    /** (op index, iteration) appended when durability was ACKED —
     *  publish_pointer or append returned. */
    OpMarks floors;
    /** (op index, iteration) appended when a seal/publish BEGAN —
     *  no crash image may recover anything newer. */
    OpMarks ceilings;
    /** Expected full image after each iteration's update. */
    std::map<std::uint64_t, std::vector<std::uint8_t>> expected;
};

/** Head/seq state for the kAckBeforePayload mini appender. */
struct MiniDeltaState {
    Bytes head = 0;
    std::uint64_t seq = 1;
    std::uint64_t base = 0;
};

/**
 * The mutated appender: seals the header (correct checksums) and acks
 * BEFORE the payload is persisted — the WAL ordering bug. The frame
 * comes from DeltaLog's own encoder, so recover_to_buffer replays it.
 */
void mini_append_ack_early(CrashSimStorage& device, const DeltaRegion& region,
                           MiniDeltaState* mini, std::uint64_t iteration,
                           const std::vector<DeltaChunk>& chunks,
                           const std::vector<std::uint8_t>& data,
                           OpMarks* floors, const SnapshotRecorder& recorder)
{
    std::vector<std::uint8_t> payload(delta_wire::payload_bytes(chunks));
    const delta_wire::RawFrameHeader hdr = delta_wire::encode_frame(
        mini->seq, mini->base, iteration, chunks, data.data(),
        payload.data());

    const Bytes frame_off = region.offset + mini->head;
    PCCHECK_MUST(device.write(frame_off, &hdr, sizeof(hdr)));
    PCCHECK_MUST(device.persist(frame_off, sizeof(hdr)));
    PCCHECK_MUST(device.fence());
    // THE BUG: the ack lands here, with the payload still volatile.
    floors->emplace_back(recorder.next_op(), iteration);
    PCCHECK_MUST(device.write(frame_off + sizeof(hdr), payload.data(),
                              payload.size()));
    PCCHECK_MUST(device.persist(frame_off + sizeof(hdr), payload.size()));
    PCCHECK_MUST(device.fence());
    mini->head +=
        align_up(sizeof(hdr) + payload.size(), DeltaLog::kFrameAlign);
    ++mini->seq;
}

/** Run the real recovery on each image and hold it to @p history. */
ImageOracle delta_oracle(DeltaHistory history, Bytes image_len)
{
    return [history = std::move(history), image_len](
               const CrashSnapshot& snap,
               const std::vector<std::uint8_t>& image)
               -> std::optional<std::string> {
        MemStorage mem(image.size());
        std::copy(image.begin(), image.end(), mem.raw());
        std::vector<std::uint8_t> buffer;
        const auto recovered = recover_to_buffer(mem, &buffer);
        const std::uint64_t floor = mark_at(history.floors, snap.op_index);
        const std::uint64_t ceiling =
            mark_at(history.ceilings, snap.op_index);
        if (!recovered.has_value()) {
            if (floor != 0) {
                std::ostringstream os;
                os << "no recoverable state although iteration " << floor
                   << " was durably acked";
                return os.str();
            }
            return std::nullopt;
        }
        if (recovered->iteration < floor) {
            std::ostringstream os;
            os << "recovered iteration " << recovered->iteration
               << " is older than the durably acked " << floor;
            return os.str();
        }
        if (recovered->iteration > ceiling) {
            std::ostringstream os;
            os << "recovered iteration " << recovered->iteration
               << " is newer than the last sealed frame (" << ceiling
               << ")";
            return os.str();
        }
        const auto expected = history.expected.find(recovered->iteration);
        if (expected == history.expected.end()) {
            std::ostringstream os;
            os << "recovered iteration " << recovered->iteration
               << " never existed";
            return os.str();
        }
        if (buffer.size() != image_len ||
            !std::equal(buffer.begin(), buffer.end(),
                        expected->second.begin())) {
            std::ostringstream os;
            os << "recovered image for iteration " << recovered->iteration
               << " does not match the state at that iteration";
            return os.str();
        }
        return std::nullopt;
    };
}

}  // namespace

DeltaWorkload run_delta_workload(const DeltaModelConfig& cfg,
                                 DeltaMutation mutation)
{
    PCCHECK_CHECK(cfg.fulls >= 1 && cfg.chunks >= 1 &&
                  cfg.dirty_per_delta >= 1);
    DeltaWorkload out;
    DeltaHistory history;
    const Bytes image_len =
        static_cast<Bytes>(cfg.chunks) * cfg.chunk_bytes;
    const std::uint32_t slot_count = 2;
    CrashSimStorage device(SlotStore::required_size(slot_count, image_len,
                                                    cfg.delta_log_bytes),
                           StorageKind::kPmemClwb, cfg.storage_seed,
                           /*eviction_probability=*/0.5);

    SlotStore store = SlotStore::format(device, slot_count, image_len,
                                        cfg.delta_log_bytes);
    // Recording starts only after format(): a crash mid-format leaves
    // a device with no valid header, which is the documented
    // reformat-and-restart path, not a consistency violation — same
    // scoping as crash_enum.
    SnapshotRecorder recorder(device, &out.trace);
    const DeltaRegion region{store.delta_offset(), store.delta_bytes()};
    DeltaLog log(device, region);
    MiniDeltaState mini;

    std::vector<std::uint8_t> image(image_len);
    std::uint64_t iter = 0;

    const auto reset_epoch = [&](std::uint64_t counter,
                                 std::uint64_t base_iteration) {
        if (mutation == DeltaMutation::kAckBeforePayload) {
            mini.head = 0;
            mini.seq = 1;
            mini.base = counter;
        } else {
            log.reset_epoch(counter, base_iteration);
        }
    };

    const auto do_deltas = [&] {
        for (int d = 0; d < cfg.deltas_between; ++d) {
            ++iter;
            std::vector<std::uint32_t> touched;
            for (int k = 0; k < cfg.dirty_per_delta; ++k) {
                const auto c = static_cast<std::uint32_t>(
                    (iter * 3 + static_cast<std::uint64_t>(k)) %
                    cfg.chunks);
                if (std::find(touched.begin(), touched.end(), c) ==
                    touched.end()) {
                    touched.push_back(c);
                }
            }
            std::sort(touched.begin(), touched.end());
            std::vector<DeltaChunk> refs;
            std::vector<std::uint8_t> data;
            for (const std::uint32_t c : touched) {
                const Bytes off = static_cast<Bytes>(c) * cfg.chunk_bytes;
                const Bytes len = std::min(cfg.chunk_bytes,
                                           image_len - off);
                for (Bytes j = 0; j < len; ++j) {
                    image[off + j] = payload_byte(iter, off + j);
                }
                refs.push_back(DeltaChunk{off, len});
                data.insert(data.end(), image.begin() +
                                            static_cast<std::ptrdiff_t>(off),
                            image.begin() +
                                static_cast<std::ptrdiff_t>(off + len));
            }
            history.expected[iter] = image;
            history.ceilings.emplace_back(recorder.next_op(), iter);
            if (mutation == DeltaMutation::kAckBeforePayload) {
                mini_append_ack_early(device, region, &mini, iter, refs,
                                      data, &history.floors, recorder);
            } else {
                PCCHECK_MUST(log.append(iter, refs, data.data()));
                history.floors.emplace_back(recorder.next_op(), iter);
            }
            ++out.frames_sealed;
        }
    };

    for (int f = 1; f <= cfg.fulls; ++f) {
        ++iter;
        for (Bytes j = 0; j < image_len; ++j) {
            image[j] = payload_byte(iter, j);
        }
        history.expected[iter] = image;
        const auto counter = static_cast<std::uint64_t>(f);
        const std::uint32_t slot = counter % slot_count;
        history.ceilings.emplace_back(recorder.next_op(), iter);
        PCCHECK_MUST(store.write_slot(slot, 0, image.data(), image_len));
        PCCHECK_MUST(store.persist_slot_range(slot, 0, image_len));
        PCCHECK_MUST(device.fence());
        if (mutation == DeltaMutation::kResetBeforePublish) {
            // THE BUG: the epoch is garbage-collected (head reset, old
            // chain doomed to be overwritten) and new frames append on
            // a base whose pointer record is not durable yet.
            reset_epoch(counter, iter);
            do_deltas();
        }
        PCCHECK_MUST(store.publish_pointer(CheckpointPointer{
            counter, slot, image_len, iter,
            crc32c(image.data(), image.size())}));
        history.floors.emplace_back(recorder.next_op(), iter);
        ++out.fulls_published;
        if (mutation != DeltaMutation::kResetBeforePublish) {
            // Faithful GC gate: reset only after the durable publish.
            reset_epoch(counter, iter);
            do_deltas();
        }
    }
    out.oracle = delta_oracle(std::move(history), image_len);
    return out;
}

}  // namespace pccheck::mc
