#include "mc/delta_enum.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
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
#include "util/rng.h"

namespace pccheck::mc {
namespace {

/** Everything one deterministic workload run leaves behind. */
struct DeltaTrace {
    std::unique_ptr<CrashSimStorage> device;
    std::vector<CrashSnapshot> snaps;
    /** (op index, iteration) appended when durability was ACKED —
     *  publish_pointer or append returned. */
    std::vector<std::pair<std::size_t, std::uint64_t>> floors;
    /** (op index, iteration) appended when a seal/publish BEGAN —
     *  no crash image may recover anything newer. */
    std::vector<std::pair<std::size_t, std::uint64_t>> ceilings;
    /** Expected full image after each iteration's update. */
    std::map<std::uint64_t, std::vector<std::uint8_t>> expected;
    std::size_t frames_sealed = 0;
    std::size_t fulls_published = 0;
};

std::uint64_t bound_at(
    const std::vector<std::pair<std::size_t, std::uint64_t>>& marks,
    std::size_t op_index)
{
    std::uint64_t bound = 0;
    for (const auto& [op, iteration] : marks) {
        if (op <= op_index) {
            bound = std::max(bound, iteration);
        }
    }
    return bound;
}

/** Head/seq state for the kAckBeforePayload mini appender. */
struct MiniDeltaState {
    Bytes head = 0;
    std::uint64_t seq = 1;
    std::uint64_t base = 0;
};

/**
 * The mutated appender: seals the header (correct checksums) and acks
 * BEFORE the payload is persisted — the WAL ordering bug. Layout is
 * byte-identical to DeltaLog's so recover_to_buffer replays it.
 */
void mini_append_ack_early(CrashSimStorage& device, const DeltaRegion& region,
                           MiniDeltaState* mini, std::uint64_t iteration,
                           const std::vector<DeltaChunk>& chunks,
                           const std::vector<std::uint8_t>& data,
                           DeltaTrace* trace, const std::size_t* op_counter)
{
    using delta_wire::RawChunkRef;
    using delta_wire::RawFrameHeader;
    const auto chunk_count = static_cast<std::uint32_t>(chunks.size());
    const Bytes payload_len =
        static_cast<Bytes>(chunk_count) * sizeof(RawChunkRef) + data.size();
    std::vector<std::uint8_t> payload(payload_len);
    Bytes off = 0;
    for (const DeltaChunk& chunk : chunks) {
        const RawChunkRef ref{chunk.offset, chunk.len};
        std::memcpy(payload.data() + off, &ref, sizeof(ref));
        off += sizeof(ref);
    }
    std::memcpy(payload.data() + off, data.data(), data.size());

    RawFrameHeader hdr{};
    hdr.magic = delta_wire::kFrameMagic;
    hdr.seq = mini->seq;
    hdr.base_counter = mini->base;
    hdr.iteration = iteration;
    hdr.payload_len = payload_len;
    hdr.chunk_count = chunk_count;
    hdr.payload_crc = crc32c(payload.data(), payload.size());
    hdr.header_crc = delta_wire::header_crc(hdr);

    const Bytes frame_off = region.offset + mini->head;
    PCCHECK_MUST(device.write(frame_off, &hdr, sizeof(hdr)));
    PCCHECK_MUST(device.persist(frame_off, sizeof(hdr)));
    PCCHECK_MUST(device.fence());
    // THE BUG: the ack lands here, with the payload still volatile.
    trace->floors.emplace_back(*op_counter, iteration);
    PCCHECK_MUST(device.write(frame_off + sizeof(hdr), payload.data(),
                              payload.size()));
    PCCHECK_MUST(device.persist(frame_off + sizeof(hdr), payload.size()));
    PCCHECK_MUST(device.fence());
    mini->head += DeltaLog::frame_bytes(chunk_count, data.size());
    ++mini->seq;
}

DeltaTrace run_model(const DeltaModelConfig& cfg, DeltaMutation mutation)
{
    PCCHECK_CHECK(cfg.fulls >= 1 && cfg.chunks >= 1 &&
                  cfg.dirty_per_delta >= 1);
    DeltaTrace trace;
    const Bytes image_len =
        static_cast<Bytes>(cfg.chunks) * cfg.chunk_bytes;
    const std::uint32_t slot_count = 2;
    trace.device = std::make_unique<CrashSimStorage>(
        SlotStore::required_size(slot_count, image_len,
                                 cfg.delta_log_bytes),
        StorageKind::kPmemClwb, cfg.storage_seed,
        /*eviction_probability=*/0.5);
    CrashSimStorage& device = *trace.device;

    std::size_t op_counter = 0;
    // The hook goes in only after format() below: a crash mid-format
    // leaves a device recovery rejects wholesale (FatalError from
    // SlotStore::open), which is the documented reformat-and-restart
    // path, not a consistency violation — same scoping as crash_enum.
    const auto snapshot_hook = [&trace, &device,
                                &op_counter](const StorageOp&) {
        const std::size_t idx = op_counter++;
        CrashSnapshot snap;
        snap.op_index = idx;
        snap.durable = device.crash_image_keeping({});
        snap.lines = device.unflushed_lines();
        const Bytes line_bytes = device.line_size();
        const Bytes device_size = device.size();
        for (Bytes line : snap.lines) {
            const Bytes start = line * line_bytes;
            const Bytes len = std::min(line_bytes, device_size - start);
            std::vector<std::uint8_t> buf(len);
            PCCHECK_MUST(device.read(start, buf.data(), len));
            snap.line_data.push_back(std::move(buf));
        }
        trace.snaps.push_back(std::move(snap));
    };

    SlotStore store = SlotStore::format(device, slot_count, image_len,
                                        cfg.delta_log_bytes);
    device.set_post_op_hook(snapshot_hook);
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
            trace.expected[iter] = image;
            trace.ceilings.emplace_back(op_counter, iter);
            if (mutation == DeltaMutation::kAckBeforePayload) {
                mini_append_ack_early(device, region, &mini, iter, refs,
                                      data, &trace, &op_counter);
            } else {
                PCCHECK_MUST(log.append(iter, refs, data.data()));
                trace.floors.emplace_back(op_counter, iter);
            }
            ++trace.frames_sealed;
        }
    };

    for (int f = 1; f <= cfg.fulls; ++f) {
        ++iter;
        for (Bytes j = 0; j < image_len; ++j) {
            image[j] = payload_byte(iter, j);
        }
        trace.expected[iter] = image;
        const auto counter = static_cast<std::uint64_t>(f);
        const std::uint32_t slot = counter % slot_count;
        trace.ceilings.emplace_back(op_counter, iter);
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
        trace.floors.emplace_back(op_counter, iter);
        ++trace.fulls_published;
        if (mutation != DeltaMutation::kResetBeforePublish) {
            // Faithful GC gate: reset only after the durable publish.
            reset_epoch(counter, iter);
            do_deltas();
        }
    }
    device.set_post_op_hook(nullptr);
    return trace;
}

/** Materialize one crash image and run the real recovery against it.
 *  @return the violation message, or std::nullopt when consistent. */
std::optional<std::string> check_image(const DeltaTrace& trace,
                                       const CrashSnapshot& snap,
                                       std::uint64_t mask, Bytes image_len)
{
    std::vector<std::uint8_t> image = snap.durable;
    const Bytes line_size = trace.device->line_size();
    for (std::size_t i = 0; i < snap.lines.size(); ++i) {
        if (((mask >> i) & 1u) == 0) {
            continue;
        }
        const Bytes start = snap.lines[i] * line_size;
        std::copy(snap.line_data[i].begin(), snap.line_data[i].end(),
                  image.begin() + static_cast<std::ptrdiff_t>(start));
    }
    MemStorage mem(image.size());
    std::copy(image.begin(), image.end(), mem.raw());
    std::vector<std::uint8_t> buffer;
    std::optional<RecoveryResult> recovered;
    try {
        recovered = recover_to_buffer(mem, &buffer);
    } catch (const FatalError& e) {
        return std::string("recovery raised: ") + e.what();
    }

    const std::uint64_t floor = bound_at(trace.floors, snap.op_index);
    const std::uint64_t ceiling = bound_at(trace.ceilings, snap.op_index);
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
           << " is newer than the last sealed frame (" << ceiling << ")";
        return os.str();
    }
    const auto expected = trace.expected.find(recovered->iteration);
    if (expected == trace.expected.end()) {
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
}

/** The masks to try at one crash point. */
std::vector<std::uint64_t> masks_for(std::size_t num_lines,
                                     std::size_t op_index,
                                     const DeltaEnumOptions& opts,
                                     bool* sampled)
{
    std::vector<std::uint64_t> masks;
    if (num_lines <= opts.exhaustive_line_limit) {
        const std::uint64_t count = 1ULL << num_lines;
        masks.reserve(count);
        for (std::uint64_t m = 0; m < count; ++m) {
            masks.push_back(m);
        }
        return masks;
    }
    *sampled = true;
    const std::uint64_t full =
        num_lines >= 64 ? ~0ULL : (1ULL << num_lines) - 1;
    masks.push_back(0);     // pure durable image
    masks.push_back(full);  // everything reached the media
    Rng rng(opts.seed ^ (0x9E3779B97F4A7C15ULL * (op_index + 1)));
    for (std::size_t k = 0; k < opts.sampled_masks; ++k) {
        masks.push_back(rng.next_u64() & full);
    }
    return masks;
}

}  // namespace

DeltaEnumResult enumerate_delta_crashes(const DeltaModelConfig& config,
                                        DeltaMutation mutation,
                                        const DeltaEnumOptions& opts)
{
    const DeltaTrace trace = run_model(config, mutation);
    const Bytes image_len =
        static_cast<Bytes>(config.chunks) * config.chunk_bytes;

    DeltaEnumResult out;
    out.frames_sealed = trace.frames_sealed;
    out.fulls_published = trace.fulls_published;
    for (const CrashSnapshot& snap : trace.snaps) {
        ++out.crash_points;
        bool sampled = false;
        const std::vector<std::uint64_t> masks =
            masks_for(snap.lines.size(), snap.op_index, opts, &sampled);
        if (sampled) {
            ++out.sampled_points;
        }
        for (const std::uint64_t mask : masks) {
            ++out.images;
            const auto violation =
                check_image(trace, snap, mask, image_len);
            if (violation.has_value()) {
                out.violated = true;
                out.message = *violation;
                out.crash_op = snap.op_index;
                out.crash_mask = mask;
                return out;
            }
        }
    }
    return out;
}

std::string replay_delta_crash(const DeltaModelConfig& config,
                               DeltaMutation mutation, std::size_t crash_op,
                               std::uint64_t crash_mask)
{
    const DeltaTrace trace = run_model(config, mutation);
    const Bytes image_len =
        static_cast<Bytes>(config.chunks) * config.chunk_bytes;
    for (const CrashSnapshot& snap : trace.snaps) {
        if (snap.op_index != crash_op) {
            continue;
        }
        return check_image(trace, snap, crash_mask, image_len)
            .value_or("");
    }
    return "replay: crash point not reached (config mismatch?)";
}

}  // namespace pccheck::mc
