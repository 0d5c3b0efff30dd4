/**
 * @file
 * Corrupt-media fuzzer: a deterministic mutation fuzzer over every
 * on-media struct, run with a fixed seed budget (docs/RECOVERY.md,
 * "Corrupt media"). Two modes, over a slot arena (header pair, pointer
 * records, slots, delta chain) and a segment ring (segment headers,
 * record headers, payloads, manifests):
 *
 *  - raw: bit flips and byte smashes in each region, not re-sealed;
 *  - re-sealed: boundary values (0, 1, max, max - 10 and the value
 *    that wraps to 0 when added to the record's offset) in each
 *    length, offset, count and counter field of each sealed struct,
 *    with every CRC over it recomputed, so only the codec's bounds
 *    checks stand between the value and its use.
 *
 * Oracles: nothing aborts, throws or trips a sanitizer; every image or
 * payload recovery returns passes its CRC and its TrainingState stamp;
 * in raw mode it is one the workload actually published, and never
 * newer than the newest one. A re-sealed record is valid by
 * construction, so the raw-only oracles do not apply to it.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/concurrent_commit.h"
#include "core/recovery.h"
#include "core/slot_store.h"
#include "delta/delta_log.h"
#include "delta/frame_format.h"
#include "service/segment_log.h"
#include "storage/mem_storage.h"
#include "trainsim/training_state.h"
#include "util/check.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace pccheck {
namespace {

using Image = std::vector<std::uint8_t>;

/** Recompute the trailing CRC-32C of the @p size-byte record at @p at. */
void
reseal(std::uint8_t* at, Bytes size)
{
    const std::uint32_t crc = crc32c(at, size - sizeof(std::uint32_t));
    std::memcpy(at + size - sizeof(crc), &crc, sizeof(crc));
}

/** One length, offset, count or counter field of a sealed struct. */
struct Field {
    const char* name;
    Bytes offset;  ///< within the struct
    Bytes width;   ///< 4 or 8 bytes
};

void
poke(std::uint8_t* at, const Field& field, std::uint64_t value)
{
    if (field.width == 4) {
        const auto narrow = static_cast<std::uint32_t>(value);
        std::memcpy(at + field.offset, &narrow, sizeof(narrow));
    } else {
        std::memcpy(at + field.offset, &value, sizeof(value));
    }
}

/** The boundary values tried in @p field: 0, 1, max, max - 10, and
 *  for each offset in @p offsets the value that wraps to 0 when added
 *  to it. */
std::vector<std::uint64_t>
boundaries(const Field& field, const std::vector<Bytes>& offsets)
{
    const std::uint64_t max =
        field.width == 4 ? 0xFFFFFFFFull : ~std::uint64_t{0};
    std::vector<std::uint64_t> values = {0, 1, max, max - 10};
    for (const Bytes offset : offsets) {
        values.push_back((0 - offset) & max);
    }
    return values;
}

/** Every recovered image must be one of these, in raw mode. */
using States = std::map<std::uint64_t, Image>;

// ---------------------------------------------------------------------
// The slot arena: DeviceHeader pair, RawRecord pair, RawFrameHeader.

constexpr Bytes kState = 16 * 1024;
constexpr Bytes kUnit = TrainingState::kMarkerStride;
constexpr std::uint32_t kSlots = 3;
constexpr Bytes kDeltaLog = 48 * 1024;
constexpr std::uint64_t kNewestCounter = 3;
constexpr Bytes kHeaderCopies[] = {0, 192};
constexpr Bytes kRecords[] = {64, 128};

// Offsets within the 64-byte header and pointer record
// (core/slot_store.cc).
const Field kHeaderFields[] = {{"slot_count", 12, 4},
                               {"slot_size", 16, 8},
                               {"data_offset", 24, 8},
                               {"delta_offset", 32, 8},
                               {"delta_len", 40, 8}};
const Field kRecordFields[] = {{"counter", 0, 8},
                               {"slot", 8, 4},
                               {"data_len", 16, 8},
                               {"iteration", 24, 8}};
using delta_wire::RawFrameHeader;
const Field kFrameFields[] = {
    {"seq", offsetof(RawFrameHeader, seq), 8},
    {"base_counter", offsetof(RawFrameHeader, base_counter), 8},
    {"iteration", offsetof(RawFrameHeader, iteration), 8},
    {"payload_len", offsetof(RawFrameHeader, payload_len), 8},
    {"chunk_count", offsetof(RawFrameHeader, chunk_count), 4}};

/** Full checkpoints 1-3 (iterations 10, 20, 30), then three delta
 *  frames (31-33) of two 4 KiB chunks each on counter 3. */
struct Arena {
    Image bytes;
    States states;  ///< iteration -> the image it published
    DeltaRegion region;
    std::vector<Bytes> frames;  ///< device offsets of the frame headers
    Bytes chain_end = 0;        ///< device offset just past the chain
};

const Arena&
arena()
{
    static const Arena built = [] {
        Arena a;
        MemStorage device(
            SlotStore::required_size(kSlots, kState, kDeltaLog));
        SlotStore store =
            SlotStore::format(device, kSlots, kState, kDeltaLog);
        Image image(kState);
        for (std::uint64_t counter = 1; counter <= kNewestCounter;
             ++counter) {
            const std::uint64_t iteration = 10 * counter;
            TrainingState::stamp_buffer(image.data(), kState, iteration);
            const auto slot = static_cast<std::uint32_t>(counter % kSlots);
            PCCHECK_MUST(store.write_slot(slot, 0, image.data(), kState));
            PCCHECK_MUST(store.persist_slot_range(slot, 0, image.size()));
            PCCHECK_MUST(device.fence());
            PCCHECK_MUST(store.publish_pointer(CheckpointPointer{
                counter, slot, kState, iteration,
                crc32c(image.data(), image.size())}));
            a.states[iteration] = image;
        }
        a.region = DeltaRegion{store.delta_offset(), store.delta_bytes()};
        DeltaLog log(device, a.region);
        log.reset_epoch(kNewestCounter, 30);
        for (std::uint64_t iteration = 31; iteration <= 33; ++iteration) {
            std::vector<DeltaChunk> chunks;
            Image data;
            for (const Bytes off : TrainingState::sparse_update_buffer(
                     image.data(), image.size(), iteration, 0.5, 7)) {
                chunks.push_back(DeltaChunk{off, kUnit});
                data.insert(data.end(), image.begin() + off,
                            image.begin() + off + kUnit);
            }
            a.frames.push_back(a.region.offset + log.capacity() -
                               log.free_bytes());
            PCCHECK_MUST(log.append(iteration, chunks, data.data()));
            a.states[iteration] = image;
        }
        a.chain_end = a.region.offset + log.capacity() - log.free_bytes();
        a.bytes.assign(device.raw(), device.raw() + device.size());
        return a;
    }();
    return built;
}

/** Recover @p bytes as a device and hold the result to the oracles. */
void
check_arena(const Image& bytes, bool raw, const std::string& what)
{
    MemStorage device(bytes.size());
    std::memcpy(device.raw(), bytes.data(), bytes.size());
    Image buffer;
    std::optional<RecoveryResult> result;
    ASSERT_NO_THROW(result = recover_to_buffer(device, &buffer)) << what;
    if (result.has_value()) {
        // The arena has a delta region: markers may be older than the
        // recovered iteration, never misplaced or torn.
        const auto stamped = TrainingState::verify_buffer_sparse(
            buffer.data(), buffer.size());
        ASSERT_TRUE(stamped.has_value()) << what;
        if (result->delta_frames == 0 && result->data_crc != 0) {
            EXPECT_EQ(crc32c(buffer.data(), buffer.size()), result->data_crc)
                << what;
        }
        if (raw) {
            EXPECT_LE(result->counter, kNewestCounter) << what;
            EXPECT_LE(*stamped, result->iteration) << what;
            const auto published = arena().states.find(result->iteration);
            ASSERT_NE(published, arena().states.end()) << what;
            EXPECT_EQ(buffer, published->second) << what;
        }
    }
    // The other readers of the same bytes must survive them too.
    try {
        const SlotStore store = SlotStore::open(device);
        (void)store.recover_pointer();
        const DeltaRegion region{store.delta_offset(), store.delta_bytes()};
        (void)delta_scan(device, region, kNewestCounter, 30);
    } catch (const FatalError&) {
        // Neither header copy decodes: the device reads as unformatted.
    }
}

/** A byte range of the arena or ring that raw corruption aims at. */
struct Region {
    const char* name;
    Bytes offset;
    Bytes len;
};

/** @p trials bit flips, then @p trials byte smashes, in @p region. */
template <typename Check>
void
corrupt_raw(const Image& pristine, const Region& region, int trials,
            std::uint64_t seed, const Check& check)
{
    Rng rng(seed);
    for (int trial = 0; trial < 2 * trials; ++trial) {
        Image bytes = pristine;
        const Bytes at = region.offset + rng.next_below(region.len);
        std::string what = std::string(region.name) + " @" +
                           std::to_string(at);
        if (trial < trials) {
            const auto bit = static_cast<unsigned>(rng.next_below(8));
            bytes[at] ^= static_cast<std::uint8_t>(1u << bit);
            what += " flip bit " + std::to_string(bit);
        } else {
            const Bytes len = std::min<Bytes>(
                1 + rng.next_below(64), region.offset + region.len - at);
            for (Bytes i = 0; i < len; ++i) {
                bytes[at + i] = static_cast<std::uint8_t>(rng.next_u64());
            }
            what += " smash " + std::to_string(len);
        }
        check(bytes, what);
        if (::testing::Test::HasFatalFailure()) {
            return;
        }
    }
}

/** Raw trials per region and corruption kind: a few seconds in all
 *  on a plain build. */
constexpr int kRawTrials = 2000;

TEST(MediaFuzzTest, PristineArenaRecoversTheNewestFrame)
{
    const Arena& a = arena();
    ASSERT_EQ(a.frames.size(), 3u);
    MemStorage device(a.bytes.size());
    std::memcpy(device.raw(), a.bytes.data(), a.bytes.size());
    Image buffer;
    const auto result = recover_to_buffer(device, &buffer);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->counter, kNewestCounter);
    EXPECT_EQ(result->iteration, 33u);
    EXPECT_EQ(result->delta_frames, 3u);
    EXPECT_EQ(buffer, a.states.at(33));
}

TEST(MediaFuzzTest, RawCorruptionOfTheArena)
{
    const Arena& a = arena();
    const Region regions[] = {
        {"header pair", 0, 256},
        {"pointer records", 64, 128},
        {"slots", 4096, kSlots * kState},
        {"delta chain", a.region.offset, a.chain_end - a.region.offset},
        {"device", 0, a.bytes.size()},
    };
    std::uint64_t seed = 1;
    for (const Region& region : regions) {
        corrupt_raw(a.bytes, region, kRawTrials, seed++,
                    [](const Image& bytes, const std::string& what) {
                        check_arena(bytes, /*raw=*/true, what);
                    });
    }
}

TEST(MediaFuzzTest, ResealedFieldsOfTheArena)
{
    const Arena& a = arena();
    const auto mutate = [&a](const char* what, const std::vector<Bytes>& at,
                             const Field& field, std::uint64_t value) {
        Image bytes = a.bytes;
        for (const Bytes record : at) {
            poke(bytes.data() + record, field, value);
            reseal(bytes.data() + record, 64);
        }
        check_arena(bytes, /*raw=*/false,
                    std::string(what) + "." + field.name + " = " +
                        std::to_string(value));
    };
    // Header fields are added to the delta region's offset and length
    // and to the data offset.
    const std::vector<Bytes> header_offsets = {a.region.offset,
                                               a.region.bytes, 4096};
    for (const Field& field : kHeaderFields) {
        for (const std::uint64_t value : boundaries(field, header_offsets)) {
            mutate("primary header", {kHeaderCopies[0]}, field, value);
            mutate("both headers", {kHeaderCopies[0], kHeaderCopies[1]},
                   field, value);
        }
    }
    for (const Bytes record : kRecords) {
        for (const Field& field : kRecordFields) {
            for (const std::uint64_t value :
                 boundaries(field, {record, 4096, kState})) {
                mutate("pointer record", {record}, field, value);
            }
        }
    }
    for (const Bytes frame : a.frames) {
        for (const Field& field : kFrameFields) {
            const Bytes head = frame - a.region.offset;
            for (const std::uint64_t value :
                 boundaries(field, {frame, head, head + 64})) {
                mutate("frame header", {frame}, field, value);
            }
        }
    }
}

// The 512-bit probe: a one-bit flip anywhere in either header copy
// must not cost the newest checkpoint.
TEST(MediaFuzzTest, EveryHeaderBitFlipRecoversTheNewestCheckpoint)
{
    MemStorage device(SlotStore::required_size(kSlots, kState));
    SlotStore store = SlotStore::format(device, kSlots, kState);
    ConcurrentCommit commit(store);
    for (std::uint64_t i = 1; i <= 3; ++i) {
        const CheckpointTicket ticket = commit.begin();
        Image data(kState);
        TrainingState::stamp_buffer(data.data(), data.size(), i);
        PCCHECK_MUST(store.write_slot(ticket.slot, 0, data.data(), kState));
        PCCHECK_MUST(store.persist_slot_range(ticket.slot, 0, data.size()));
        PCCHECK_MUST(device.fence());
        commit.commit(ticket, data.size(), i,
                      crc32c(data.data(), data.size()));
    }
    int recovered_newest = 0;
    for (const Bytes copy : kHeaderCopies) {
        for (Bytes bit = 0; bit < 512; ++bit) {
            std::uint8_t* const byte = device.raw() + copy + bit / 8;
            *byte ^= static_cast<std::uint8_t>(1u << (bit % 8));
            Image buffer;
            const auto result = recover_to_buffer(device, &buffer);
            *byte ^= static_cast<std::uint8_t>(1u << (bit % 8));
            ASSERT_TRUE(result.has_value())
                << "copy at " << copy << ", bit " << bit;
            EXPECT_EQ(result->counter, 3u)
                << "copy at " << copy << ", bit " << bit;
            EXPECT_EQ(
                TrainingState::verify_buffer(buffer.data(), buffer.size()),
                std::make_optional<std::uint64_t>(result->iteration));
            recovered_newest += result->counter == 3 ? 1 : 0;
        }
    }
    EXPECT_EQ(recovered_newest, 1024);
}

// ---------------------------------------------------------------------
// The segment ring: RawSegmentHeader, RawRecordHeader, RawManifestEntry.

using segment_wire::RawManifestEntry;
using segment_wire::RawRecordHeader;
using segment_wire::RawSegmentHeader;

const Field kSegmentFields[] = {
    {"epoch", offsetof(RawSegmentHeader, epoch), 8},
    {"index", offsetof(RawSegmentHeader, index), 4},
    {"manifest_off", offsetof(RawSegmentHeader, manifest_off), 8},
    {"record_count", offsetof(RawSegmentHeader, record_count), 4}};
const Field kRecordHeaderFields[] = {
    {"counter", offsetof(RawRecordHeader, counter), 8},
    {"iteration", offsetof(RawRecordHeader, iteration), 8},
    {"data_len", offsetof(RawRecordHeader, data_len), 8}};
const Field kEntryFields[] = {
    {"counter", offsetof(RawManifestEntry, counter), 8},
    {"iteration", offsetof(RawManifestEntry, iteration), 8},
    {"record_off", offsetof(RawManifestEntry, record_off), 8},
    {"data_len", offsetof(RawManifestEntry, data_len), 8}};

/** Nine 700-byte records of two tenants in four 4 KiB segments: two
 *  sealed (manifests) and one open (chain walk). */
struct Ring {
    SegmentLogConfig config;
    Image bytes;
    std::map<std::pair<std::uint64_t, std::uint64_t>, Image> payloads;
    std::map<std::uint64_t, std::uint64_t> newest;  ///< tenant -> counter
    std::vector<SegmentRecordInfo> records;         ///< pristine scan
};

const Ring&
ring()
{
    static const Ring built = [] {
        Ring r;
        r.config.segment_bytes = 4096;
        r.config.segments = 4;
        MemStorage device(SegmentLog::required_size(r.config));
        {
            SegmentLog log(device, 0, r.config);
            PCCHECK_MUST(log.format());
            for (std::uint64_t i = 0; i < 9; ++i) {
                const std::uint64_t tenant = 1 + i % 2;
                const std::uint64_t counter = ++r.newest[tenant];
                Image payload(700);
                TrainingState::stamp_buffer(payload.data(), payload.size(),
                                            100 * tenant + counter);
                PCCHECK_MUST(log.append(tenant, counter,
                                        100 * tenant + counter,
                                        payload.data(), payload.size()));
                r.payloads[{tenant, counter}] = payload;
            }
        }
        r.bytes.assign(device.raw(), device.raw() + device.size());
        r.records = segment_scan(device, 0, r.config);
        return r;
    }();
    return built;
}

/** Sealed headers of the pristine ring: (segment base, header). */
std::vector<std::pair<Bytes, RawSegmentHeader>>
sealed_segments()
{
    std::vector<std::pair<Bytes, RawSegmentHeader>> sealed;
    for (std::uint32_t seg = 0; seg < ring().config.segments; ++seg) {
        const Bytes base = Bytes{seg} * ring().config.segment_bytes;
        RawSegmentHeader hdr{};
        std::memcpy(&hdr, ring().bytes.data() + base, sizeof(hdr));
        if (hdr.sealed != 0 && hdr.record_count > 0) {
            sealed.emplace_back(base, hdr);
        }
    }
    return sealed;
}

/** Scan and fetch @p bytes as a ring and hold the result to the
 *  oracles. */
void
check_ring(const Image& bytes, bool raw, const std::string& what)
{
    const SegmentLogConfig& config = ring().config;
    MemStorage device(bytes.size());
    std::memcpy(device.raw(), bytes.data(), bytes.size());
    std::vector<SegmentRecordInfo> records;
    ASSERT_NO_THROW(records = segment_scan(device, 0, config)) << what;
    for (const SegmentRecordInfo& record : records) {
        const Bytes rel = record.record_offset -
                          Bytes{record.segment} * config.segment_bytes;
        EXPECT_TRUE(range_fits(rel, sizeof(RawRecordHeader),
                               config.segment_bytes) &&
                    range_fits(rel + sizeof(RawRecordHeader), record.data_len,
                               config.segment_bytes))
            << what;
        Image payload;
        bool fetched = false;
        ASSERT_NO_THROW(fetched = segment_fetch(device, 0, record, &payload))
            << what;
        if (!fetched) {
            continue;
        }
        EXPECT_EQ(crc32c(payload.data(), payload.size()), record.data_crc)
            << what;
        EXPECT_TRUE(
            TrainingState::verify_buffer(payload.data(), payload.size())
                .has_value())
            << what;
        if (raw) {
            const auto newest = ring().newest.find(record.tenant);
            ASSERT_NE(newest, ring().newest.end()) << what;
            EXPECT_LE(record.counter, newest->second) << what;
            const auto published =
                ring().payloads.find({record.tenant, record.counter});
            ASSERT_NE(published, ring().payloads.end()) << what;
            EXPECT_EQ(payload, published->second) << what;
        }
    }
}

TEST(MediaFuzzTest, PristineRingScansEveryRecord)
{
    EXPECT_EQ(ring().records.size(), 9u);
    EXPECT_EQ(sealed_segments().size(), 2u);
    check_ring(ring().bytes, /*raw=*/true, "pristine");
}

TEST(MediaFuzzTest, RawCorruptionOfTheRing)
{
    const Ring& r = ring();
    std::vector<Region> regions;
    for (std::uint32_t seg = 0; seg < r.config.segments; ++seg) {
        regions.push_back({"segment header",
                           Bytes{seg} * r.config.segment_bytes,
                           sizeof(RawSegmentHeader)});
    }
    for (const SegmentRecordInfo& record : r.records) {
        regions.push_back({"record header", record.record_offset,
                           sizeof(RawRecordHeader)});
        regions.push_back({"payload",
                           record.record_offset + sizeof(RawRecordHeader),
                           record.data_len});
    }
    for (const auto& [base, hdr] : sealed_segments()) {
        const Bytes len = Bytes{hdr.record_count} * sizeof(RawManifestEntry);
        regions.push_back({"manifest", base + hdr.manifest_off, len});
    }
    regions.push_back({"ring", 0, r.bytes.size()});
    std::uint64_t seed = 100;
    for (const Region& region : regions) {
        corrupt_raw(r.bytes, region, kRawTrials / 4, seed++,
                    [](const Image& bytes, const std::string& what) {
                        check_ring(bytes, /*raw=*/true, what);
                    });
    }
}

TEST(MediaFuzzTest, ResealedFieldsOfTheRing)
{
    const Ring& r = ring();
    const auto label = [](const char* what, const Field& field,
                          std::uint64_t value) {
        return std::string(what) + "." + field.name + " = " +
               std::to_string(value);
    };
    for (std::uint32_t seg = 0; seg < r.config.segments; ++seg) {
        const Bytes base = Bytes{seg} * r.config.segment_bytes;
        for (const Field& field : kSegmentFields) {
            for (const std::uint64_t value :
                 boundaries(field, {base, sizeof(RawSegmentHeader)})) {
                Image bytes = r.bytes;
                poke(bytes.data() + base, field, value);
                reseal(bytes.data() + base, sizeof(RawSegmentHeader));
                check_ring(bytes, /*raw=*/false,
                           label("segment header", field, value));
            }
        }
    }
    for (const SegmentRecordInfo& record : r.records) {
        const Bytes rel = record.record_offset -
                          Bytes{record.segment} * r.config.segment_bytes;
        for (const Field& field : kRecordHeaderFields) {
            for (const std::uint64_t value :
                 boundaries(field, {record.record_offset, rel, rel + 64})) {
                Image bytes = r.bytes;
                poke(bytes.data() + record.record_offset, field, value);
                reseal(bytes.data() + record.record_offset,
                       sizeof(RawRecordHeader));
                check_ring(bytes, /*raw=*/false,
                           label("record header", field, value));
            }
        }
    }
    // A manifest entry is re-sealed, then the manifest CRC over it and
    // the segment header over that.
    for (const auto& [base, hdr] : sealed_segments()) {
        const Bytes manifest = base + hdr.manifest_off;
        const Bytes blob_len =
            Bytes{hdr.record_count} * sizeof(RawManifestEntry);
        for (std::uint32_t i = 0; i < hdr.record_count; ++i) {
            const Bytes entry = manifest + i * sizeof(RawManifestEntry);
            for (const Field& field : kEntryFields) {
                for (const std::uint64_t value :
                     boundaries(field, {entry, entry - base, 64, 128})) {
                    Image bytes = r.bytes;
                    poke(bytes.data() + entry, field, value);
                    reseal(bytes.data() + entry, sizeof(RawManifestEntry));
                    const std::uint32_t crc =
                        crc32c(bytes.data() + manifest, blob_len);
                    std::memcpy(bytes.data() + base +
                                    offsetof(RawSegmentHeader, manifest_crc),
                                &crc, sizeof(crc));
                    reseal(bytes.data() + base, sizeof(RawSegmentHeader));
                    check_ring(bytes, /*raw=*/false,
                               label("manifest entry", field, value));
                }
            }
        }
    }
}

}  // namespace
}  // namespace pccheck
