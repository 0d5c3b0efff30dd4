/**
 * @file
 * Targeted fault injection against the on-device format: corrupted
 * and torn pointer records, corrupted headers, bad slot data, and
 * truncated devices. The contract under attack is always the same —
 * recovery either returns a fully validated checkpoint or reports
 * failure; it never returns garbage and never crashes the process
 * (device-level corruption is an environment fault, not a bug).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "core/concurrent_commit.h"
#include "core/recovery.h"
#include "core/slot_store.h"
#include "storage/mem_storage.h"
#include "trainsim/training_state.h"
#include "util/check.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace pccheck {
namespace {

constexpr Bytes kState = 16 * 1024;

/** Device with two committed checkpoints (iterations 1 and 2). */
std::unique_ptr<MemStorage>
device_with_two_checkpoints()
{
    auto device = std::make_unique<MemStorage>(
        SlotStore::required_size(3, kState));
    SlotStore store = SlotStore::format(*device, 3, kState);
    ConcurrentCommit commit(store);
    for (std::uint64_t i = 1; i <= 2; ++i) {
        const CheckpointTicket ticket = commit.begin();
        std::vector<std::uint8_t> data(kState);
        TrainingState::stamp_buffer(data.data(), data.size(), i);
        PCCHECK_MUST(store.write_slot(ticket.slot, 0, data.data(), data.size()));
        PCCHECK_MUST(store.persist_slot_range(ticket.slot, 0, data.size()));
        PCCHECK_MUST(store.device().fence());
        commit.commit(ticket, data.size(), i,
                      crc32c(data.data(), data.size()));
    }
    return device;
}

/** Corrupt @p len bytes at @p offset of the raw device. */
void
smash(StorageDevice& device, Bytes offset, Bytes len, std::uint8_t value)
{
    std::vector<std::uint8_t> garbage(len, value);
    PCCHECK_MUST(device.write(offset, garbage.data(), garbage.size()));
}

TEST(FaultInjectionTest, CleanDeviceRecoversNewest)
{
    auto device = device_with_two_checkpoints();
    std::vector<std::uint8_t> buffer;
    const auto recovered = recover_to_buffer(*device, &buffer);
    ASSERT_TRUE(recovered.has_value());
    EXPECT_EQ(recovered->iteration, 2u);
}

TEST(FaultInjectionTest, NewerRecordSmashedFallsBack)
{
    auto device = device_with_two_checkpoints();
    // Pointer records live at offsets 64 and 128; counter 2 uses
    // record index 2 % 2 = 0 (offset 64).
    smash(*device, 64, 64, 0xEE);
    std::vector<std::uint8_t> buffer;
    const auto recovered = recover_to_buffer(*device, &buffer);
    ASSERT_TRUE(recovered.has_value());
    EXPECT_EQ(recovered->iteration, 1u);  // the older record survives
    EXPECT_EQ(TrainingState::verify_buffer(buffer.data(), buffer.size()),
              std::make_optional<std::uint64_t>(1));
}

TEST(FaultInjectionTest, BothRecordsSmashedFailsCleanly)
{
    auto device = device_with_two_checkpoints();
    smash(*device, 64, 128, 0xEE);
    std::vector<std::uint8_t> buffer;
    EXPECT_FALSE(recover_to_buffer(*device, &buffer).has_value());
}

TEST(FaultInjectionTest, SingleBitFlipInRecordDetected)
{
    auto device = device_with_two_checkpoints();
    // Flip one bit in every byte position of the newest record, one
    // at a time; the checksum must catch each flip (fall back to 1).
    for (Bytes byte = 0; byte < 64; ++byte) {
        std::uint8_t original = 0;
        PCCHECK_MUST(device->read(64 + byte, &original, 1));
        const std::uint8_t flipped = original ^ 0x01;
        PCCHECK_MUST(device->write(64 + byte, &flipped, 1));
        std::vector<std::uint8_t> buffer;
        const auto recovered = recover_to_buffer(*device, &buffer);
        ASSERT_TRUE(recovered.has_value()) << "byte " << byte;
        EXPECT_EQ(recovered->iteration, 1u) << "byte " << byte;
        PCCHECK_MUST(device->write(64 + byte, &original, 1));  // restore
    }
}

TEST(FaultInjectionTest, NewestDataCorruptionFallsBack)
{
    auto device = device_with_two_checkpoints();
    // Find which slot the newest record references and corrupt the
    // DATA, leaving the record intact: the CRC must reject it.
    SlotStore store = SlotStore::open(*device);
    const auto candidates = store.candidate_pointers();
    ASSERT_GE(candidates.size(), 2u);
    const auto& newest = candidates.front();
    smash(*device, store.slot_offset(newest.slot) + 100, 32, 0x77);
    std::vector<std::uint8_t> buffer;
    const auto recovered = recover_to_buffer(*device, &buffer);
    ASSERT_TRUE(recovered.has_value());
    EXPECT_EQ(recovered->counter, candidates[1].counter);
}

/** Device offsets of the two header copies (docs/RECOVERY.md). */
constexpr Bytes kHeaderCopies[] = {0, 192};

TEST(FaultInjectionTest, HeaderCorruptionFailsOpen)
{
    auto device = device_with_two_checkpoints();
    for (const Bytes copy : kHeaderCopies) {
        smash(*device, copy, 8, 0x00);  // destroy this copy's magic
    }
    EXPECT_THROW(SlotStore::open(*device), FatalError);
    std::vector<std::uint8_t> buffer;
    EXPECT_FALSE(recover_to_buffer(*device, &buffer).has_value());
}

TEST(FaultInjectionTest, OneDestroyedHeaderCopyStillRecoversNewest)
{
    for (const Bytes copy : kHeaderCopies) {
        auto device = device_with_two_checkpoints();
        smash(*device, copy, 64, 0xEE);
        std::vector<std::uint8_t> buffer;
        const auto recovered = recover_to_buffer(*device, &buffer);
        ASSERT_TRUE(recovered.has_value()) << "copy at " << copy;
        EXPECT_EQ(recovered->iteration, 2u) << "copy at " << copy;
    }
}

TEST(FaultInjectionTest, HeaderGeometryLiesAreRejected)
{
    auto device = device_with_two_checkpoints();
    // Inflate slot_count so slots would extend past the device end, and
    // re-seal both copies: the CRC passes, so the geometry check alone
    // must reject them.
    for (const Bytes copy : kHeaderCopies) {
        std::uint8_t header[64];
        PCCHECK_MUST(device->read(copy, header, sizeof(header)));
        std::uint32_t crc = 0;
        std::memcpy(&crc, header + 60, sizeof(crc));
        ASSERT_EQ(crc, crc32c(header, 60)) << "copy at " << copy;
        const std::uint32_t huge = 1000;
        std::memcpy(header + 12, &huge, sizeof(huge));  // slot_count
        crc = crc32c(header, 60);
        std::memcpy(header + 60, &crc, sizeof(crc));
        PCCHECK_MUST(device->write(copy, header, sizeof(header)));
    }
    EXPECT_THROW(SlotStore::open(*device), FatalError);
}

TEST(FaultInjectionTest, RecordPointingPastSlotsRejected)
{
    auto device = device_with_two_checkpoints();
    // Forge a syntactically valid record with an out-of-range slot:
    // the checksum passes but the slot bound check must reject it.
    struct ForgedRecord {
        std::uint64_t counter = 99;
        std::uint32_t slot = 7;  // only 3 slots exist
        std::uint32_t data_crc = 0;
        std::uint64_t data_len = kState;
        std::uint64_t iteration = 99;
        std::uint8_t pad[28] = {};
        std::uint32_t record_checksum = 0;
    } forged;
    forged.record_checksum =
        crc32c(&forged, offsetof(ForgedRecord, record_checksum));
    PCCHECK_MUST(device->write(64, &forged, sizeof(forged)));
    std::vector<std::uint8_t> buffer;
    const auto recovered = recover_to_buffer(*device, &buffer);
    ASSERT_TRUE(recovered.has_value());
    EXPECT_EQ(recovered->iteration, 1u);  // forged record ignored
}

TEST(FaultInjectionTest, RandomCorruptionNeverYieldsGarbage)
{
    // Fuzz: random 64-byte smashes anywhere on the device. Recovery
    // must either report no checkpoint (also when the header is
    // destroyed) or return a checkpoint whose stamp verifies.
    Rng rng(2026);
    for (int round = 0; round < 40; ++round) {
        auto device = device_with_two_checkpoints();
        const Bytes offset = rng.next_below(device->size() - 64);
        smash(*device, offset, 64,
              static_cast<std::uint8_t>(rng.next_u64()));
        std::vector<std::uint8_t> buffer;
        const auto recovered = recover_to_buffer(*device, &buffer);
        if (recovered.has_value()) {
            const auto stamped =
                TrainingState::verify_buffer(buffer.data(), buffer.size());
            ASSERT_TRUE(stamped.has_value()) << "round " << round;
            EXPECT_EQ(*stamped, recovered->iteration) << "round " << round;
        }
    }
}

}  // namespace
}  // namespace pccheck
