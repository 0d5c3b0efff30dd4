#ifndef PCCHECK_DELTA_FRAME_FORMAT_H_
#define PCCHECK_DELTA_FRAME_FORMAT_H_

/**
 * @file
 * On-media wire format of one delta-log frame (docs/DELTA_LOG.md).
 *
 * Split out of delta_log.cc so the model checker's mutated appenders
 * and the corruption-injecting tests can build and dissect frames
 * byte-for-byte without reaching into the appender's internals;
 * encode_frame() is the one frame encoder.
 */

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "delta/delta_log.h"
#include "storage/sealed.h"
#include "util/bytes.h"
#include "util/crc32.h"

namespace pccheck::delta_wire {

/** Frame magic, bumped with any layout change ("PCDLTF\0 1"). */
constexpr std::uint64_t kFrameMagic = 0x5043444C54460031ULL;

/** Raw on-device chunk descriptor (payload prefix). */
struct RawChunkRef {
    std::uint64_t offset;
    std::uint64_t len;
};
static_assert(sizeof(RawChunkRef) == 16);

/** Raw on-device frame header (64 bytes, sealed; storage/sealed.h). */
struct RawFrameHeader {
    static constexpr std::uint64_t kMagic = kFrameMagic;
    std::uint64_t magic;
    std::uint64_t seq;
    std::uint64_t base_counter;
    std::uint64_t iteration;
    std::uint64_t payload_len;  ///< bytes following the header
    std::uint32_t chunk_count;
    std::uint32_t payload_crc;  ///< CRC-32C of the payload bytes
    std::uint8_t pad[12];
    std::uint32_t crc;

    /** @p room is the region left from this header's offset: the
     *  payload must fit in it and hold every chunk ref. */
    bool fits(Bytes room) const
    {
        return range_fits(sizeof(RawFrameHeader), payload_len, room) &&
               Bytes{chunk_count} * sizeof(RawChunkRef) <= payload_len;
    }
};
static_assert(sizeof(RawFrameHeader) == 64);

/** Payload bytes of a frame over @p chunks: their refs, then data. */
inline Bytes
payload_bytes(const std::vector<DeltaChunk>& chunks)
{
    Bytes bytes = chunks.size() * sizeof(RawChunkRef);
    for (const DeltaChunk& chunk : chunks) {
        bytes += chunk.len;
    }
    return bytes;
}

/**
 * Encode frame @p seq of the epoch on @p base_counter: fill @p payload
 * (payload_bytes(chunks) long) with the refs, then the chunks' bytes,
 * which @p data holds back to back; return the sealed header.
 * DeltaLog::append and the model checker's appender share it.
 */
inline RawFrameHeader
encode_frame(std::uint64_t seq, std::uint64_t base_counter,
             std::uint64_t iteration, const std::vector<DeltaChunk>& chunks,
             const std::uint8_t* data, std::uint8_t* payload)
{
    Bytes off = chunks.size() * sizeof(RawChunkRef);
    for (std::size_t i = 0; i < chunks.size(); ++i) {
        const RawChunkRef ref{chunks[i].offset, chunks[i].len};
        std::memcpy(payload + i * sizeof(ref), &ref, sizeof(ref));
        std::memcpy(payload + off, data, ref.len);
        data += ref.len;
        off += ref.len;
    }
    RawFrameHeader hdr{};
    hdr.seq = seq;
    hdr.base_counter = base_counter;
    hdr.iteration = iteration;
    hdr.payload_len = off;
    hdr.chunk_count = static_cast<std::uint32_t>(chunks.size());
    hdr.payload_crc = crc32c(payload, off);
    seal(hdr);
    return hdr;
}

}  // namespace pccheck::delta_wire

#endif  // PCCHECK_DELTA_FRAME_FORMAT_H_
