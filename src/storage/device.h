#ifndef PCCHECK_STORAGE_DEVICE_H_
#define PCCHECK_STORAGE_DEVICE_H_

/**
 * @file
 * Abstract persistent storage device.
 *
 * The device exposes the programming model the paper depends on (§2.3):
 * writes land in a volatile domain (CPU cache / OS page cache) and only
 * become durable after an explicit persist step —
 *  - SSD:  persist() models msync() on an mmapped file and is
 *          synchronously durable; fence() is a no-op.
 *  - PMEM: persist() models clwb / non-temporal stores (initiates
 *          write-back) and data is durable only after the following
 *          fence(), modeling sfence.
 *
 * Implementations: MemStorage (DRAM, trivially "durable"),
 * CrashSimStorage (volatile+durable shadow images with adversarial
 * cache-eviction on crash — see crash_sim.h), FileStorage (real
 * mmap+msync), ThrottledStorage (bandwidth decorator).
 */

#include <cstdint>
#include <functional>

#include "storage/status.h"
#include "util/bytes.h"

namespace pccheck {

/**
 * One storage-level event, reported to an observation hook after the
 * operation completes. Leaf devices notify; decorators MUST forward
 * set_observe_hook() to the wrapped device so the hook always lands on
 * the leaf regardless of stacking order (enforced by pccheck_lint rule
 * storage-decorator-forwards-hooks).
 */
struct StorageOp {
    enum class Kind : std::uint8_t { kWrite, kPersist, kFence };
    Kind kind = Kind::kWrite;
    Bytes offset = 0;
    Bytes len = 0;
};

/** Persistence semantics of a device. */
enum class StorageKind {
    kDram,      ///< volatile memory; persist is a no-op
    kSsdMsync,  ///< mmap + msync: persist() is synchronously durable
    kPmemClwb,  ///< cache write-back + fence (2.46 GB/s on paper HW)
    kPmemNt,    ///< non-temporal store + fence (4.01 GB/s on paper HW)
    kCxlPmem,   ///< persistent memory behind CXL (§2.3): PMEM
                ///< semantics at PCIe-attached bandwidth
};

/** Byte-addressable storage device with explicit persistence. */
class StorageDevice {
  public:
    virtual ~StorageDevice() = default;

    /** Device capacity in bytes. */
    virtual Bytes size() const = 0;

    /**
     * Write @p len bytes from @p src at @p offset. The data is visible
     * to subsequent read() calls but not durable until persisted.
     * Thread safe for non-overlapping ranges. On failure nothing is
     * guaranteed about the target range beyond "not durable".
     */
    virtual StorageStatus write(Bytes offset, const void* src,
                                Bytes len) = 0;

    /**
     * Read @p len bytes at @p offset into @p dst (sees latest writes).
     * Reads are fallible like writes: bit rot surfaces as CRC failure
     * downstream, but unreadable sectors / truncated mappings / dead
     * nodes surface here. On a non-ok status the contents of @p dst are
     * unspecified — callers must not interpret the buffer. Out-of-range
     * reads return a permanent error rather than aborting so that
     * recovery can degrade source-by-source (see RecoveryPlanner).
     */
    virtual StorageStatus read(Bytes offset, void* dst,
                               Bytes len) const = 0;

    /**
     * Initiate durability for [offset, offset+len). For kSsdMsync the
     * range is durable on return; for PMEM kinds it is durable only
     * after the next fence().
     */
    virtual StorageStatus persist(Bytes offset, Bytes len) = 0;

    /** Persistence ordering fence (sfence). No-op for SSD/DRAM. */
    virtual StorageStatus fence() = 0;

    /** The persistence semantics this device implements. */
    virtual StorageKind kind() const = 0;

    /**
     * Install an observation hook invoked after every write/persist/
     * fence with the device lock released. Single hook; pass nullptr
     * to clear. Not thread-safe against concurrent storage ops — set
     * it before handing the device to the protocol. Decorators forward
     * to the wrapped device; the default is a no-op for devices with
     * nothing to observe.
     */
    virtual void set_observe_hook(std::function<void(const StorageOp&)> hook)
    {
        (void)hook;
    }
};

/**
 * True when [@p offset, @p offset + @p len) lies inside [0, @p size),
 * computed without the sum: a range that wraps past 2^64 is out of
 * range. Every leaf device and every on-media decode bounds with it.
 */
constexpr bool
range_fits(Bytes offset, Bytes len, Bytes size)
{
    return offset <= size && len <= size - offset;
}

/** The full durability contract for one range: write, persist, fence. */
inline StorageStatus
write_durably(StorageDevice& device, Bytes offset, const void* src,
              Bytes len)
{
    StorageStatus status = device.write(offset, src, len);
    if (status.ok()) {
        status = device.persist(offset, len);
    }
    if (status.ok()) {
        status = device.fence();
    }
    return status;
}

/** True when the kind requires an explicit fence after persist(). */
constexpr bool
needs_fence(StorageKind kind)
{
    return kind == StorageKind::kPmemClwb ||
           kind == StorageKind::kPmemNt || kind == StorageKind::kCxlPmem;
}

}  // namespace pccheck

#endif  // PCCHECK_STORAGE_DEVICE_H_
