#ifndef PCCHECK_STORAGE_CRASH_SIM_H_
#define PCCHECK_STORAGE_CRASH_SIM_H_

/**
 * @file
 * Crash-consistency simulation device.
 *
 * Maintains two images: a volatile one (CPU cache / page cache) that
 * all writes and reads touch, and a durable one that only receives
 * data through the persistence protocol of the configured kind.
 *
 * The adversarial part (what real hardware cannot do deterministically):
 * on crash(), every line that was written but never explicitly
 * persisted may or may not have reached the durable image — decided by
 * a seeded RNG per line, modeling arbitrary cache-eviction order
 * (paper §2.3: "the order in which data is written to the cache may
 * differ from the order in which the content reaches PMEM"). After a
 * crash the volatile image is reset to the durable one, so recovery
 * observes exactly what survived.
 *
 * This device is the oracle for the paper's central invariant: at any
 * crash point, recovery must find one fully persisted checkpoint.
 */

#include <functional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "storage/device.h"
#include "util/annotations.h"
#include "util/rng.h"

namespace pccheck {

/**
 * One state of a CrashSimStorage, as a power failure would find it:
 * what is durable, plus the volatile content of every line that has
 * not durably reached the media yet (storage/crash_capture.h builds
 * crash images from it).
 */
struct CrashSnapshot {
    /** Which state this is: the ops the device had applied.
     *  SnapshotRecorder renumbers its states from 0 (see there). */
    std::size_t op_index = 0;
    Bytes line_size = 0;
    /** Durable image: what survives if no unflushed line does. */
    std::vector<std::uint8_t> durable;
    /** Unflushed (dirty or fence-pending) lines, ascending. */
    std::vector<Bytes> lines;
    /** Volatile content of each line, aligned with `lines`. */
    std::vector<std::vector<std::uint8_t>> line_data;
};

/** Storage with volatile/durable shadow images and adversarial crash. */
class CrashSimStorage final : public StorageDevice {
  public:
    /**
     * @param size device capacity
     * @param kind persistence semantics (SSD or one of the PMEM modes)
     * @param seed RNG seed for eviction decisions
     * @param eviction_probability chance an unpersisted dirty line
     *        reached durable media before the crash, in [0,1]
     */
    CrashSimStorage(Bytes size, StorageKind kind, std::uint64_t seed = 1,
                    double eviction_probability = 0.5);

    /** See set_capture_hook(). */
    using CaptureHook = std::function<void(
        std::size_t op_index, const std::function<CrashSnapshot()>& copy)>;

    Bytes size() const override { return size_; }
    StorageStatus write(Bytes offset, const void* src, Bytes len) override;
    StorageStatus read(Bytes offset, void* dst, Bytes len) const override;
    StorageStatus persist(Bytes offset, Bytes len) override;
    StorageStatus fence() override;
    StorageKind kind() const override { return kind_; }
    /**
     * Observation hook, invoked after every write/persist/fence with
     * the device lock RELEASED. Single hook; pass nullptr to clear.
     * Not thread-safe against concurrent storage ops: set it before
     * the device is shared.
     */
    void set_observe_hook(
        std::function<void(const StorageOp&)> hook) override
    {
        post_op_hook_ = std::move(hook);
    }

    /**
     * Simulate a power failure: unpersisted lines survive only with
     * eviction probability, the volatile image is replaced by the
     * durable one, and all tracking state is cleared.
     */
    void crash();

    /**
     * Installs @p hook (nullptr clears it). The hook sees every state
     * of the device from now on: the current one, in the same lock
     * hold, then the one after each write, persist and fence, called
     * with the device lock still held. Ops on other threads wait
     * while it runs, so each state is exactly the one its op left,
     * in the order the lock serialized the ops. It gets the state's
     * index (ops applied since construction) and a function that
     * copies the state out; it must not call the device (the lock is
     * not recursive). storage/crash_capture.h builds on it.
     */
    void set_capture_hook(CaptureHook hook);

    /** The current state, copied in one lock hold. */
    CrashSnapshot snapshot() const;

    /** Write, persist and fence ops applied since construction. */
    std::size_t ops() const;

    /** Number of lines currently dirty (written, not yet persisted). */
    std::size_t dirty_lines() const;

    /** Number of lines persisted but awaiting a fence (PMEM only). */
    std::size_t pending_lines() const;

    /** Persistence line granularity for the configured kind. */
    Bytes line_size() const { return line_size_; }

  private:
    Bytes line_of(Bytes offset) const { return offset / line_size_; }
    void commit_line(Bytes line) PCCHECK_REQUIRES(mu_);
    CrashSnapshot snapshot_locked() const PCCHECK_REQUIRES(mu_);
    /** Counts an applied op and shows its state to the capture hook. */
    void applied() PCCHECK_REQUIRES(mu_);
    void show_state() const PCCHECK_REQUIRES(mu_);

    StorageKind kind_;
    Bytes line_size_;
    /** Immutable capacity: lets size() and bounds checks run without
     *  the lock (the images are never resized after construction). */
    Bytes size_;
    mutable Mutex mu_;
    std::vector<std::uint8_t> volatile_ PCCHECK_GUARDED_BY(mu_);
    std::vector<std::uint8_t> durable_ PCCHECK_GUARDED_BY(mu_);
    std::unordered_set<Bytes> dirty_
        PCCHECK_GUARDED_BY(mu_);  ///< written, not persisted
    std::unordered_set<Bytes> pending_
        PCCHECK_GUARDED_BY(mu_);  ///< persisted, awaiting fence
    Rng rng_ PCCHECK_GUARDED_BY(mu_);
    double eviction_probability_;
    std::size_t ops_ PCCHECK_GUARDED_BY(mu_) = 0;
    CaptureHook capture_hook_ PCCHECK_GUARDED_BY(mu_);
    /** Set before the device is shared; called outside mu_. */
    std::function<void(const StorageOp&)> post_op_hook_;
};

}  // namespace pccheck

#endif  // PCCHECK_STORAGE_CRASH_SIM_H_
