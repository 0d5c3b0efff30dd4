#ifndef PCCHECK_STORAGE_CRASH_CAPTURE_H_
#define PCCHECK_STORAGE_CRASH_CAPTURE_H_

/**
 * @file
 * Crash states taken from the run being crashed: the one crash
 * mechanism of the model checker's crash modes and the seed sweeps.
 * A CrashSimStorage capture hook copies each device state in the lock
 * hold of the op that left it, so it is exact on real threads. A
 * power failure keeps an ARBITRARY subset of a state's unflushed lines
 * (paper §2.3); a LineMask names one and materialize() builds the
 * image it leaves, named by the crash clause `crash@<op>:0x<mask>`.
 * SnapshotRecorder keeps every state, for the model checker to try
 * masks over all of them; CrashPointSampler keeps one, for a sweep
 * seed to check one seeded image of it.
 */

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "storage/crash_sim.h"
#include "util/rng.h"

namespace pccheck {

/**
 * Which unflushed lines of a crash state reach the media: bit i keeps
 * the i-th line in ascending order (bit i % 64 of word i / 64). Any
 * width; bits past the state's lines are ignored. High zero words are
 * dropped, so equal masks compare equal.
 */
class LineMask {
  public:
    LineMask() = default;
    /** The mask with low bits @p bits: every mask of up to 64 lines. */
    LineMask(std::uint64_t bits);  // NOLINT(google-explicit-constructor)

    /** All of @p lines kept. */
    static LineMask all(std::size_t lines);
    /** Each of @p lines kept with probability 1/2: one draw of @p rng
     *  per 64 lines (up to 64 lines, `rng.next_u64()` masked). */
    static LineMask random(Rng& rng, std::size_t lines);
    /** Hex digits, no prefix; nullopt on anything else or nothing. */
    static std::optional<LineMask> parse_hex(std::string_view digits);

    bool keeps(std::size_t line) const;
    void keep(std::size_t line);
    /** Lowercase hex digits without prefix ("0" for the empty mask). */
    std::string hex() const;

    bool operator==(const LineMask&) const = default;

  private:
    void trim();

    std::vector<std::uint64_t> words_;
};

/** The crash clause `crash@<op>:0x<mask>` naming one crash image. */
std::string crash_clause(std::size_t op_index, const LineMask& mask);

/** @p snap's durable image with the unflushed lines @p mask keeps. */
std::vector<std::uint8_t> materialize(const CrashSnapshot& snap,
                                      const LineMask& mask);

/** Every state one run recorded. */
using CrashTrace = std::vector<CrashSnapshot>;

/**
 * Numbers the storage ops of @p device from 0 at its attachment and,
 * given a trace, records the state after each one (op_index 0 is the
 * state the first op left). Holds the device's capture hook for its
 * lifetime.
 */
class SnapshotRecorder {
  public:
    SnapshotRecorder(CrashSimStorage& device, CrashTrace* trace);
    ~SnapshotRecorder();
    SnapshotRecorder(const SnapshotRecorder&) = delete;
    SnapshotRecorder& operator=(const SnapshotRecorder&) = delete;

    /** Index the next storage op will get (= ops recorded so far).
     *  Workloads read it to place publish floors and ceilings. */
    std::size_t next_op() const { return device_->ops() - base_; }

  private:
    CrashSimStorage* device_;
    /** Device ops before attachment; set in the constructor. */
    std::size_t base_ = 0;
};

/** The one crash state a sweep seed kept, and the image it checks. */
struct CrashPoint {
    /** Index of the state at attachment: the sampler's mark. */
    std::size_t mark = 0;
    /** States drawn from: the mark's and one per op since. */
    std::size_t states = 0;
    /** The kept state; mark <= state.op_index < mark + states. */
    CrashSnapshot state;
    /** Seeded: each unflushed line kept with probability 1/2. */
    LineMask mask;

    std::vector<std::uint8_t> image() const
    {
        return materialize(state, mask);
    }
    std::string clause() const
    {
        return crash_clause(state.op_index, mask);
    }
};

/**
 * Keeps one state of @p device, drawn uniformly from the state at
 * attachment and the state after each op since by reservoir sampling:
 * only kept states are copied. @p on_keep runs under the device lock
 * each time a state is kept, to read whatever else the oracle needs
 * from that instant; it must not call the device. Like the recorder,
 * it must not outlive the device.
 */
class CrashPointSampler {
  public:
    CrashPointSampler(CrashSimStorage& device, std::uint64_t seed,
                      std::function<void()> on_keep = nullptr);
    ~CrashPointSampler();
    CrashPointSampler(const CrashPointSampler&) = delete;
    CrashPointSampler& operator=(const CrashPointSampler&) = delete;

    /** Detaches and returns the kept point with its seeded mask. */
    CrashPoint take();

  private:
    CrashSimStorage* device_;
    Rng rng_;
    std::function<void()> on_keep_;
    CrashPoint point_;
};

}  // namespace pccheck

#endif  // PCCHECK_STORAGE_CRASH_CAPTURE_H_
