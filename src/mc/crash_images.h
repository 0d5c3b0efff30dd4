#ifndef PCCHECK_MC_CRASH_IMAGES_H_
#define PCCHECK_MC_CRASH_IMAGES_H_

/**
 * @file
 * The crash-image enumerator every crash mode of mc_check shares.
 *
 * A crash mode is a WORKLOAD plus an ORACLE. The workload runs once
 * over a CrashSimStorage with a SnapshotRecorder attached
 * (storage/crash_capture.h, the capture the seed sweeps share), which
 * records the state after every storage op: the durable image plus
 * the volatile content of every unflushed line. A power failure at
 * that instant keeps an ARBITRARY subset of the unflushed lines
 * (paper §2.3 — cache eviction order is not program order), so each
 * snapshot induces up to 2^n crash images. enumerate_images
 * materializes each image and asks the oracle for a verdict.
 *
 * Mask policy (fixed, no options): every mask when a crash point has
 * at most 12 unflushed lines; otherwise the empty mask, the full mask
 * and 4096 draws seeded from the op index, counted in
 * `sampled_points`. A LineMask names any number of lines.
 *
 * A violating image is named by its crash clause `crash@<op>:0x<mask>`;
 * replay_image re-checks exactly that image on a fresh run of a
 * deterministic workload.
 */

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "storage/crash_capture.h"

namespace pccheck::mc {

/**
 * (op index, value) marks a workload records as it runs, e.g. "from
 * this op on, recovery must find at least this counter".
 */
using OpMarks = std::vector<std::pair<std::size_t, std::uint64_t>>;

/** Largest value marked at or before @p op_index (0 = none). */
std::uint64_t mark_at(const OpMarks& marks, std::size_t op_index);

/**
 * Verdict on one crash image: the violation message, or nothing.
 * Oracles run recovery on the image; a FatalError it raises is a
 * violation too.
 */
using ImageOracle = std::function<std::optional<std::string>(
    const CrashSnapshot& snap, const std::vector<std::uint8_t>& image)>;

/** One run of a deterministic workload: its crash points and the
 *  oracle that judges their images. */
struct CrashWorkload {
    CrashTrace trace;
    ImageOracle oracle;
};

/** Outcome of an enumeration or a replay. */
struct CrashImageResult {
    bool violated = false;
    std::string message;
    /** Crash points and images checked. A replay of an op the run
     *  never reached checks none: that is no verdict at all. */
    std::size_t crash_points = 0;
    std::size_t images = 0;
    /** Crash points whose mask space was sampled, not enumerated. */
    std::size_t sampled_points = 0;
    /** First violating image (valid iff violated). */
    std::size_t crash_op = 0;
    LineMask crash_mask;
    /** Replay token naming the violation. */
    std::string token;
};

/** Enumerate every crash point x mask of @p trace in order; stops at
 *  the first image the oracle rejects. */
CrashImageResult enumerate_images(const CrashTrace& trace,
                                  const ImageOracle& oracle);

/** Check the one image (@p op, @p mask) of @p trace. */
CrashImageResult replay_image(const CrashTrace& trace, std::size_t op,
                              const LineMask& mask,
                              const ImageOracle& oracle);

}  // namespace pccheck::mc

#endif  // PCCHECK_MC_CRASH_IMAGES_H_
