#ifndef PCCHECK_MC_TOKEN_H_
#define PCCHECK_MC_TOKEN_H_

/**
 * @file
 * Compact replay tokens for failing schedules.
 *
 * When the checker finds a violation it prints a token like
 *
 *     v1.3.0x14,1x3,0x2,2
 *
 * — version 1, 3 model threads, then the schedule as run-length-
 * encoded thread choices (thread 0 for 14 steps, thread 1 for 3, ...).
 * Feeding the token back (`mc_check --replay <token>`) re-runs the
 * exact interleaving via PrefixStrategy, reproducing the assertion
 * deterministically.
 *
 * A crash image is named by its crash clause
 *
 *     crash@27:0x1b
 *
 * — crash after storage operation 27, keeping the unflushed cache
 * lines selected by hex mask 0x1b (bit i = i-th unflushed line in
 * ascending offset order survives the crash; storage/crash_capture.h
 * formats it, and a mask may be wider than 64 bits). The deterministic
 * crash modes print the bare clause; the commit model's crash
 * failures append it to their schedule:
 *
 *     v1.3.0x14,1x3.crash@27:0x1b
 *
 * Numbers are plain decimal digits (hex after `0x`): no sign, space
 * or second prefix.
 */

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "storage/crash_capture.h"

namespace pccheck::mc {

/** Decoded replay token. */
struct ReplayToken {
    int num_threads = 0;
    /** Thread choice at each schedule point. */
    std::vector<std::uint8_t> choices;
    /** Index of the storage op after which the crash is taken
     *  (crash clause only). */
    std::optional<std::size_t> crash_op;
    /** Survivor mask over the unflushed lines at the crash point,
     *  ascending offset order (crash clause only). */
    LineMask crash_mask;
};

/** Encode a schedule (and optional crash clause) as a token string. */
std::string encode_token(int num_threads,
                         const std::vector<std::uint8_t>& choices,
                         std::optional<std::size_t> crash_op = std::nullopt,
                         const LineMask& crash_mask = {});

/** Decode a token; std::nullopt on any syntax error. */
std::optional<ReplayToken> decode_token(const std::string& text);

}  // namespace pccheck::mc

#endif  // PCCHECK_MC_TOKEN_H_
