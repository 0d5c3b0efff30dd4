#ifndef PCCHECK_MC_CRASH_ENUM_H_
#define PCCHECK_MC_CRASH_ENUM_H_

/**
 * @file
 * The commit protocol's crash mode: workload and oracle for the
 * shared enumerator (crash_images.h).
 *
 * The workload is one scheduled execution of the commit model, which
 * records a crash snapshot after every storage op. The oracle runs
 * the real recovery path (recover_to_buffer) on each crash image and
 * asserts:
 *
 *  - once a commit() has returned with its record durably published
 *    (the model's publish watermark), EVERY later crash image must
 *    recover a checkpoint at least that new — the paper's "at least
 *    one fully persisted checkpoint always exists";
 *  - any checkpoint recovery returns must be intact: iteration ==
 *    counter and the payload matches the deterministic pattern
 *    (recovery's CRC machinery must never accept torn data).
 *
 * A violating (schedule, crash point, mask) triple is encoded as a
 * replay token with a crash clause (token.h); replay_crash_token
 * re-runs exactly that image and returns the same verdict. A
 * violation of the scheduled run itself carries a token without a
 * crash clause.
 */

#include "mc/crash_images.h"
#include "mc/models.h"
#include "mc/token.h"

namespace pccheck::mc {

/**
 * Run the commit model once under @p strategy, recording crash
 * points, then enumerate crash images at every recorded storage op.
 * Stops at the first violation.
 */
CrashImageResult enumerate_crashes(const ModelConfig& config,
                                   Mutation mutation, Strategy& strategy);

/**
 * Deterministically re-run @p token with @p token.num_threads
 * threads: its schedule, then its crash image when it has a crash
 * clause. A schedule-only token gets the end-state checks of a
 * normal run. A crash clause whose op the run never reaches yields
 * `crash_points == 0` and no violation.
 */
CrashImageResult replay_crash_token(const ModelConfig& config,
                                    Mutation mutation,
                                    const ReplayToken& token);

}  // namespace pccheck::mc

#endif  // PCCHECK_MC_CRASH_ENUM_H_
