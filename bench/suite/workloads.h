#ifndef PCCHECK_BENCH_SUITE_WORKLOADS_H_
#define PCCHECK_BENCH_SUITE_WORKLOADS_H_

/**
 * @file
 * The five benchmark workloads (README.md). Each is a closed loop
 * driven from at most four threads, reaches the program only through
 * its public entry points, measures one timed window, and audits the
 * program's output afterwards.
 */

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/clock.h"

namespace pccheck::suite {

/** Knobs of one workload run. */
struct RunOptions {
    /** Fixes the step-time jitter and the sparse-update pattern. */
    std::uint64_t seed = 1;
    /** Length of the timed window. */
    Seconds seconds = 15;
    /** A short warm-up in the set-up (ctest smoke). */
    bool smoke = false;
    /** Probes on: report per-layer instead of end-to-end metrics. */
    bool traced = false;
};

/** One reported value. A NaN value is a refused percentile. */
struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
    /** Printed after the unit, e.g. "p99 n=4312". */
    std::string note;
};

/** Everything one workload run reports. */
struct WorkloadResult {
    std::vector<Metric> metrics;
    /** Checkpoints requested (recoveries on recover) in the window. */
    std::uint64_t attempted = 0;
    /** Aborted checkpoints, or failed or wrong recoveries. */
    std::uint64_t failed = 0;
    bool audit_ok = false;
    std::string audit;
    /** Extra comment lines (the traced run's span self times). */
    std::vector<std::string> notes;
    /** ops_s: the primary metric trace.overhead compares. */
    double ops_s = 0;
};

struct Workload {
    const char* name;
    WorkloadResult (*run)(const RunOptions&);
};

/** train-ssd, train-replicated, ceiling, service-64, recover. */
const std::vector<Workload>& all_workloads();

/** Per-layer metric names and units, in report order. */
const std::vector<std::pair<std::string, std::string>>& layer_metrics();

/**
 * Selftest of the recover audit: it must accept the image the
 * recover workload writes and reject the same image with every slot
 * corrupted. @return an empty string on success, else the failure.
 */
std::string check_recover_audit(std::uint64_t seed);

}  // namespace pccheck::suite

#endif  // PCCHECK_BENCH_SUITE_WORKLOADS_H_
