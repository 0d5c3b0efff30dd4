/**
 * @file
 * pccheck_bench: the benchmark later performance claims are judged by
 * (bench/suite/README.md).
 *
 * Usage:
 *   pccheck_bench [--workload=NAME|all] [--seed=N] [--seconds=S]
 *                 [--smoke] [--trace-out=FILE]
 *   pccheck_bench --selftest [--seed=N]
 *
 * Untraced, each workload prints every end-to-end metric as
 * "workload metric value unit", an audit line, and a last line holding
 * one JSON object {"correct", "attempted", "failed", "metrics"}. With
 * --trace-out each workload runs twice, untraced and then traced with
 * the suite's probes, and prints the per-layer metrics instead, plus
 * trace.overhead and trace.dropped; its spans go to FILE (one file per
 * workload under --workload=all). --workload=all runs every workload
 * in its own process. The exit code is non-zero when an audit fails,
 * a flag is unknown, or the build is unfit to report from.
 */

#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.h"
#include "probes.h"
#include "psan/psan.h"
#include "storage/mem_storage.h"
#include "util/logging.h"
#include "workloads.h"

using namespace pccheck;
using namespace pccheck::suite;

namespace {

#ifndef PCCHECK_SUITE_BUILD_TYPE
#define PCCHECK_SUITE_BUILD_TYPE "unknown"
#endif

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    defined(PCCHECK_SUITE_SANITIZED)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) ||                                       \
    __has_feature(undefined_behavior_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#if defined(__OPTIMIZE__)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

struct Cli {
    std::string workload = "all";
    std::uint64_t seed = 1;
    Seconds seconds = 15;
    bool smoke = false;
    bool selftest = false;
    std::string trace_out;
};

void
usage()
{
    std::fprintf(stderr,
                 "usage: pccheck_bench [--workload=NAME|all] [--seed=N] "
                 "[--seconds=S] [--smoke] [--trace-out=FILE]\n"
                 "       pccheck_bench --selftest [--seed=N]\n"
                 "workloads:");
    for (const Workload& workload : all_workloads()) {
        std::fprintf(stderr, " %s", workload.name);
    }
    std::fprintf(stderr, "\n");
}

/** Strict parser: every flag must be known and well formed. */
bool
parse_cli(int argc, char** argv, Cli* cli)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const std::size_t eq = arg.find('=');
        const std::string flag = arg.substr(0, eq);
        const std::string value =
            eq == std::string::npos ? "" : arg.substr(eq + 1);
        const bool has_value = eq != std::string::npos && !value.empty();
        char* end = nullptr;
        if (flag == "--workload" && has_value) {
            cli->workload = value;
        } else if (flag == "--seed" && has_value) {
            cli->seed = std::strtoull(value.c_str(), &end, 10);
            if (*end != '\0' || value[0] == '-') {
                std::fprintf(stderr, "bad --seed: %s\n", value.c_str());
                return false;
            }
        } else if (flag == "--seconds" && has_value) {
            cli->seconds = std::strtod(value.c_str(), &end);
            if (*end != '\0' || !(cli->seconds > 0) ||
                cli->seconds > 3600) {
                std::fprintf(stderr, "bad --seconds: %s\n", value.c_str());
                return false;
            }
        } else if (flag == "--trace-out" && has_value) {
            cli->trace_out = value;
        } else if (arg == "--smoke") {
            cli->smoke = true;
        } else if (arg == "--selftest") {
            cli->selftest = true;
        } else {
            std::fprintf(stderr, "unknown or malformed flag: %s\n",
                         arg.c_str());
            return false;
        }
    }
    if (cli->workload != "all") {
        for (const Workload& workload : all_workloads()) {
            if (cli->workload == workload.name) {
                return true;
            }
        }
        std::fprintf(stderr, "unknown workload: %s\n", cli->workload.c_str());
        return false;
    }
    return true;
}

/** Why this build must not report numbers; empty when it may. */
std::string
build_refusal()
{
    if (kSanitized) {
        return "built with a sanitizer";
    }
    if (!kOptimized) {
        return "built without optimization";
    }
    if (psan::psan_default_enabled()) {
        return "the persistence sanitizer is on (PCCHECK_PSAN)";
    }
    return "";
}

void
print_header(const Cli& cli)
{
#if defined(__clang__)
    const char* compiler = "clang";
#else
    const char* compiler = "gcc";
#endif
    std::printf("# pccheck_bench build=%s compiler=%s-%s nproc=%u seed=%llu "
                "seconds=%g%s\n",
                PCCHECK_SUITE_BUILD_TYPE, compiler, __VERSION__,
                std::thread::hardware_concurrency(),
                static_cast<unsigned long long>(cli.seed), cli.seconds,
                cli.smoke ? " smoke" : "");
}

/** "trace.json" -> "trace.<workload>.json". */
std::string
trace_path_for(const std::string& path, const std::string& workload)
{
    const std::size_t dot = path.rfind('.');
    const std::size_t slash = path.rfind('/');
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash)) {
        return path + "." + workload;
    }
    return path.substr(0, dot) + "." + workload + path.substr(dot);
}

void
print_result(const char* workload, const WorkloadResult& result)
{
    for (const Metric& m : result.metrics) {
        if (std::isfinite(m.value)) {
            std::printf("%s %s %.9g %s", workload, m.name.c_str(), m.value,
                        m.unit.c_str());
        } else {
            std::printf("%s %s refused %s", workload, m.name.c_str(),
                        m.unit.c_str());
        }
        if (m.note.empty()) {
            std::printf("\n");
        } else {
            std::printf("  # %s\n", m.note.c_str());
        }
    }
    for (const std::string& note : result.notes) {
        std::printf("# %s %s\n", workload, note.c_str());
    }
    std::printf("%s audit %s attempted=%llu failed=%llu: %s\n", workload,
                result.audit_ok ? "ok" : "FAIL",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed),
                result.audit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                result.audit_ok ? "true" : "false",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed));
    const char* sep = "";
    for (const Metric& m : result.metrics) {
        if (std::isfinite(m.value)) {
            std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                        m.name.c_str(), m.value, m.unit.c_str());
            sep = ", ";
        }
    }
    std::printf("}}\n");
}

/** Runs one workload in this process. @return the exit code. */
int
run_workload(const Workload& workload, const Cli& cli,
             const std::string& trace_out)
{
    RunOptions options;
    options.seed = cli.seed;
    options.seconds = cli.seconds;
    options.smoke = cli.smoke;
    WorkloadResult result = workload.run(options);
    if (!trace_out.empty()) {
        const WorkloadResult plain = result;
        options.traced = true;
        result = workload.run(options);
        result.audit_ok = result.audit_ok && plain.audit_ok;
        char note[96];
        std::snprintf(note, sizeof(note), "ops_s untraced %.6g traced %.6g",
                      plain.ops_s, result.ops_s);
        result.metrics.push_back(
            {"trace.overhead",
             plain.ops_s > 0 ? 1.0 - result.ops_s / plain.ops_s : 0.0,
             "ratio", note});
        result.metrics.push_back(
            {"trace.dropped",
             static_cast<double>(Tracer::global().dropped_count()), "count",
             ""});
        if (Tracer::global().write_file(trace_out)) {
            std::printf("# %s trace: %zu spans -> %s\n", workload.name,
                        Tracer::global().event_count(), trace_out.c_str());
        } else {
            std::printf("# %s trace: failed to write %s\n", workload.name,
                        trace_out.c_str());
        }
    }
    print_result(workload.name, result);
    return result.audit_ok ? 0 : 1;
}

/** Runs every workload in a forked child process, one at a time. */
int
run_all(const Cli& cli)
{
    const Seconds start = MonotonicClock::instance().now();
    int failures = 0;
    for (const Workload& workload : all_workloads()) {
        std::fflush(stdout);
        const pid_t pid = fork();
        if (pid < 0) {
            std::perror("fork");
            return 1;
        }
        if (pid == 0) {
            const std::string trace =
                cli.trace_out.empty()
                    ? ""
                    : trace_path_for(cli.trace_out, workload.name);
            const int code = run_workload(workload, cli, trace);
            std::fflush(stdout);
            _exit(code);
        }
        int status = 0;
        if (waitpid(pid, &status, 0) < 0 || !WIFEXITED(status) ||
            WEXITSTATUS(status) != 0) {
            std::printf("# %s: child failed (status %d)\n", workload.name,
                        status);
            ++failures;
        }
    }
    std::printf("# all workloads: %s, %.1f s wall\n",
                failures == 0 ? "ok" : "FAILED",
                MonotonicClock::instance().now() - start);
    return failures == 0 ? 0 : 1;
}

int
selftest(std::uint64_t seed)
{
    std::vector<std::string> failures;
    const auto expect = [&failures](bool ok, const std::string& what) {
        if (!ok) {
            failures.push_back(what);
        }
    };

    {
        const TallyClock clock(SpanKind::kCoreSleep);
        for (int i = 0; i < 5; ++i) {
            clock.sleep_for(20e-6);
        }
        clock.sleep_for(1e-3);
        clock.sleep_for(1e-3);
        clock.sleep_for(0);
        const TallyClock::Totals t = clock.totals();
        expect(t.sleeps == 7, "TallyClock counts 7 sleeps");
        expect(t.short_sleeps == 5, "TallyClock counts 5 short sleeps");
        expect(std::fabs(t.requested_s - 2.1e-3) < 1e-8,
               "TallyClock sums 2.1 ms requested");
        expect(t.actual_s >= t.requested_s,
               "TallyClock actual >= requested");
    }
    {
        MemStorage memory(kMiB);
        TimedDevice device(memory, 512 * kKiB);
        int observed = 0;
        device.set_observe_hook([&observed](const StorageOp&) { ++observed; });
        std::vector<std::uint8_t> buf(16 * kKiB, 7);
        const bool ok =
            device.write(0, buf.data(), 4 * kKiB).ok() &&
            device.write(600 * kKiB, buf.data(), 8 * kKiB).ok() &&
            device.persist(0, 4 * kKiB).ok() &&
            device.read(600 * kKiB, buf.data(), 16).ok() &&
            device.fence().ok();
        const TimedDevice::Totals all = device.totals();
        const TimedDevice::Totals upper = device.totals(true);
        expect(ok, "TimedDevice forwards ops");
        expect(all.write.calls == 2 && all.write.bytes == 12 * kKiB,
               "TimedDevice counts writes");
        expect(upper.write.calls == 1 && upper.write.bytes == 8 * kKiB,
               "TimedDevice splits writes at the boundary");
        expect(all.persist.calls == 1 && upper.persist.calls == 0,
               "TimedDevice counts persists");
        expect(all.read.calls == 1 && upper.read.bytes == 16,
               "TimedDevice counts reads");
        expect(all.fences == 1, "TimedDevice counts fences");
        expect(observed == 4, "TimedDevice forwards set_observe_hook");
    }
    {
        const auto before = span_totals();
        {
            Span outer(SpanKind::kStep, true);
            {
                Span inner(SpanKind::kRecover, true);
                MonotonicClock::instance().sleep_for(2e-3);
            }
            MonotonicClock::instance().sleep_for(1e-3);
        }
        const auto after = span_totals();
        const SpanTotals& step_before = before[static_cast<int>(SpanKind::kStep)];
        const SpanTotals& step = after[static_cast<int>(SpanKind::kStep)];
        const double total = step.total_s - step_before.total_s;
        const double self = step.self_s - step_before.self_s;
        expect(step.count == step_before.count + 1, "Span counts");
        expect(total >= 3e-3, "Span total covers its children");
        expect(self >= 1e-3 && self < total - 1.9e-3,
               "Span self time excludes same-thread children");
    }
    {
        const auto descending = [](int n) {
            std::vector<double> out;
            for (int i = n; i >= 1; --i) {
                out.push_back(i);
            }
            return out;
        };
        std::vector<double> hundred = descending(100);
        auto p50 = percentile(hundred, 0.50);
        auto p90 = percentile(hundred, 0.90);
        auto p99 = percentile(hundred, 0.99);
        expect(p50 && *p50 == 50, "p50 of 1..100 is 50");
        expect(p90 && *p90 == 90, "p90 of 1..100 is 90");
        expect(!p99, "p99 of 100 samples is refused");
        std::vector<double> twenty = descending(20);
        std::vector<double> nineteen = descending(19);
        auto p50_20 = percentile(twenty, 0.50);
        expect(p50_20 && *p50_20 == 10, "p50 of 20 samples is the 10th");
        expect(!percentile(nineteen, 0.50), "p50 of 19 samples is refused");
    }
    {
        const ProcSample proc = sample_proc();
        expect(proc.threads >= 1 && proc.max_rss_mib > 0 &&
                   proc.user_s + proc.sys_s > 0,
               "rusage sampler reads the process");
    }
    const std::string audit = check_recover_audit(seed);
    expect(audit.empty(), audit);

    for (const std::string& failure : failures) {
        std::printf("selftest FAIL: %s\n", failure.c_str());
    }
    std::printf("# selftest %s\n", failures.empty() ? "ok" : "FAILED");
    return failures.empty() ? 0 : 1;
}

}  // namespace

int
main(int argc, char** argv)
{
    Cli cli;
    if (!parse_cli(argc, argv, &cli)) {
        usage();
        return 2;
    }
    set_log_level(LogLevel::kWarn);
    print_header(cli);
    const std::string refusal = build_refusal();
    if (!refusal.empty()) {
        std::printf("# refusing to report: %s\n", refusal.c_str());
        return 3;
    }
    if (cli.selftest) {
        return selftest(cli.seed);
    }
    if (cli.workload == "all") {
        return run_all(cli);
    }
    for (const Workload& workload : all_workloads()) {
        if (cli.workload == workload.name) {
            return run_workload(workload, cli, cli.trace_out);
        }
    }
    return 2;
}
