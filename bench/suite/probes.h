#ifndef PCCHECK_BENCH_SUITE_PROBES_H_
#define PCCHECK_BENCH_SUITE_PROBES_H_

/**
 * @file
 * Measurement probes owned by the benchmark suite (README.md). The
 * traced run swaps them in around the same public calls the untraced
 * run makes; none of them changes what the program does.
 *
 *  - Span: a bench-side span with exact per-kind count / total / self
 *    time tallies, also recorded through the program's obs/trace.h
 *    Tracer so the spans land in the --trace-out file.
 *  - TallyClock: a Clock decorator counting sleeps, short (poll)
 *    sleeps, and requested versus actual sleep seconds.
 *  - TimedDevice: a StorageDevice decorator timing every op.
 *  - sample_proc: getrusage(RUSAGE_SELF) plus the thread count.
 *  - percentile: refuses any percentile with fewer than
 *    kTailSamples samples beyond it.
 */

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "storage/device.h"
#include "util/bytes.h"
#include "util/clock.h"

namespace pccheck::suite {

/** Spans the suite records; each kind has its own exact tallies. */
enum class SpanKind : int {
    kStep,
    kBeforeUpdate,
    kRequest,
    kFinish,
    kRecover,
    kStorageWrite,
    kStoragePersist,
    kStorageRead,
    kStorageFence,
    kCoreSleep,
    kGpuSleep,
    kStorageSleep,
    kNetSleep,
    kServiceSleep,
};
inline constexpr int kSpanKinds = static_cast<int>(SpanKind::kServiceSleep) + 1;

/** Trace name of @p kind ("suite.step", ...); a string literal. */
const char* span_name(SpanKind kind);

/** Cumulative tallies of one span kind. */
struct SpanTotals {
    std::uint64_t count = 0;
    Seconds total_s = 0;
    /** Duration minus the same-thread child spans it enclosed. */
    Seconds self_s = 0;
};

/** Current tallies of every span kind (monotonic; diff two calls). */
std::array<SpanTotals, kSpanKinds> span_totals();

/**
 * Tags spans opened on this thread with @p id (the step's iteration)
 * for the scope's lifetime and records @p id as the newest request;
 * spans on threads without a scope (writer pools, copy engines)
 * carry the newest request id instead.
 */
class RequestScope {
  public:
    explicit RequestScope(std::uint64_t id);
    ~RequestScope();
    RequestScope(const RequestScope&) = delete;
    RequestScope& operator=(const RequestScope&) = delete;

  private:
    std::uint64_t saved_;
};

/** RAII span; inert when constructed with @p on == false. */
class Span {
  public:
    Span(SpanKind kind, bool on);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

  private:
    SpanKind kind_;
    bool on_;
    std::uint64_t begin_ns_ = 0;
    std::uint64_t child_ns_ = 0;
    Span* parent_ = nullptr;
};

/**
 * Clock decorator that tallies every sleep and records it as a span
 * of @p sleep_kind. Sleeps of at most kShortSleep are counted again
 * as short sleeps: the program's buffer and slot polls (20 us).
 */
class TallyClock final : public Clock {
  public:
    static constexpr Seconds kShortSleep = 50e-6;

    explicit TallyClock(SpanKind sleep_kind,
                        const Clock& base = MonotonicClock::instance());

    Seconds now() const override { return base_.now(); }
    void sleep_for(Seconds duration) const override;

    struct Totals {
        std::uint64_t sleeps = 0;
        std::uint64_t short_sleeps = 0;
        Seconds requested_s = 0;
        Seconds actual_s = 0;
    };
    Totals totals() const;

  private:
    const Clock& base_;
    SpanKind kind_;
    mutable std::atomic<std::uint64_t> sleeps_{0};
    mutable std::atomic<std::uint64_t> short_sleeps_{0};
    mutable std::atomic<std::uint64_t> requested_ns_{0};
    mutable std::atomic<std::uint64_t> actual_ns_{0};
};

/**
 * Timing StorageDevice decorator (not owning). Every op is counted,
 * sized and timed, and recorded as a span. Ops at offsets at or past
 * @p split are tallied a second time in the upper totals, which is
 * how the service's segment region is told apart from tenant windows.
 */
class TimedDevice final : public StorageDevice {
  public:
    explicit TimedDevice(StorageDevice& inner,
                         Bytes split = std::numeric_limits<Bytes>::max());

    Bytes size() const override { return inner_.size(); }
    StorageStatus write(Bytes offset, const void* src, Bytes len) override;
    StorageStatus read(Bytes offset, void* dst, Bytes len) const override;
    StorageStatus persist(Bytes offset, Bytes len) override;
    StorageStatus fence() override;
    StorageKind kind() const override { return inner_.kind(); }
    void set_observe_hook(
        std::function<void(const StorageOp&)> hook) override
    {
        inner_.set_observe_hook(std::move(hook));
    }

    struct OpTotals {
        std::uint64_t calls = 0;
        Bytes bytes = 0;
        Seconds busy_s = 0;
    };
    struct Totals {
        OpTotals write;
        OpTotals persist;
        OpTotals read;
        std::uint64_t fences = 0;
    };
    /** Every op (@p upper false) or only ops at/after the split. */
    Totals totals(bool upper = false) const;

  private:
    enum Op { kWrite, kPersist, kRead, kOps };
    struct Tally {
        std::atomic<std::uint64_t> calls{0};
        std::atomic<std::uint64_t> bytes{0};
        std::atomic<std::uint64_t> ns{0};
    };

    void note(Op op, Bytes offset, Bytes len, std::uint64_t ns) const;

    StorageDevice& inner_;
    Bytes split_;
    mutable std::array<std::array<Tally, kOps>, 2> tally_;
    std::atomic<std::uint64_t> fences_{0};
};

/** getrusage(RUSAGE_SELF) and thread count at one instant. */
struct ProcSample {
    Seconds user_s = 0;
    Seconds sys_s = 0;
    std::uint64_t vol_ctx_switches = 0;
    std::uint64_t invol_ctx_switches = 0;
    double max_rss_mib = 0;
    int threads = 0;
};
ProcSample sample_proc();

/** Samples that must lie beyond a percentile for it to be reported. */
inline constexpr std::size_t kTailSamples = 10;

/**
 * Nearest-rank @p q quantile of @p samples, or std::nullopt when
 * fewer than kTailSamples samples lie beyond it. Reorders @p samples.
 */
std::optional<double> percentile(std::vector<double>& samples, double q);

}  // namespace pccheck::suite

#endif  // PCCHECK_BENCH_SUITE_PROBES_H_
