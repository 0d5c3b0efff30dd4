#include "probes.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <string>

#include "obs/trace.h"

namespace pccheck::suite {
namespace {

struct KindTally {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> total_ns{0};
    std::atomic<std::uint64_t> self_ns{0};
};

std::array<KindTally, kSpanKinds> g_spans;

/** Newest request id, for spans on threads without a RequestScope. */
std::atomic<std::uint64_t> g_newest_request{0};

thread_local std::uint64_t t_request = 0;
thread_local Span* t_open = nullptr;

std::uint64_t
current_request()
{
    // relaxed: the id only labels spans; no ordering is implied.
    return t_request != 0 ? t_request
                          : g_newest_request.load(std::memory_order_relaxed);
}

Seconds
ns_to_s(std::uint64_t ns)
{
    return static_cast<double>(ns) * 1e-9;
}

std::uint64_t
s_to_ns(Seconds s)
{
    return static_cast<std::uint64_t>(std::llround(s * 1e9));
}

}  // namespace

const char*
span_name(SpanKind kind)
{
    switch (kind) {
      case SpanKind::kStep: return "suite.step";
      case SpanKind::kBeforeUpdate: return "suite.before_update";
      case SpanKind::kRequest: return "suite.request_checkpoint";
      case SpanKind::kFinish: return "suite.finish";
      case SpanKind::kRecover: return "suite.recover";
      case SpanKind::kStorageWrite: return "suite.storage.write";
      case SpanKind::kStoragePersist: return "suite.storage.persist";
      case SpanKind::kStorageRead: return "suite.storage.read";
      case SpanKind::kStorageFence: return "suite.storage.fence";
      case SpanKind::kCoreSleep: return "suite.core.sleep";
      case SpanKind::kGpuSleep: return "suite.gpusim.sleep";
      case SpanKind::kStorageSleep: return "suite.storage.sleep";
      case SpanKind::kNetSleep: return "suite.net.sleep";
      case SpanKind::kServiceSleep: return "suite.service.sleep";
    }
    return "suite.unknown";
}

std::array<SpanTotals, kSpanKinds>
span_totals()
{
    std::array<SpanTotals, kSpanKinds> out;
    for (int k = 0; k < kSpanKinds; ++k) {
        // relaxed: monotonic tallies read between windows.
        out[k].count = g_spans[k].count.load(std::memory_order_relaxed);
        out[k].total_s =
            ns_to_s(g_spans[k].total_ns.load(std::memory_order_relaxed));
        out[k].self_s =
            ns_to_s(g_spans[k].self_ns.load(std::memory_order_relaxed));
    }
    return out;
}

RequestScope::RequestScope(std::uint64_t id) : saved_(t_request)
{
    t_request = id;
    g_newest_request.store(id, std::memory_order_relaxed);
}

RequestScope::~RequestScope()
{
    t_request = saved_;
}

Span::Span(SpanKind kind, bool on) : kind_(kind), on_(on)
{
    if (on_) {
        parent_ = t_open;
        t_open = this;
        begin_ns_ = Tracer::now_ns();
    }
}

Span::~Span()
{
    if (!on_) {
        return;
    }
    const std::uint64_t end_ns = Tracer::now_ns();
    const std::uint64_t duration = end_ns - begin_ns_;
    t_open = parent_;
    if (parent_ != nullptr) {
        parent_->child_ns_ += duration;
    }
    KindTally& tally = g_spans[static_cast<int>(kind_)];
    tally.count.fetch_add(1, std::memory_order_relaxed);
    tally.total_ns.fetch_add(duration, std::memory_order_relaxed);
    tally.self_ns.fetch_add(duration - std::min(child_ns_, duration),
                            std::memory_order_relaxed);
    const TraceArg arg{"req", current_request()};
    Tracer::global().record(span_name(kind_), begin_ns_, end_ns, &arg, 1);
}

TallyClock::TallyClock(SpanKind sleep_kind, const Clock& base)
    : base_(base), kind_(sleep_kind)
{
}

void
TallyClock::sleep_for(Seconds duration) const
{
    if (duration <= 0) {
        base_.sleep_for(duration);
        return;
    }
    Span span(kind_, true);
    const std::uint64_t start = Tracer::now_ns();
    base_.sleep_for(duration);
    const std::uint64_t slept = Tracer::now_ns() - start;
    sleeps_.fetch_add(1, std::memory_order_relaxed);
    if (duration <= kShortSleep) {
        short_sleeps_.fetch_add(1, std::memory_order_relaxed);
    }
    requested_ns_.fetch_add(s_to_ns(duration), std::memory_order_relaxed);
    actual_ns_.fetch_add(slept, std::memory_order_relaxed);
}

TallyClock::Totals
TallyClock::totals() const
{
    Totals out;
    out.sleeps = sleeps_.load(std::memory_order_relaxed);
    out.short_sleeps = short_sleeps_.load(std::memory_order_relaxed);
    out.requested_s =
        ns_to_s(requested_ns_.load(std::memory_order_relaxed));
    out.actual_s = ns_to_s(actual_ns_.load(std::memory_order_relaxed));
    return out;
}

TimedDevice::TimedDevice(StorageDevice& inner, Bytes split)
    : inner_(inner), split_(split)
{
}

void
TimedDevice::note(Op op, Bytes offset, Bytes len, std::uint64_t ns) const
{
    for (int half = 0; half < (offset >= split_ ? 2 : 1); ++half) {
        Tally& tally = tally_[half][op];
        tally.calls.fetch_add(1, std::memory_order_relaxed);
        tally.bytes.fetch_add(len, std::memory_order_relaxed);
        tally.ns.fetch_add(ns, std::memory_order_relaxed);
    }
}

StorageStatus
TimedDevice::write(Bytes offset, const void* src, Bytes len)
{
    Span span(SpanKind::kStorageWrite, true);
    const std::uint64_t start = Tracer::now_ns();
    const StorageStatus status = inner_.write(offset, src, len);
    note(kWrite, offset, len, Tracer::now_ns() - start);
    return status;
}

StorageStatus
TimedDevice::read(Bytes offset, void* dst, Bytes len) const
{
    Span span(SpanKind::kStorageRead, true);
    const std::uint64_t start = Tracer::now_ns();
    const StorageStatus status = inner_.read(offset, dst, len);
    note(kRead, offset, len, Tracer::now_ns() - start);
    return status;
}

StorageStatus
TimedDevice::persist(Bytes offset, Bytes len)
{
    Span span(SpanKind::kStoragePersist, true);
    const std::uint64_t start = Tracer::now_ns();
    const StorageStatus status = inner_.persist(offset, len);
    note(kPersist, offset, len, Tracer::now_ns() - start);
    return status;
}

StorageStatus
TimedDevice::fence()
{
    Span span(SpanKind::kStorageFence, true);
    fences_.fetch_add(1, std::memory_order_relaxed);
    return inner_.fence();
}

TimedDevice::Totals
TimedDevice::totals(bool upper) const
{
    const auto& half = tally_[upper ? 1 : 0];
    const auto read_op = [](const Tally& tally) {
        OpTotals op;
        op.calls = tally.calls.load(std::memory_order_relaxed);
        op.bytes = tally.bytes.load(std::memory_order_relaxed);
        op.busy_s = ns_to_s(tally.ns.load(std::memory_order_relaxed));
        return op;
    };
    Totals out;
    out.write = read_op(half[kWrite]);
    out.persist = read_op(half[kPersist]);
    out.read = read_op(half[kRead]);
    out.fences = upper ? 0 : fences_.load(std::memory_order_relaxed);
    return out;
}

ProcSample
sample_proc()
{
    ProcSample out;
    rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) == 0) {
        out.user_s = static_cast<double>(usage.ru_utime.tv_sec) +
                     static_cast<double>(usage.ru_utime.tv_usec) * 1e-6;
        out.sys_s = static_cast<double>(usage.ru_stime.tv_sec) +
                    static_cast<double>(usage.ru_stime.tv_usec) * 1e-6;
        out.vol_ctx_switches = static_cast<std::uint64_t>(usage.ru_nvcsw);
        out.invol_ctx_switches =
            static_cast<std::uint64_t>(usage.ru_nivcsw);
        out.max_rss_mib = static_cast<double>(usage.ru_maxrss) / 1024.0;
    }
    std::ifstream status("/proc/self/status");
    std::string key;
    while (status >> key) {
        if (key == "Threads:") {
            status >> out.threads;
            break;
        }
        status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
    }
    return out;
}

std::optional<double>
percentile(std::vector<double>& samples, double q)
{
    const std::size_t n = samples.size();
    if (n == 0 || q < 0 || q > 1) {
        return std::nullopt;
    }
    // Nearest rank, 1-based; the epsilon keeps 0.99 * 1000 at 990.
    const auto rank = std::clamp<std::size_t>(
        static_cast<std::size_t>(
            std::ceil(q * static_cast<double>(n) - 1e-9)),
        1, n);
    if (n - rank < kTailSamples) {
        return std::nullopt;
    }
    const auto nth = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
    std::nth_element(samples.begin(), nth, samples.end());
    return *nth;
}

}  // namespace pccheck::suite
