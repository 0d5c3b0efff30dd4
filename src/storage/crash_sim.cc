#include "storage/crash_sim.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "util/check.h"

namespace pccheck {
namespace {

constexpr Bytes kCacheLineBytes = 64;
constexpr Bytes kPageBytes = 4096;

Bytes
line_size_for(StorageKind kind)
{
    switch (kind) {
      case StorageKind::kSsdMsync:
        return kPageBytes;
      case StorageKind::kPmemClwb:
      case StorageKind::kPmemNt:
      case StorageKind::kCxlPmem:
        return kCacheLineBytes;
      case StorageKind::kDram:
        return kCacheLineBytes;
    }
    return kCacheLineBytes;
}

}  // namespace

CrashSimStorage::CrashSimStorage(Bytes size, StorageKind kind,
                                 std::uint64_t seed,
                                 double eviction_probability)
    : kind_(kind), line_size_(line_size_for(kind)), size_(size),
      volatile_(size, 0), durable_(size, 0), rng_(seed),
      eviction_probability_(eviction_probability)
{
    PCCHECK_CHECK(kind != StorageKind::kDram);
    PCCHECK_CHECK(eviction_probability >= 0.0 &&
                  eviction_probability <= 1.0);
}

StorageStatus
CrashSimStorage::write(Bytes offset, const void* src, Bytes len)
{
    PCCHECK_CHECK_MSG(range_fits(offset, len, size_),
                      "write out of range off=" << offset << " len=" << len);
    {
        MutexLock lock(mu_);
        std::memcpy(volatile_.data() + offset, src, len);
        const Bytes first = line_of(offset);
        const Bytes last = len ? line_of(offset + len - 1) : first;
        for (Bytes line = first; line <= last; ++line) {
            dirty_.insert(line);
            // Rewriting a line invalidates any in-flight write-back of
            // the previous value; it must be persisted again.
            pending_.erase(line);
        }
        applied();
    }
    if (post_op_hook_) {
        post_op_hook_(StorageOp{StorageOp::Kind::kWrite, offset, len});
    }
    return StorageStatus::success();
}

StorageStatus
CrashSimStorage::read(Bytes offset, void* dst, Bytes len) const
{
    if (!range_fits(offset, len, size_)) {
        return StorageStatus::permanent_error("crash_sim.read_range");
    }
    MutexLock lock(mu_);
    // copy_n, not memcpy: an empty read may name a null buffer.
    std::copy_n(volatile_.data() + offset, len,
                static_cast<std::uint8_t*>(dst));
    return StorageStatus::success();
}

StorageStatus
CrashSimStorage::persist(Bytes offset, Bytes len)
{
    PCCHECK_CHECK(range_fits(offset, len, size_));
    if (len == 0) {
        return StorageStatus::success();
    }
    {
        MutexLock lock(mu_);
        const Bytes first = line_of(offset);
        const Bytes last = line_of(offset + len - 1);
        for (Bytes line = first; line <= last; ++line) {
            if (kind_ == StorageKind::kSsdMsync) {
                // msync is synchronously durable.
                commit_line(line);
                dirty_.erase(line);
            } else if (dirty_.erase(line) > 0) {
                // clwb / nt-store: write-back initiated, durable at
                // fence.
                pending_.insert(line);
            }
        }
        applied();
    }
    if (post_op_hook_) {
        post_op_hook_(StorageOp{StorageOp::Kind::kPersist, offset, len});
    }
    return StorageStatus::success();
}

StorageStatus
CrashSimStorage::fence()
{
    {
        MutexLock lock(mu_);
        for (Bytes line : pending_) {
            commit_line(line);
        }
        pending_.clear();
        applied();
    }
    if (post_op_hook_) {
        post_op_hook_(StorageOp{StorageOp::Kind::kFence, 0, 0});
    }
    return StorageStatus::success();
}

void
CrashSimStorage::crash()
{
    MutexLock lock(mu_);
    // Unfenced-but-flushed lines and plain dirty lines may each have
    // reached the media, in arbitrary order.
    auto maybe_evict = [this](const std::unordered_set<Bytes>& lines) {
        for (Bytes line : lines) {
            if (rng_.chance(eviction_probability_)) {
                commit_line(line);
            }
        }
    };
    maybe_evict(pending_);
    maybe_evict(dirty_);
    pending_.clear();
    dirty_.clear();
    // Post-crash reads observe exactly the durable image.
    volatile_ = durable_;
}

void
CrashSimStorage::set_capture_hook(CaptureHook hook)
{
    MutexLock lock(mu_);
    capture_hook_ = std::move(hook);
    show_state();
}

CrashSnapshot
CrashSimStorage::snapshot() const
{
    MutexLock lock(mu_);
    return snapshot_locked();
}

std::size_t
CrashSimStorage::ops() const
{
    MutexLock lock(mu_);
    return ops_;
}

void
CrashSimStorage::applied()
{
    ++ops_;
    show_state();
}

void
CrashSimStorage::show_state() const
{
    if (capture_hook_) {
        // The copy runs inside the hook, under the caller's lock hold.
        capture_hook_(ops_, [this]() PCCHECK_NO_THREAD_SAFETY_ANALYSIS {
            return snapshot_locked();
        });
    }
}

CrashSnapshot
CrashSimStorage::snapshot_locked() const
{
    CrashSnapshot snap;
    snap.op_index = ops_;
    snap.line_size = line_size_;
    snap.durable = durable_;
    snap.lines.reserve(dirty_.size() + pending_.size());
    snap.lines.insert(snap.lines.end(), dirty_.begin(), dirty_.end());
    snap.lines.insert(snap.lines.end(), pending_.begin(), pending_.end());
    std::sort(snap.lines.begin(), snap.lines.end());
    snap.line_data.reserve(snap.lines.size());
    for (Bytes line : snap.lines) {
        const auto start =
            volatile_.begin() + static_cast<std::ptrdiff_t>(line * line_size_);
        const Bytes len = std::min(line_size_, size_ - line * line_size_);
        snap.line_data.emplace_back(start,
                                    start + static_cast<std::ptrdiff_t>(len));
    }
    return snap;
}

std::size_t
CrashSimStorage::dirty_lines() const
{
    MutexLock lock(mu_);
    return dirty_.size();
}

std::size_t
CrashSimStorage::pending_lines() const
{
    MutexLock lock(mu_);
    return pending_.size();
}

void
CrashSimStorage::commit_line(Bytes line)
{
    const Bytes start = line * line_size_;
    const Bytes len = std::min(line_size_, size_ - start);
    std::memcpy(durable_.data() + start, volatile_.data() + start, len);
}

}  // namespace pccheck
