#include "remote/replica_store.h"

#include <cstring>

#include "util/check.h"
#include "util/crc32.h"
#include "util/metrics.h"

namespace pccheck {

ReplicaStore::ReplicaStore(Bytes dram_budget) : budget_(dram_budget) {}

bool
ReplicaStore::make_room(Bytes need, std::uint64_t incoming)
{
    if (budget_ == 0) {
        return true;
    }
    if (need > budget_) {
        return false;  // a single version can never fit
    }
    // Protect the newest complete version: it is the replica's reason
    // to exist (the recovery target when the owner's node is lost).
    std::uint64_t protect = 0;
    for (auto it = versions_.rbegin(); it != versions_.rend(); ++it) {
        if (it->second.complete) {
            protect = it->first;
            break;
        }
    }
    while (held_ + need > budget_) {
        // Oldest victim first: stale and incomplete versions go before
        // anything recovery could want.
        auto victim = versions_.end();
        for (auto it = versions_.begin(); it != versions_.end(); ++it) {
            if (it->first == protect || it->first == incoming) {
                continue;
            }
            victim = it;
            break;
        }
        if (victim == versions_.end()) {
            return false;
        }
        held_ -= victim->second.data.size();
        versions_.erase(victim);
        ++evictions_;
        // Cached handle: make_room runs under the store's mutex, and a
        // registry lookup (string ctor + registry mutex) would nest
        // that lock inside this one on every eviction.
        static Counter& evictions_counter =
            MetricsRegistry::global().counter(
                "pccheck.replication.evictions");
        evictions_counter.add();
    }
    return true;
}

void
ReplicaStore::prune_superseded()
{
    std::uint64_t newest = 0;
    for (auto it = versions_.rbegin(); it != versions_.rend(); ++it) {
        if (it->second.complete) {
            newest = it->first;
            break;
        }
    }
    if (newest == 0) {
        return;
    }
    for (auto it = versions_.begin(); it != versions_.end();) {
        if (it->first < newest) {
            // Keep one buffer for the next version; free the rest.
            if (spare_.empty()) {
                spare_ = std::move(it->second.data);
            } else {
                held_ -= it->second.data.size();
            }
            it = versions_.erase(it);
        } else {
            ++it;
        }
    }
}

ReplicaStore::ChunkResult
ReplicaStore::store_chunk(std::uint64_t counter, std::uint64_t iteration,
                          Bytes total_len, Bytes offset, const void* data,
                          Bytes len)
{
    PCCHECK_CHECK(offset + len <= total_len);
    MutexLock lock(mu_);
    auto it = versions_.find(counter);
    if (it == versions_.end()) {
        if (spare_.size() != total_len) {
            held_ -= spare_.size();
            std::vector<std::uint8_t>().swap(spare_);
            if (!make_room(total_len, counter)) {
                ++rejected_;
                return ChunkResult{};
            }
            spare_.resize(total_len);
            held_ += total_len;
        }
        Version fresh;
        fresh.iteration = iteration;
        fresh.total_len = total_len;
        fresh.data.swap(spare_);
        it = versions_.emplace(counter, std::move(fresh)).first;
    }
    Version& version = it->second;
    PCCHECK_CHECK_MSG(version.total_len == total_len,
                      "replica chunk length mismatch for counter "
                          << counter);
    std::memcpy(version.data.data() + offset, data, len);
    version.received += len;
    return ChunkResult{true, version.received == version.total_len};
}

bool
ReplicaStore::seal(std::uint64_t counter, std::uint32_t data_crc)
{
    MutexLock lock(mu_);
    auto it = versions_.find(counter);
    if (it == versions_.end()) {
        return false;  // evicted (or never fit) before the seal arrived
    }
    Version& version = it->second;
    if (version.received != version.total_len) {
        return false;  // dropped chunk: never ack a hole
    }
    if (data_crc != 0 &&
        crc32c(version.data.data(), version.data.size()) != data_crc) {
        return false;  // corrupted in flight
    }
    version.data_crc = data_crc;
    version.complete = true;
    // Older versions can no longer be the newest recovery target.
    prune_superseded();
    return true;
}

void
ReplicaStore::advance_watermark(std::uint64_t counter)
{
    MutexLock lock(mu_);
    if (counter > watermark_) {
        watermark_ = counter;
    }
}

std::uint64_t
ReplicaStore::watermark() const
{
    MutexLock lock(mu_);
    return watermark_;
}

std::optional<ReplicaSnapshot>
ReplicaStore::newest_complete() const
{
    MutexLock lock(mu_);
    for (auto it = versions_.rbegin(); it != versions_.rend(); ++it) {
        if (!it->second.complete) {
            continue;
        }
        ReplicaSnapshot snapshot;
        snapshot.counter = it->first;
        snapshot.iteration = it->second.iteration;
        snapshot.data_len = it->second.total_len;
        snapshot.data_crc = it->second.data_crc;
        return snapshot;
    }
    return std::nullopt;
}

bool
ReplicaStore::read(std::uint64_t counter, Bytes offset, void* dst,
                   Bytes len) const
{
    MutexLock lock(mu_);
    const auto it = versions_.find(counter);
    if (it == versions_.end() || !it->second.complete ||
        offset + len > it->second.total_len) {
        return false;
    }
    std::memcpy(dst, it->second.data.data() + offset, len);
    return true;
}

ReplicaStore::ScrubResult
ReplicaStore::scrub()
{
    MutexLock lock(mu_);
    ScrubResult result;
    for (auto it = versions_.begin(); it != versions_.end();) {
        Version& version = it->second;
        if (!version.complete || version.data_crc == 0) {
            ++it;
            continue;
        }
        ++result.scanned;
        if (crc32c(version.data.data(), version.data.size()) ==
            version.data_crc) {
            ++it;
            continue;
        }
        // DRAM rot: the version can never serve a restore (the planner
        // would reject its bytes) and must not shadow older intact
        // versions via newest_complete — drop it.
        ++result.dropped;
        held_ -= version.data.size();
        it = versions_.erase(it);
    }
    return result;
}

ReplicaStoreStats
ReplicaStore::stats() const
{
    MutexLock lock(mu_);
    ReplicaStoreStats stats;
    stats.versions = versions_.size();
    stats.bytes_held = held_;
    stats.evictions = evictions_;
    stats.rejected = rejected_;
    return stats;
}

}  // namespace pccheck
