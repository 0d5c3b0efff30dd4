#include "service/segment_log.h"

#include <algorithm>
#include <cstring>

#include "util/check.h"
#include "util/metrics.h"

namespace pccheck {

using segment_wire::RawManifestEntry;
using segment_wire::RawRecordHeader;
using segment_wire::RawSegmentHeader;

namespace {

constexpr Bytes kAlign = SegmentLog::kRecordAlign;

}  // namespace

std::vector<SegmentRecordInfo> segment_scan(const StorageDevice& device,
                                            Bytes region_offset,
                                            const SegmentLogConfig& config)
{
    // The codec bounds every decoded count, length and offset by the
    // segment, so no allocation or read here can exceed one.
    std::vector<SegmentRecordInfo> records;
    const auto add = [&](std::uint32_t seg, Bytes record_off,
                         const auto& rec, bool sealed_segment) {
        records.push_back(SegmentRecordInfo{
            rec.tenant, rec.counter, rec.iteration,
            Bytes{seg} * config.segment_bytes + record_off, rec.data_len,
            rec.data_crc, seg, sealed_segment});
    };
    for (std::uint32_t seg = 0; seg < config.segments; ++seg) {
        const Bytes base = region_offset + Bytes{seg} * config.segment_bytes;
        const auto hdr = read_sealed<RawSegmentHeader>(device, base,
                                                       config.segment_bytes);
        if (!hdr.has_value()) {
            continue;  // unformatted or torn segment: nothing durable
        }
        if (hdr->sealed != 0) {
            // Sealed: the manifest is the index. A torn manifest
            // demotes the segment to a chain walk below.
            const Bytes blob_len = Bytes{hdr->record_count} *
                                   sizeof(RawManifestEntry);
            std::vector<RawManifestEntry> entries(hdr->record_count);
            bool all_ok =
                (blob_len == 0 ||
                 device.read(base + hdr->manifest_off, entries.data(),
                             blob_len)
                     .ok()) &&
                crc32c(entries.data(), blob_len) == hdr->manifest_crc;
            for (std::size_t i = 0; all_ok && i < entries.size(); ++i) {
                all_ok = unseal<RawManifestEntry>(&entries[i],
                                                  config.segment_bytes)
                             .has_value();
            }
            if (all_ok) {
                for (const RawManifestEntry& entry : entries) {
                    add(seg, entry.record_off, entry, true);
                }
                continue;
            }
        }
        // Open segment (or sealed with a rotten manifest): walk the
        // record chain; the first dead/torn header is the clean end.
        Bytes off = sizeof(RawSegmentHeader);
        while (off + sizeof(RawRecordHeader) <= config.segment_bytes) {
            const auto rec = read_sealed<RawRecordHeader>(
                device, base + off, config.segment_bytes - off);
            if (!rec.has_value()) {
                break;
            }
            add(seg, off, *rec, false);
            off += align_up(sizeof(RawRecordHeader) + rec->data_len, kAlign);
        }
    }
    return records;
}

bool segment_fetch(const StorageDevice& device, Bytes region_offset,
                   const SegmentRecordInfo& record,
                   std::vector<std::uint8_t>* out)
{
    out->resize(record.data_len);
    const Bytes payload = region_offset + record.record_offset +
                          sizeof(RawRecordHeader);
    if (!device.read(payload, out->data(), record.data_len).ok()) {
        return false;
    }
    return crc32c(out->data(), record.data_len) == record.data_crc;
}

SegmentLog::SegmentLog(StorageDevice& device, Bytes region_offset,
                       const SegmentLogConfig& config)
    : device_(&device),
      region_offset_(region_offset),
      config_(config),
      cursor_(sizeof(RawSegmentHeader)),
      epochs_(config.segments, 0),
      sealed_records_(config.segments)
{
    PCCHECK_CHECK_MSG(config.segments >= 2,
                      "SegmentLog: ring needs >= 2 segments");
    PCCHECK_CHECK_MSG(config.segment_bytes >=
                          4 * sizeof(RawSegmentHeader),
                      "SegmentLog: segment too small for framing");
    PCCHECK_CHECK_MSG(region_offset + required_size(config) <=
                          device.size(),
                      "SegmentLog: region exceeds device");
    flusher_ = std::thread([this] { run_flusher(); });
}

SegmentLog::~SegmentLog()
{
    {
        MutexLock lock(mu_);
        stopping_ = true;
        cv_.notify_all();
    }
    flusher_.join();
}

Bytes SegmentLog::required_size(const SegmentLogConfig& config)
{
    return Bytes{config.segments} * config.segment_bytes;
}

Bytes SegmentLog::record_bytes(Bytes data_len)
{
    return align_up(sizeof(RawRecordHeader) + data_len, kAlign);
}

StorageStatus SegmentLog::format()
{
    const RawRecordHeader dead{};  // zeroed: fails the magic check
    for (std::uint32_t seg = 0; seg < config_.segments; ++seg) {
        RawSegmentHeader hdr{};
        hdr.epoch = 1;
        hdr.index = seg;
        seal(hdr);
        const Bytes base = segment_base(seg);
        StorageStatus status = device_->write(base, &hdr, sizeof(hdr));
        if (!status.ok()) {
            return status;
        }
        status = device_->write(base + sizeof(hdr), &dead, sizeof(dead));
        if (!status.ok()) {
            return status;
        }
        status = device_->persist(base, sizeof(hdr) + sizeof(dead));
        if (!status.ok()) {
            return status;
        }
    }
    const StorageStatus status = device_->fence();
    if (!status.ok()) {
        return status;
    }
    active_ = 0;
    cursor_ = sizeof(RawSegmentHeader);
    active_sealed_ = false;
    live_.clear();
    relocate_.clear();
    std::fill(epochs_.begin(), epochs_.end(), 1);
    for (auto& records : sealed_records_) {
        records.clear();
    }
    return StorageStatus::success();
}

void SegmentLog::submit(SegmentRecord* record)
{
    PCCHECK_CHECK_MSG(record->on_done != nullptr,
                      "SegmentLog::submit: record needs on_done");
    MutexLock lock(mu_);
    PCCHECK_CHECK_MSG(!stopping_, "SegmentLog::submit: log is closing");
    queue_.push_back(record);
    cv_.notify_one();
}

StorageStatus SegmentLog::append(std::uint64_t tenant,
                                 std::uint64_t counter,
                                 std::uint64_t iteration, const void* data,
                                 Bytes data_len)
{
    struct Waiter {
        Mutex mu;
        CondVar cv;
        bool done = false;
    } waiter;
    SegmentRecord record;
    record.tenant = tenant;
    record.counter = counter;
    record.iteration = iteration;
    record.data = data;
    record.data_len = data_len;
    record.on_done = [&waiter] {
        MutexLock lock(waiter.mu);
        waiter.done = true;
        // Notify under the lock: this frame, and the cv with it, is
        // gone as soon as the wait below sees done.
        waiter.cv.notify_all();
    };
    submit(&record);
    MutexLock lock(waiter.mu);
    while (!waiter.done) {
        waiter.cv.wait(waiter.mu);
    }
    return record.result;
}

void SegmentLog::run_flusher()
{
    for (;;) {
        {
            MutexLock lock(mu_);
            while (queue_.empty() && !stopping_) {
                cv_.wait(mu_);
            }
            if (queue_.empty()) {
                return;  // closing, and every queued record has its verdict
            }
            batch_.swap(queue_);
        }
        // One commit per rank: each tenant's oldest record, then each
        // one's next, and so on.
        while (!batch_.empty()) {
            rank_.clear();
            std::size_t kept = 0;
            for (SegmentRecord* record : batch_) {
                const bool tenant_taken = std::any_of(
                    rank_.begin(), rank_.end(),
                    [record](const SegmentRecord* taken) {
                        return taken->tenant == record->tenant;
                    });
                if (tenant_taken) {
                    batch_[kept++] = record;
                } else {
                    rank_.push_back(record);
                }
            }
            batch_.resize(kept);
            flush_batch(rank_);
        }
    }
}

void SegmentLog::flush_batch(const std::vector<SegmentRecord*>& batch)
{
    static Counter& coalesced_metric = MetricsRegistry::global().counter(
        "pccheck.service.coalesced_records");
    // Room one record takes in an empty segment, beside the segment
    // header, the dead tail and its manifest entry.
    const auto fits_a_segment = [this](const SegmentRecord* record) {
        return sizeof(RawSegmentHeader) + record_bytes(record->data_len) +
                   sizeof(RawRecordHeader) + sizeof(RawManifestEntry) <=
               config_.segment_bytes;
    };

    std::size_t next = 0;
    while (next < batch.size()) {
        if (!fits_a_segment(batch[next])) {
            complete(batch, next, next + 1,
                     StorageStatus::permanent_error(
                         "segment.append: record larger than a segment"));
            ++next;
            continue;
        }
        // Greedy sub-batch: the longest run from `next` that fits the
        // active segment alongside its dead tail, grown manifest and
        // the room reserved for relocations. A sealed segment takes
        // nothing more.
        std::size_t end = next;
        Bytes need = 0;
        const Bytes reserved = relocation_bytes();
        while (!active_sealed_ && end < batch.size() &&
               fits_a_segment(batch[end])) {
            const Bytes grow = record_bytes(batch[end]->data_len);
            const Bytes manifest =
                Bytes{live_.size() + relocate_.size() + (end - next) + 1} *
                sizeof(RawManifestEntry);
            if (cursor_ + need + grow + reserved +
                    sizeof(RawRecordHeader) + manifest >
                config_.segment_bytes) {
                break;
            }
            need += grow;
            ++end;
        }
        if (end == next && !active_sealed_ && !relocate_.empty()) {
            // Records the gate allows by now need no copy; and a
            // segment takes at least one new record before its room
            // goes to copies, so relocation cannot spin the ring.
            const std::size_t pending = relocate_.size();
            const std::vector<LiveRecord>& following_records = following();
            relocate_.erase(
                std::remove_if(relocate_.begin(), relocate_.end(),
                               [&](std::size_t i) {
                                   return reclaimable(following_records[i]);
                               }),
                relocate_.end());
            if (live_.empty()) {
                relocate_.clear();
            }
            if (relocate_.size() < pending) {
                continue;
            }
        }
        if (end == next) {
            // The active segment is full: copy the following segment's
            // pinned records in, seal (once — after a refused recycle
            // only the advance is retried) and recycle the next ring
            // slot. Failure rejects the rest of the batch (the tenants
            // skip this checkpoint; training never stalls behind a
            // full ring).
            StorageStatus status = StorageStatus::success();
            if (!active_sealed_) {
                status = relocate();
                if (status.ok()) {
                    status = seal_active();
                }
            }
            if (status.ok()) {
                status = advance_active();
            }
            if (!status.ok()) {
                complete(batch, next, batch.size(), status);
                return;
            }
            continue;
        }

        const StorageStatus status = write_records(batch, next, end, need);
        if (!status.ok()) {
            // Nothing published: reject the rest of this batch with
            // the same verdict.
            complete(batch, next, batch.size(), status);
            return;
        }
        coalesced_metric.add(end - next);
        // Watermarks advance now: before a later sub-batch's recycle
        // asks the reclaim gate, and before any appender learns that
        // its record is durable.
        if (durable_hook_) {
            for (std::size_t i = next; i < end; ++i) {
                durable_hook_(batch[i]->tenant, batch[i]->counter,
                              batch[i]->iteration);
            }
        }
        complete(batch, next, end, status);
        next = end;
    }
}

StorageStatus SegmentLog::write_records(
    const std::vector<SegmentRecord*>& records, std::size_t first,
    std::size_t last, Bytes bytes)
{
    if (pacer_) {
        pacer_(bytes);
    }
    // Phase 1: payloads, every header but the first, and the dead
    // tail. Persist + fence. The sub-batch stays invisible: the chain
    // still ends at the (still dead) first header.
    const Bytes base = segment_base(active_);
    const Bytes batch_start = cursor_;
    const std::size_t live_before = live_.size();
    Bytes off = cursor_;
    StorageStatus status = StorageStatus::success();
    RawRecordHeader first_header{};
    for (std::size_t i = first; i < last && status.ok(); ++i) {
        const SegmentRecord& record = *records[i];
        RawRecordHeader hdr{};
        hdr.tenant = record.tenant;
        hdr.counter = record.counter;
        hdr.iteration = record.iteration;
        hdr.data_len = record.data_len;
        hdr.data_crc = crc32c(record.data, record.data_len);
        seal(hdr);
        if (i == first) {
            first_header = hdr;
        } else {
            status = device_->write(base + off, &hdr, sizeof(hdr));
        }
        if (status.ok()) {
            status = device_->write(base + off + sizeof(hdr), record.data,
                                    record.data_len);
        }
        live_.push_back(LiveRecord{record.tenant, record.counter,
                                   record.iteration, off, record.data_len,
                                   hdr.data_crc});
        off += record_bytes(record.data_len);
    }
    if (status.ok()) {
        const RawRecordHeader dead{};
        status = device_->write(base + off, &dead, sizeof(dead));
    }
    if (status.ok()) {
        status = device_->persist(base + batch_start,
                                  off + sizeof(RawRecordHeader) -
                                      batch_start);
    }
    if (status.ok()) {
        status = device_->fence();
    }
    // Phase 2: publish. The first record's header links the whole
    // sub-batch into the scan chain atomically.
    if (status.ok()) {
        status = write_durably(*device_, base + batch_start, &first_header,
                               sizeof(first_header));
    }
    if (!status.ok()) {
        // The chain still ends where it did. Leave the cursor so a
        // later sub-batch overwrites the garbage.
        live_.resize(live_before);
        return status;
    }
    cursor_ = off;
    MutexLock lock(mu_);
    ++stats_.flushes;
    return status;
}

void SegmentLog::complete(const std::vector<SegmentRecord*>& batch,
                          std::size_t first, std::size_t last,
                          StorageStatus status)
{
    {
        MutexLock lock(mu_);
        if (status.ok()) {
            stats_.records += last - first;
        } else {
            stats_.rejects += last - first;
        }
    }
    for (std::size_t i = first; i < last; ++i) {
        batch[i]->result = status;
        batch[i]->on_done();  // the record is its owner's from here
    }
}

StorageStatus SegmentLog::seal_active()
{
    // Manifest lands AFTER the dead tail so a crash before the sealed
    // header leaves the chain walk intact.
    const Bytes base = segment_base(active_);
    const Bytes manifest_off = cursor_ + sizeof(RawRecordHeader);
    std::vector<RawManifestEntry> entries;
    entries.reserve(live_.size());
    for (const LiveRecord& record : live_) {
        RawManifestEntry entry{};
        entry.tenant = record.tenant;
        entry.counter = record.counter;
        entry.iteration = record.iteration;
        entry.record_off = record.record_off;
        entry.data_len = record.data_len;
        entry.data_crc = record.data_crc;
        seal(entry);
        entries.push_back(entry);
    }
    const Bytes blob_len = Bytes{entries.size()} *
                           sizeof(RawManifestEntry);
    PCCHECK_CHECK_MSG(manifest_off + blob_len <= config_.segment_bytes,
                      "segment seal: manifest reservation violated");
    StorageStatus status = StorageStatus::success();
    if (blob_len > 0) {
        status = device_->write(base + manifest_off, entries.data(),
                                blob_len);
        if (status.ok()) {
            status = device_->persist(base + manifest_off, blob_len);
        }
    }
    if (status.ok()) {
        status = device_->fence();
    }
    if (!status.ok()) {
        return status;
    }
    RawSegmentHeader hdr{};
    hdr.epoch = epochs_[active_];
    hdr.index = active_;
    hdr.sealed = 1;
    hdr.manifest_off = manifest_off;
    hdr.record_count = static_cast<std::uint32_t>(entries.size());
    hdr.manifest_crc = crc32c(entries.data(), blob_len);
    seal(hdr);
    status = publish_segment_header(base, hdr);
    if (!status.ok()) {
        return status;
    }
    sealed_records_[active_] = live_;
    active_sealed_ = true;
    {
        MutexLock lock(mu_);
        ++stats_.seals;
    }
    return StorageStatus::success();
}

StorageStatus SegmentLog::advance_active()
{
    const std::uint32_t next = (active_ + 1) % config_.segments;
    if (!sealed_records_[next].empty() || epochs_[next] > 1) {
        // The slot was used on a previous lap: recycling destroys its
        // records, so every one needs the gate's blessing.
        for (const LiveRecord& record : sealed_records_[next]) {
            if (!record.relocated && !reclaimable(record)) {
                return StorageStatus::transient_error(
                    "segment.recycle: record still some tenant's "
                    "newest durable checkpoint");
            }
        }
        const Bytes base = segment_base(next);
        // Kill the chain first (dead first record, fenced), THEN
        // publish the open header — scans switch from manifest to
        // chain walk only after the chain durably ends.
        const RawRecordHeader dead{};
        StorageStatus status = device_->write(
            base + sizeof(RawSegmentHeader), &dead, sizeof(dead));
        if (status.ok()) {
            status = device_->persist(base + sizeof(RawSegmentHeader),
                                      sizeof(dead));
        }
        if (status.ok()) {
            status = device_->fence();
        }
        if (!status.ok()) {
            return status;
        }
        RawSegmentHeader hdr{};
        hdr.epoch = epochs_[next] + 1;
        hdr.index = next;
        seal(hdr);
        status = publish_segment_header(base, hdr);
        if (!status.ok()) {
            return status;
        }
        epochs_[next]++;
        sealed_records_[next].clear();
        {
            MutexLock lock(mu_);
            ++stats_.recycles;
        }
    }
    active_ = next;
    cursor_ = sizeof(RawSegmentHeader);
    active_sealed_ = false;
    live_.clear();
    // Reserve room here for the following segment's pinned records.
    relocate_.clear();
    const std::vector<LiveRecord>& following_records = following();
    for (std::size_t i = 0; i < following_records.size(); ++i) {
        if (!reclaimable(following_records[i])) {
            relocate_.push_back(i);
        }
    }
    return StorageStatus::success();
}

bool SegmentLog::reclaimable(const LiveRecord& record) const
{
    return reclaim_gate_ && reclaim_gate_(record.tenant, record.counter);
}

Bytes SegmentLog::relocation_bytes()
{
    Bytes bytes = 0;
    for (std::size_t i : relocate_) {
        bytes += record_bytes(following()[i].data_len);
    }
    return bytes;
}

StorageStatus SegmentLog::relocate()
{
    if (relocate_.empty()) {
        return StorageStatus::success();
    }
    std::vector<LiveRecord>& following_records = following();
    const Bytes following_rel =
        Bytes{(active_ + 1) % config_.segments} * config_.segment_bytes;
    std::vector<std::vector<std::uint8_t>> payloads(relocate_.size());
    std::vector<SegmentRecord> copies(relocate_.size());
    std::vector<SegmentRecord*> batch;
    std::vector<std::size_t> moved;
    Bytes bytes = 0;
    for (std::size_t k = 0; k < relocate_.size(); ++k) {
        const LiveRecord& record = following_records[relocate_[k]];
        SegmentRecordInfo info;
        info.record_offset = following_rel + record.record_off;
        info.data_len = record.data_len;
        info.data_crc = record.data_crc;
        if (!segment_fetch(*device_, region_offset_, info, &payloads[k])) {
            continue;  // rotten: nothing worth copying
        }
        copies[k].tenant = record.tenant;
        copies[k].counter = record.counter;
        copies[k].iteration = record.iteration;
        copies[k].data = payloads[k].data();
        copies[k].data_len = record.data_len;
        batch.push_back(&copies[k]);
        moved.push_back(relocate_[k]);
        bytes += record_bytes(record.data_len);
    }
    relocate_.clear();
    if (batch.empty()) {
        return StorageStatus::success();
    }
    const StorageStatus status = write_records(batch, 0, batch.size(),
                                               bytes);
    if (!status.ok()) {
        return status;
    }
    for (std::size_t i : moved) {
        following_records[i].relocated = true;
    }
    MutexLock lock(mu_);
    stats_.relocations += moved.size();
    return status;
}

StorageStatus SegmentLog::publish_segment_header(
    Bytes device_off, const RawSegmentHeader& hdr)
{
    return write_durably(*device_, device_off, &hdr, sizeof(hdr));
}

void SegmentLog::set_reclaim_gate(
    std::function<bool(std::uint64_t, std::uint64_t)> gate)
{
    reclaim_gate_ = std::move(gate);
}

void SegmentLog::set_durable_hook(
    std::function<void(std::uint64_t, std::uint64_t, std::uint64_t)> hook)
{
    durable_hook_ = std::move(hook);
}

void SegmentLog::set_pacer(std::function<void(Bytes)> pacer)
{
    pacer_ = std::move(pacer);
}

SegmentLogStats SegmentLog::stats() const
{
    MutexLock lock(mu_);
    return stats_;
}

}  // namespace pccheck
