#include "storage/throttled_storage.h"

#include <utility>

#include "obs/trace.h"
#include "util/check.h"

namespace pccheck {

ThrottledStorage::ThrottledStorage(std::unique_ptr<StorageDevice> inner,
                                   double write_bytes_per_sec,
                                   double persist_bytes_per_sec,
                                   double read_bytes_per_sec,
                                   const Clock& clock)
    : inner_(std::move(inner)),
      write_throttle_(write_bytes_per_sec, clock),
      persist_throttle_(persist_bytes_per_sec, clock),
      read_throttle_(read_bytes_per_sec, clock)
{
    PCCHECK_CHECK(inner_ != nullptr);
}

StorageStatus
ThrottledStorage::write(Bytes offset, const void* src, Bytes len)
{
    PCCHECK_TRACE_SPAN("storage.write", "len", len);
    write_throttle_.acquire(len);
    return inner_->write(offset, src, len);
}

StorageStatus
ThrottledStorage::read(Bytes offset, void* dst, Bytes len) const
{
    PCCHECK_TRACE_SPAN("storage.read", "len", len);
    read_throttle_.acquire(len);
    return inner_->read(offset, dst, len);
}

StorageStatus
ThrottledStorage::persist(Bytes offset, Bytes len)
{
    PCCHECK_TRACE_SPAN("storage.persist", "len", len);
    persist_throttle_.acquire(len);
    return inner_->persist(offset, len);
}

StorageBandwidth
paper_bandwidth(StorageKind kind)
{
    switch (kind) {
      case StorageKind::kSsdMsync:
        // GCP pd-ssd on a 12-vCPU VM: ~0.8 GB/s sustained write-back
        // (GCP caps SSD-PD write throughput by vCPU count). With the
        // ~1 GB/s torch.save serialization this reproduces the
        // paper's intro measurement: 16 GB in 37 s. Page-cache writes
        // land at a few GB/s; reads ~0.9 GB/s.
        return {3.0e9, 0.8e9, 0.9e9};
      case StorageKind::kPmemNt:
        // §3.3: non-temporal store + sfence achieves 4.01 GB/s.
        return {4.01e9, 0.0, 6.0e9};
      case StorageKind::kPmemClwb:
        // §3.3: clwb path achieves 2.46 GB/s.
        return {2.46e9, 0.0, 6.0e9};
      case StorageKind::kCxlPmem:
        // §2.3 outlook: persistent memory behind CXL — byte
        // addressable with PMEM ordering rules, but capped by the
        // PCIe-attached link (~2 GB/s effective for CXL 1.1 x8 after
        // protocol overhead); reads similarly link-bound.
        return {2.0e9, 0.0, 2.5e9};
      case StorageKind::kDram:
        return {0.0, 0.0, 0.0};
    }
    return {0.0, 0.0, 0.0};
}

}  // namespace pccheck
