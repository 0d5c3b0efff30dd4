#include "storage/mem_storage.h"

#include <algorithm>
#include <cstring>

#include "util/check.h"

namespace pccheck {

MemStorage::MemStorage(Bytes size) : data_(size, 0) {}

StorageStatus
MemStorage::write(Bytes offset, const void* src, Bytes len)
{
    PCCHECK_CHECK_MSG(range_fits(offset, len, data_.size()),
                      "write out of range: off=" << offset << " len=" << len
                                                 << " size=" << data_.size());
    std::memcpy(data_.data() + offset, src, len);
    if (hook_) {
        hook_(StorageOp{StorageOp::Kind::kWrite, offset, len});
    }
    return StorageStatus::success();
}

StorageStatus
MemStorage::read(Bytes offset, void* dst, Bytes len) const
{
    if (!range_fits(offset, len, data_.size())) {
        return StorageStatus::permanent_error("mem.read_range");
    }
    // copy_n, not memcpy: an empty read may name a null buffer.
    std::copy_n(data_.data() + offset, len, static_cast<std::uint8_t*>(dst));
    return StorageStatus::success();
}

StorageStatus
MemStorage::persist(Bytes offset, Bytes len)
{
    PCCHECK_CHECK(range_fits(offset, len, data_.size()));
    if (hook_) {
        hook_(StorageOp{StorageOp::Kind::kPersist, offset, len});
    }
    return StorageStatus::success();
}

}  // namespace pccheck
