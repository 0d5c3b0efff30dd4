#include "storage/region_storage.h"

#include <utility>

#include "util/check.h"

namespace pccheck {

RegionStorage::RegionStorage(StorageDevice& inner, Bytes offset,
                             Bytes bytes)
    : inner_(&inner), offset_(offset), bytes_(bytes)
{
    PCCHECK_CHECK_MSG(bytes > 0, "RegionStorage: empty window");
    PCCHECK_CHECK_MSG(range_fits(offset, bytes, inner.size()),
                      "RegionStorage: window [" << offset << ", "
                      << offset + bytes << ") exceeds device size "
                      << inner.size());
}

StorageStatus
RegionStorage::check_range(Bytes offset, Bytes len,
                           const char* what) const
{
    if (!range_fits(offset, len, bytes_)) {
        return StorageStatus::permanent_error(what);
    }
    return StorageStatus::success();
}

StorageStatus
RegionStorage::write(Bytes offset, const void* src, Bytes len)
{
    StorageStatus bounds = check_range(offset, len, "region write oob");
    if (!bounds.ok()) {
        return bounds;
    }
    return inner_->write(offset_ + offset, src, len);
}

StorageStatus
RegionStorage::read(Bytes offset, void* dst, Bytes len) const
{
    StorageStatus bounds = check_range(offset, len, "region read oob");
    if (!bounds.ok()) {
        return bounds;
    }
    return inner_->read(offset_ + offset, dst, len);
}

StorageStatus
RegionStorage::persist(Bytes offset, Bytes len)
{
    StorageStatus bounds =
        check_range(offset, len, "region persist oob");
    if (!bounds.ok()) {
        return bounds;
    }
    return inner_->persist(offset_ + offset, len);
}

StorageStatus
RegionStorage::fence()
{
    return inner_->fence();
}

}  // namespace pccheck
