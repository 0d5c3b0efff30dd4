#include "storage/file_storage.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "obs/trace.h"
#include "util/check.h"

namespace pccheck {
namespace {

constexpr Bytes kPage = 4096;

}  // namespace

FileStorage::FileStorage(const std::string& path, Bytes size)
    : path_(path), size_(size)
{
    fd_ = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
    if (fd_ < 0) {
        fatal("FileStorage: open(" + path + "): " + std::strerror(errno));
    }
    if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
        ::close(fd_);
        fatal("FileStorage: ftruncate(" + path +
              "): " + std::strerror(errno));
    }
    void* map = ::mmap(nullptr, size, PROT_READ | PROT_WRITE, MAP_SHARED,
                       fd_, 0);
    if (map == MAP_FAILED) {
        ::close(fd_);
        fatal("FileStorage: mmap(" + path + "): " + std::strerror(errno));
    }
    map_ = static_cast<std::uint8_t*>(map);
}

FileStorage::~FileStorage()
{
    if (map_ != nullptr) {
        ::munmap(map_, size_);
    }
    if (fd_ >= 0) {
        ::close(fd_);
    }
}

StorageStatus
FileStorage::write(Bytes offset, const void* src, Bytes len)
{
    PCCHECK_CHECK_MSG(range_fits(offset, len, size_),
                      "write out of range off=" << offset << " len=" << len);
    std::memcpy(map_ + offset, src, len);
    return StorageStatus::success();
}

StorageStatus
FileStorage::read(Bytes offset, void* dst, Bytes len) const
{
    if (!range_fits(offset, len, size_)) {
        // A truncated or short-mapped device file is a media condition,
        // not a programming error: recovery must be able to observe it
        // and fall back to another source instead of dying here.
        return StorageStatus::permanent_error("file.read_range");
    }
    // copy_n, not memcpy: an empty read may name a null buffer.
    std::copy_n(map_ + offset, len, static_cast<std::uint8_t*>(dst));
    return StorageStatus::success();
}

StorageStatus
FileStorage::persist(Bytes offset, Bytes len)
{
    if (len == 0) {
        return StorageStatus::success();
    }
    PCCHECK_CHECK(range_fits(offset, len, size_));
    PCCHECK_TRACE_SPAN("storage.msync", "len", len);
    const Bytes start = align_down(offset, kPage);
    const Bytes end = align_up(offset + len, kPage);
    if (::msync(map_ + start, std::min(end, size_) - start, MS_SYNC) != 0) {
        // EIO-class failure: the page cache still holds the data, so a
        // retry can succeed — let the persist engine's backoff decide.
        return StorageStatus::transient_error("file.msync");
    }
    return StorageStatus::success();
}

}  // namespace pccheck
