#ifndef PCCHECK_STORAGE_SEALED_H_
#define PCCHECK_STORAGE_SEALED_H_

/**
 * @file
 * The sealed-record codec, the one check of every on-media struct: a
 * trivially copyable struct whose last member, `crc`, is the CRC-32C
 * of every byte before it. A struct with a magic declares `static
 * constexpr std::uint64_t kMagic` and stores it in its first member,
 * `magic`. Its `bool fits(Bytes room) const` says, without overflow,
 * whether the lengths, counts and offsets it names fit the room its
 * reader names. A record failing any check decodes to std::nullopt,
 * which every caller treats as torn.
 */

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <type_traits>

#include "storage/device.h"
#include "util/crc32.h"

namespace pccheck {

template <typename T>
concept SealedRecord =
    std::is_trivially_copyable_v<T> && std::is_standard_layout_v<T> &&
    std::same_as<decltype(T::crc), std::uint32_t> &&
    requires(const T& rec, Bytes room) {
        { rec.fits(room) } -> std::same_as<bool>;
    };

/** CRC-32C of every byte of @p rec before its trailing `crc`. */
template <SealedRecord T>
std::uint32_t
sealed_crc(const T& rec)
{
    static_assert(offsetof(T, crc) + sizeof(rec.crc) == sizeof(T),
                  "crc must be a sealed record's last member");
    if constexpr (requires { T::kMagic; }) {
        static_assert(offsetof(T, magic) == 0,
                      "magic must be a sealed record's first member");
    }
    return crc32c(&rec, offsetof(T, crc));
}

/** Stamp @p rec's magic (if it has one) and its CRC. */
template <SealedRecord T>
void
seal(T& rec)
{
    if constexpr (requires { T::kMagic; }) {
        rec.magic = T::kMagic;
    }
    rec.crc = sealed_crc(rec);
}

/** Decode the sizeof(T) bytes at @p bytes: the magic and CRC must
 *  match and the record must fit @p room. */
template <SealedRecord T>
std::optional<T>
unseal(const void* bytes, Bytes room)
{
    T rec;
    std::memcpy(&rec, bytes, sizeof(T));
    if constexpr (requires { T::kMagic; }) {
        if (rec.magic != T::kMagic) {
            return std::nullopt;
        }
    }
    if (rec.crc != sealed_crc(rec) || !rec.fits(room)) {
        return std::nullopt;
    }
    return rec;
}

/** Read the record at device @p offset and unseal() it. */
template <SealedRecord T>
std::optional<T>
read_sealed(const StorageDevice& device, Bytes offset, Bytes room)
{
    std::uint8_t bytes[sizeof(T)] = {};
    return device.read(offset, bytes, sizeof(T)).ok()
               ? unseal<T>(bytes, room)
               : std::nullopt;
}

}  // namespace pccheck

#endif  // PCCHECK_STORAGE_SEALED_H_
