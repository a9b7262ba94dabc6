#ifndef MEDRELAX_COMMON_CHECKSUM_H_
#define MEDRELAX_COMMON_CHECKSUM_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>

namespace medrelax {

/// FNV-1a 64 folded a word at a time: tiny, dependency-free, and plenty
/// to catch truncation and bit rot. It is NOT the integrity story for
/// adversarial images — an attacker who controls the bytes can restamp
/// the checksum — it only gates accidental corruption; the structural
/// checks in FlatImageView::Open (bounds, alignment, overlap, meta
/// count sanity) and in the snapshot reader are what stand between
/// crafted input and UB (see docs/SNAPSHOT_FORMAT.md). Words are mixed
/// as stored — fine because the image's endianness marker already pins
/// images to one byte order — and the 8-byte stride keeps validation of
/// a multi-MB image in the low milliseconds, which is what makes
/// RELOAD-from-image cheap for operators. The flat image's name slot
/// table hashes with it too, so an image means the same on every host.
[[nodiscard]] inline uint64_t FnvChecksum(std::span<const std::byte> bytes) {
  uint64_t hash = 0xcbf29ce484222325ull;
  size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    uint64_t word;
    std::memcpy(&word, bytes.data() + i, sizeof(word));
    hash ^= word;
    hash *= 0x100000001b3ull;
  }
  for (; i < bytes.size(); ++i) {
    hash ^= static_cast<uint64_t>(bytes[i]);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

[[nodiscard]] inline uint64_t FnvChecksum(std::string_view text) {
  return FnvChecksum(std::as_bytes(std::span<const char>(text)));
}

}  // namespace medrelax

#endif  // MEDRELAX_COMMON_CHECKSUM_H_
