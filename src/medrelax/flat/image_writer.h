#ifndef MEDRELAX_FLAT_IMAGE_WRITER_H_
#define MEDRELAX_FLAT_IMAGE_WRITER_H_

#include <cstddef>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "medrelax/common/status.h"
#include "medrelax/common/thread_annotations.h"
#include "medrelax/flat/format.h"

namespace medrelax::flat {

/// Accumulates typed sections in memory and serializes them as one flat
/// image: header, section directory, then the payloads (each aligned to
/// kSectionAlignment), with the checksum stamped over everything after
/// the header. The writer is format-level only — what goes *into* the
/// sections is the snapshot codec's business (flat/snapshot_codec.h).
///
/// Single-threaded use; built by the offline ingest tool, never on a
/// serving path.
class FlatImageWriter {
 public:
  FlatImageWriter() = default;
  FlatImageWriter(const FlatImageWriter&) = delete;
  FlatImageWriter& operator=(const FlatImageWriter&) = delete;

  /// Adds a raw byte section. Section ids must be unique per image;
  /// WriteToFile fails on duplicates.
  void AddBytes(SectionId id, std::span<const std::byte> bytes) {
    sections_.push_back(
        Section{id, std::vector<std::byte>(bytes.begin(), bytes.end())});
  }

  /// Adds a section holding a contiguous array of trivially copyable
  /// elements (uint32_t, uint64_t, double, FlatEdge, FlatMeta, ...).
  template <typename T>
  void AddArray(SectionId id, std::span<const T> values) {
    static_assert(std::is_trivially_copyable_v<T>);
    static_assert(alignof(T) <= kSectionAlignment);
    std::vector<std::byte> bytes(values.size_bytes());
    if (!values.empty()) {
      std::memcpy(bytes.data(), values.data(), values.size_bytes());
    }
    sections_.push_back(Section{id, std::move(bytes)});
  }

  /// Lays out and writes the complete image. Fails with InvalidArgument
  /// on duplicate section ids and Internal on I/O errors. The image is
  /// written to a sibling temp file (`<path>.tmp.<pid>`) and renamed over
  /// `path`, so readers see the old image or the new one, never a mix:
  /// an existing mapping of `path` keeps the old bytes. A failed write
  /// removes the temp file and leaves `path` untouched. No fsync:
  /// durability across power loss is not a goal.
  [[nodiscard]] Status WriteToFile(const std::string& path) const
      MEDRELAX_BLOCKING;

 private:
  struct Section {
    SectionId id;
    std::vector<std::byte> bytes;
  };
  std::vector<Section> sections_;
};

}  // namespace medrelax::flat

#endif  // MEDRELAX_FLAT_IMAGE_WRITER_H_
