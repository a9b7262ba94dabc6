#ifndef MEDRELAX_FLAT_IMAGE_VIEW_H_
#define MEDRELAX_FLAT_IMAGE_VIEW_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "medrelax/common/result.h"
#include "medrelax/common/string_table.h"
#include "medrelax/common/string_util.h"
#include "medrelax/common/thread_annotations.h"
#include "medrelax/flat/format.h"
#include "medrelax/io/mmap_file.h"

namespace medrelax::flat {

/// A validated, read-only view over one mapped snapshot image. Open()
/// performs every whole-file check (magic, version, endianness, size,
/// checksum, directory bounds) before returning; the typed accessors
/// re-check element size and alignment per section, so no caller can
/// read past the mapping even against a hand-corrupted directory.
///
/// Immutable and internally synchronization-free: safe to share across
/// threads for the lifetime of the view. The serving snapshot keeps the
/// view (and with it the mapping) alive for as long as any table borrows
/// from it.
class FlatImageView {
 public:
  /// Maps and validates `path`. Errors are typed: NotFound (no such
  /// file), InvalidArgument (truncated/corrupt/checksum mismatch),
  /// FailedPrecondition (well-formed image of another format version).
  /// MEDRELAX_BLOCKING: maps a file and checksums the full payload —
  /// never callable from the event loop (the reload executor owns this).
  [[nodiscard]] static Result<std::unique_ptr<FlatImageView>> Open(
      const std::string& path) MEDRELAX_BLOCKING;

  FlatImageView(const FlatImageView&) = delete;
  FlatImageView& operator=(const FlatImageView&) = delete;

  [[nodiscard]] const FlatMeta& meta() const { return *meta_; }
  [[nodiscard]] size_t file_size() const { return file_.size(); }

  [[nodiscard]] bool HasSection(SectionId id) const {
    return sections_.find(static_cast<uint32_t>(id)) != sections_.end();
  }

  /// Raw bytes of a section; InvalidArgument when absent. Bounds against
  /// the mapping were validated at Open.
  [[nodiscard]] Result<std::span<const std::byte>> SectionBytes(
      SectionId id) const MEDRELAX_UNTRUSTED_BYTES;

  /// A section as a typed array. Fails when the section is absent, its
  /// size is not a multiple of sizeof(T), or its offset breaks T's
  /// alignment (possible only for corrupt directories — the writer
  /// aligns every section).
  template <typename T>
  [[nodiscard]] Result<std::span<const T>> SectionArray(SectionId id) const {
    static_assert(std::is_trivially_copyable_v<T>);
    MEDRELAX_ASSIGN_OR_RETURN(std::span<const std::byte> bytes,
                              SectionBytes(id));
    if (bytes.size() % sizeof(T) != 0) {
      return Status::InvalidArgument(
          StrFormat("section %u: size %zu not a multiple of %zu",
                    static_cast<unsigned>(id), bytes.size(), sizeof(T)));
    }
    if (reinterpret_cast<uintptr_t>(bytes.data()) % alignof(T) != 0) {
      return Status::InvalidArgument(
          StrFormat("section %u: misaligned for element size %zu",
                    static_cast<unsigned>(id), sizeof(T)));
    }
    return std::span<const T>(reinterpret_cast<const T*>(bytes.data()),
                              bytes.size() / sizeof(T));
  }

  /// A validated two-section string table (offsets + blob, the layout of
  /// common/string_table.h): `expected_count` strings, offsets starting
  /// at 0, strictly increasing, ending exactly at the blob size, and
  /// every string's last byte a NUL terminator.
  [[nodiscard]] Result<StringTableView> Strings(SectionId offsets_id,
                                                SectionId blob_id,
                                                size_t expected_count) const;

  /// Tag gating the public constructor to Open (make_unique needs a
  /// public constructor; the tag keeps outside callers on the factory —
  /// the serve/snapshot.h BuildTag idiom).
  struct OpenTag {
    explicit OpenTag() = default;
  };
  FlatImageView(OpenTag, MappedFile file) : file_(std::move(file)) {}

 private:
  MappedFile file_;
  std::unordered_map<uint32_t, SectionEntry> sections_;
  const FlatMeta* meta_ = nullptr;
};

}  // namespace medrelax::flat

#endif  // MEDRELAX_FLAT_IMAGE_VIEW_H_
