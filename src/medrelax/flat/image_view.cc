#include "medrelax/flat/image_view.h"

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "medrelax/common/checksum.h"

namespace medrelax::flat {

Result<std::unique_ptr<FlatImageView>> FlatImageView::Open(
    const std::string& path) {
  MEDRELAX_ASSIGN_OR_RETURN(MappedFile file, MappedFile::Open(path));
  const std::span<const std::byte> bytes = file.bytes();

  // 1. Header fits and identifies as ours. memcpy, not reinterpret: the
  // header copy is cheap and sidesteps any alignment assumption about
  // the mapping's first bytes (page-aligned in practice, but the checks
  // below must not depend on that).
  if (bytes.size() < sizeof(ImageHeader)) {
    return Status::InvalidArgument(
        StrFormat("'%s': %zu bytes is too small for an image header",
                  path.c_str(), bytes.size()));
  }
  ImageHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  if (std::memcmp(header.magic, kImageMagic, sizeof(kImageMagic)) != 0) {
    return Status::InvalidArgument(
        StrFormat("'%s': bad magic, not a medrelax image", path.c_str()));
  }
  if (header.endian != kEndianMarker) {
    return Status::InvalidArgument(
        StrFormat("'%s': endianness marker mismatch (image written on an"
                  " opposite-endian host)",
                  path.c_str()));
  }
  if (header.version != kImageVersion) {
    return Status::FailedPrecondition(
        StrFormat("'%s': image format version %u, this build reads %u",
                  path.c_str(), static_cast<unsigned>(header.version),
                  static_cast<unsigned>(kImageVersion)));
  }
  // 2. Declared size matches what the filesystem handed us — catches
  // truncation and concatenation before any offset is trusted.
  if (header.file_size != bytes.size()) {
    return Status::InvalidArgument(
        StrFormat("'%s': header declares %llu bytes, file has %zu"
                  " (truncated or corrupt)",
                  path.c_str(),
                  static_cast<unsigned long long>(header.file_size),
                  bytes.size()));
  }
  // 3. Whole-payload checksum — after this, remaining failures mean a
  // malformed producer, not bit rot.
  const uint64_t checksum = FnvChecksum(bytes.subspan(sizeof(ImageHeader)));
  if (checksum != header.payload_checksum) {
    return Status::InvalidArgument(
        StrFormat("'%s': payload checksum mismatch (stored %016llx,"
                  " computed %016llx)",
                  path.c_str(),
                  static_cast<unsigned long long>(header.payload_checksum),
                  static_cast<unsigned long long>(checksum)));
  }
  // 4. Directory bounds, then per-entry bounds/alignment/uniqueness.
  const uint64_t dir_bytes =
      static_cast<uint64_t>(header.section_count) * sizeof(SectionEntry);
  if (header.directory_offset < sizeof(ImageHeader) ||
      header.directory_offset > bytes.size() ||
      dir_bytes > bytes.size() - header.directory_offset) {
    return Status::InvalidArgument(
        StrFormat("'%s': section directory out of bounds", path.c_str()));
  }

  auto view = std::make_unique<FlatImageView>(OpenTag{}, std::move(file));
  view->sections_.reserve(header.section_count);
  const std::byte* base = view->file_.data();
  for (uint32_t i = 0; i < header.section_count; ++i) {
    SectionEntry entry;
    std::memcpy(&entry, base + header.directory_offset +
                            static_cast<uint64_t>(i) * sizeof(SectionEntry),
                sizeof(entry));
    if (entry.offset > view->file_.size() ||
        entry.size > view->file_.size() - entry.offset) {
      return Status::InvalidArgument(
          StrFormat("'%s': section %u [offset=%llu size=%llu] exceeds the"
                    " %zu-byte file",
                    path.c_str(), static_cast<unsigned>(entry.id),
                    static_cast<unsigned long long>(entry.offset),
                    static_cast<unsigned long long>(entry.size),
                    view->file_.size()));
    }
    if (entry.offset % kSectionAlignment != 0) {
      return Status::InvalidArgument(
          StrFormat("'%s': section %u offset %llu breaks the %llu-byte"
                    " alignment rule",
                    path.c_str(), static_cast<unsigned>(entry.id),
                    static_cast<unsigned long long>(entry.offset),
                    static_cast<unsigned long long>(kSectionAlignment)));
    }
    if (!view->sections_.emplace(entry.id, entry).second) {
      return Status::InvalidArgument(
          StrFormat("'%s': duplicate section id %u", path.c_str(),
                    static_cast<unsigned>(entry.id)));
    }
  }
  // 5. No two byte ranges may alias: every raw byte a typed accessor
  // can hand out has exactly one owner. Without this, a corrupt
  // directory can serve the same mapped bytes as, say, both a string
  // blob and an offsets array, and cross-section consistency checks
  // downstream stop meaning anything. Offsets and sizes were
  // bounds-checked above, so the end-of-range sums cannot overflow.
  struct Range {
    uint64_t begin;
    uint64_t end;
    std::string label;
  };
  std::vector<Range> ranges;
  ranges.reserve(view->sections_.size() + 2);
  ranges.push_back(Range{0, sizeof(ImageHeader), "header"});
  ranges.push_back(Range{header.directory_offset,
                         header.directory_offset + dir_bytes,
                         "section directory"});
  for (const auto& [id, entry] : view->sections_) {
    if (entry.size == 0) continue;  // empty sections occupy no bytes
    ranges.push_back(
        Range{entry.offset, entry.offset + entry.size,
              StrFormat("section %u", static_cast<unsigned>(id))});
  }
  std::sort(ranges.begin(), ranges.end(),
            [](const Range& a, const Range& b) { return a.begin < b.begin; });
  for (size_t i = 1; i < ranges.size(); ++i) {
    if (ranges[i - 1].end > ranges[i].begin) {
      return Status::InvalidArgument(
          StrFormat("'%s': %s [%llu, %llu) overlaps %s [%llu, %llu)",
                    path.c_str(), ranges[i - 1].label.c_str(),
                    static_cast<unsigned long long>(ranges[i - 1].begin),
                    static_cast<unsigned long long>(ranges[i - 1].end),
                    ranges[i].label.c_str(),
                    static_cast<unsigned long long>(ranges[i].begin),
                    static_cast<unsigned long long>(ranges[i].end)));
    }
  }
  // 6. The meta section is mandatory and exactly one FlatMeta.
  MEDRELAX_ASSIGN_OR_RETURN(std::span<const FlatMeta> meta,
                            view->SectionArray<FlatMeta>(SectionId::kMeta));
  if (meta.size() != 1) {
    return Status::InvalidArgument(
        StrFormat("'%s': meta section holds %zu records, want 1",
                  path.c_str(), meta.size()));
  }
  view->meta_ = meta.data();
  // 7. Counts the decoder will trust for loop bounds and size math must
  // be plausible before anything multiplies them. Every counted record
  // owns at least 8 bytes somewhere in the image (an offsets entry, an
  // id pair, an edge), so a count beyond the file size is provably
  // corrupt — and rejecting it here keeps the decoder's `count + 1` /
  // `2 * count` arithmetic comfortably inside 64 bits.
  const struct {
    const char* name;
    uint64_t value;
  } counts[] = {
      {"num_concepts", view->meta_->num_concepts},
      {"num_edges", view->meta_->num_edges},
      {"num_shortcut_edges", view->meta_->num_shortcut_edges},
      {"num_synonyms", view->meta_->num_synonyms},
      {"num_contexts", view->meta_->num_contexts},
      {"num_mappings", view->meta_->num_mappings},
      {"num_ontology_concepts", view->meta_->num_ontology_concepts},
      {"num_relationships", view->meta_->num_relationships},
      {"num_subconcept_pairs", view->meta_->num_subconcept_pairs},
      {"num_instances", view->meta_->num_instances},
      {"num_triples", view->meta_->num_triples},
  };
  for (const auto& count : counts) {
    if (count.value > view->file_.size()) {
      return Status::InvalidArgument(
          StrFormat("'%s': meta %s=%llu exceeds the %zu-byte file",
                    path.c_str(), count.name,
                    static_cast<unsigned long long>(count.value),
                    view->file_.size()));
    }
  }
  if (view->meta_->num_shortcut_edges > view->meta_->num_edges) {
    return Status::InvalidArgument(
        StrFormat("'%s': meta declares %llu shortcut edges out of %llu"
                  " total",
                  path.c_str(),
                  static_cast<unsigned long long>(
                      view->meta_->num_shortcut_edges),
                  static_cast<unsigned long long>(view->meta_->num_edges)));
  }
  return view;
}

Result<std::span<const std::byte>> FlatImageView::SectionBytes(
    SectionId id) const {
  auto it = sections_.find(static_cast<uint32_t>(id));
  if (it == sections_.end()) {
    return Status::InvalidArgument(
        StrFormat("image has no section %u", static_cast<unsigned>(id)));
  }
  return file_.bytes().subspan(it->second.offset, it->second.size);
}

Result<StringTableView> FlatImageView::Strings(
    SectionId offsets_id, SectionId blob_id, size_t expected_count) const {
  MEDRELAX_ASSIGN_OR_RETURN(std::span<const uint64_t> offsets,
                            SectionArray<uint64_t>(offsets_id));
  MEDRELAX_ASSIGN_OR_RETURN(std::span<const std::byte> blob,
                            SectionBytes(blob_id));
  // `offsets.size() - 1 != expected_count` rather than
  // `offsets.size() != expected_count + 1`: with a corrupt
  // expected_count of SIZE_MAX the latter wraps to 0, an empty offsets
  // section passes, and offsets.front() below reads an empty span.
  if (offsets.empty() || offsets.size() - 1 != expected_count) {
    return Status::InvalidArgument(
        StrFormat("string table %u: %zu offsets, want %zu + 1",
                  static_cast<unsigned>(offsets_id), offsets.size(),
                  expected_count));
  }
  if (offsets.front() != 0 || offsets.back() != blob.size()) {
    return Status::InvalidArgument(
        StrFormat("string table %u: offsets do not span the %zu-byte blob",
                  static_cast<unsigned>(offsets_id), blob.size()));
  }
  for (size_t i = 0; i + 1 < offsets.size(); ++i) {
    // Strictly increasing, so offsets[i + 1] - 1 is a byte of string i:
    // its terminator.
    if (offsets[i] >= offsets[i + 1]) {
      return Status::InvalidArgument(
          StrFormat("string table %u: offsets do not increase at index %zu",
                    static_cast<unsigned>(offsets_id), i));
    }
    if (blob[offsets[i + 1] - 1] != std::byte{0}) {
      return Status::InvalidArgument(
          StrFormat("string table %u: string %zu is not NUL-terminated",
                    static_cast<unsigned>(offsets_id), i));
    }
  }
  return StringTableView(offsets,
                         reinterpret_cast<const char*>(blob.data()));
}

}  // namespace medrelax::flat
