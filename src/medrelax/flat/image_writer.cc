#include "medrelax/flat/image_writer.h"

#include <unistd.h>

#include <cstdio>
#include <unordered_set>

#include "medrelax/common/string_util.h"

namespace medrelax::flat {

namespace {

uint64_t AlignUp(uint64_t value, uint64_t alignment) {
  return (value + alignment - 1) & ~(alignment - 1);
}

void AppendPod(std::vector<std::byte>* out, const void* pod, size_t size) {
  if (size == 0) return;  // memcpy from a null data() would be UB
  const size_t at = out->size();
  out->resize(at + size);
  std::memcpy(out->data() + at, pod, size);
}

}  // namespace

Status FlatImageWriter::WriteToFile(const std::string& path) const {
  std::unordered_set<uint32_t> seen;
  for (const Section& section : sections_) {
    if (!seen.insert(static_cast<uint32_t>(section.id)).second) {
      return Status::InvalidArgument(
          StrFormat("duplicate section id %u",
                    static_cast<unsigned>(section.id)));
    }
  }

  // Lay out: header | directory | aligned payloads.
  std::vector<SectionEntry> directory(sections_.size());
  uint64_t cursor = sizeof(ImageHeader) +
                    sections_.size() * sizeof(SectionEntry);
  for (size_t i = 0; i < sections_.size(); ++i) {
    cursor = AlignUp(cursor, kSectionAlignment);
    directory[i] = SectionEntry{static_cast<uint32_t>(sections_[i].id), 0,
                                cursor, sections_[i].bytes.size()};
    cursor += sections_[i].bytes.size();
  }

  ImageHeader header{};
  std::memcpy(header.magic, kImageMagic, sizeof(kImageMagic));
  header.version = kImageVersion;
  header.endian = kEndianMarker;
  header.file_size = cursor;
  header.directory_offset = sizeof(ImageHeader);
  header.section_count = static_cast<uint32_t>(sections_.size());

  // Assemble the payload (everything after the header) so the checksum
  // can be stamped before any byte hits the disk.
  std::vector<std::byte> payload;
  payload.reserve(cursor - sizeof(ImageHeader));
  for (const SectionEntry& entry : directory) {
    AppendPod(&payload, &entry, sizeof(entry));
  }
  for (size_t i = 0; i < sections_.size(); ++i) {
    payload.resize(directory[i].offset - sizeof(ImageHeader));  // align pad
    AppendPod(&payload, sections_[i].bytes.data(),
              sections_[i].bytes.size());
  }
  header.payload_checksum = FnvChecksum(payload);

  // Write a sibling temp file, then rename it over `path`. A server that
  // mapped the old image keeps the old inode, so its live snapshot never
  // sees the new bytes (nor a SIGBUS from a shorter file), and a failed
  // write leaves `path` as it was.
  const std::string temp = StrFormat("%s.tmp.%d", path.c_str(), ::getpid());
  std::FILE* out = std::fopen(temp.c_str(), "wb");
  if (out == nullptr) {
    return Status::InvalidArgument(
        StrFormat("cannot open '%s' for writing", temp.c_str()));
  }
  const bool ok =
      std::fwrite(&header, sizeof(header), 1, out) == 1 &&
      (payload.empty() ||
       std::fwrite(payload.data(), payload.size(), 1, out) == 1);
  if (std::fclose(out) != 0 || !ok) {
    std::remove(temp.c_str());
    return Status::Internal(StrFormat("write to '%s' failed", temp.c_str()));
  }
  if (std::rename(temp.c_str(), path.c_str()) != 0) {
    std::remove(temp.c_str());
    return Status::Internal(StrFormat("cannot rename '%s' to '%s'",
                                      temp.c_str(), path.c_str()));
  }
  return Status::OK();
}

}  // namespace medrelax::flat
