// libFuzzer harness for the flat snapshot image pipeline: each input is
// written to a scratch file and pushed through the full
// Open -> validate -> load path (flat/image_view.cc,
// flat/snapshot_codec.cc, serve/snapshot.cc), exactly what a
// RELOAD <path> executes on operator-supplied bytes. A snapshot that
// loads reads its DAG, names and name index in place from the mapping,
// so the harness then does what a request does with them: an exact
// lookup, a typo lookup through the trigram postings and length
// buckets, a mapping, and one relaxation. Any outcome is fine except a
// crash or UB — corruption must always surface as a typed Status at
// load, never as a bad read at lookup time.
//
// The custom mutator keeps inputs plausible enough to reach the deep
// checks: libFuzzer mutates freely, then the header is re-stamped with
// the right magic/version/endianness/declared-size and the payload
// checksum is recomputed (it covers [sizeof(ImageHeader), end), so the
// header patch itself needs no second pass). Without this, virtually
// every mutation dies at the checksum and the section/meta validation
// never sees coverage.

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <string>

#include "medrelax/common/checksum.h"
#include "medrelax/flat/format.h"
#include "medrelax/serve/snapshot.h"

namespace {

// One scratch file per process: FlatImageView::Open maps a path, so the
// bytes have to hit a filesystem. /tmp keeps this off the source tree;
// the pid keeps parallel fuzzer jobs from clobbering each other. The
// file is removed when the process exits normally (static destruction,
// which both the replay driver and libFuzzer's exit path run).
struct ScratchFile {
  std::string path = "/tmp/medrelax_fuzz_image_" +
                     std::to_string(::getpid()) + ".img";
  ScratchFile() = default;
  ScratchFile(const ScratchFile&) = delete;
  ScratchFile& operator=(const ScratchFile&) = delete;
  ~ScratchFile() { ::unlink(path.c_str()); }
};

const std::string& ScratchPath() {
  static const ScratchFile file;
  return file.path;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::FILE* out = std::fopen(ScratchPath().c_str(), "wb");
  if (out == nullptr) return 0;
  const bool written =
      size == 0 || std::fwrite(data, 1, size, out) == size;
  if (std::fclose(out) != 0 || !written) return 0;

  medrelax::Result<std::shared_ptr<medrelax::Snapshot>> loaded =
      medrelax::Snapshot::LoadFromImage(ScratchPath());
  if (!loaded.ok()) return 0;
  const medrelax::Snapshot& snap = **loaded;
  const medrelax::NameIndex& index = snap.name_index();
  if (index.entries().size() > 0) {
    const std::string surface(index.entries()[0].surface);
    (void)index.FindExact(surface);
    // One edit off the first surface: reaches the postings (long
    // surfaces) or the length buckets (short ones).
    const std::string typo = surface + "q";
    (void)index.CandidatesWithin(typo, 2);
    (void)snap.mapper().Map(typo);
  }
  if (snap.dag().num_concepts() > 0) {
    (void)snap.relaxer().RelaxConceptWithK(0, medrelax::kNoContext, 3);
  }
  return 0;
}

#if defined(MEDRELAX_FUZZER_BUILD)

extern "C" size_t LLVMFuzzerMutate(uint8_t* data, size_t size,
                                   size_t max_size);

extern "C" size_t LLVMFuzzerCustomMutator(uint8_t* data, size_t size,
                                          size_t max_size, unsigned seed) {
  (void)seed;
  const size_t new_size = LLVMFuzzerMutate(data, size, max_size);
  using medrelax::flat::ImageHeader;
  if (new_size < sizeof(ImageHeader)) return new_size;
  ImageHeader header;
  std::memcpy(&header, data, sizeof(header));
  std::memcpy(header.magic, medrelax::flat::kImageMagic,
              sizeof(header.magic));
  header.version = medrelax::flat::kImageVersion;
  header.endian = medrelax::flat::kEndianMarker;
  header.file_size = new_size;
  header.payload_checksum = medrelax::FnvChecksum(
      std::span<const std::byte>(
          reinterpret_cast<const std::byte*>(data) + sizeof(ImageHeader),
          new_size - sizeof(ImageHeader)));
  std::memcpy(data, &header, sizeof(header));
  return new_size;
}

#endif  // MEDRELAX_FUZZER_BUILD
