#ifndef MEDRELAX_COMMON_STRING_TABLE_H_
#define MEDRELAX_COMMON_STRING_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace medrelax {

/// A string_view whose last character is followed by a NUL, so c_str()
/// is valid. It converts implicitly to std::string, so it drops in where
/// a `const std::string&` accessor used to be. Like std::string::c_str,
/// c_str() stops a printf-style reader at the first embedded NUL.
class CStringView : public std::string_view {
 public:
  constexpr CStringView() : std::string_view("") {}
  constexpr CStringView(const char* data, size_t size)
      : std::string_view(data, size) {}
  [[nodiscard]] const char* c_str() const { return data(); }
  operator std::string() const { return std::string(data(), size()); }
};

/// A read-only table of NUL-terminated strings: string i occupies
/// blob[offsets[i], offsets[i + 1]), its terminator last. This is both
/// the in-memory form StringTableBuilder produces and the on-disk form of
/// a flat image's string sections, so a table borrowed from a mapping and
/// one built on the heap read the same way. The caller vouches for the
/// layout (FlatImageView::Strings validates a borrowed one).
class StringTableView {
 public:
  StringTableView() = default;
  StringTableView(std::span<const uint64_t> offsets, const char* blob)
      // lint:allow(lifetime-escape) borrows storage its owner keeps alive
      : offsets_(offsets), blob_(blob) {}

  [[nodiscard]] size_t size() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] CStringView operator[](size_t i) const {
    return At(offsets_, blob_, i);
  }
  /// The layout itself, for a writer: offsets, and the blob bytes they
  /// span (terminators included).
  [[nodiscard]] std::span<const uint64_t> offsets() const { return offsets_; }
  [[nodiscard]] std::span<const char> blob() const {
    return {blob_, offsets_.empty() ? 0 : static_cast<size_t>(offsets_.back())};
  }
  /// Strings [first, first + count) as a table of their own over the
  /// same blob.
  [[nodiscard]] StringTableView Slice(size_t first, size_t count) const {
    return {offsets_.subspan(first, count + 1), blob_};
  }

  class Iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = CStringView;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = CStringView;
    Iterator() = default;
    Iterator(const StringTableView& table, size_t i)
        : offsets_(table.offsets_), blob_(table.blob_), i_(i) {}
    CStringView operator*() const { return At(offsets_, blob_, i_); }
    Iterator& operator++() {
      ++i_;
      return *this;
    }
    Iterator operator++(int) {
      Iterator old = *this;
      ++i_;
      return old;
    }
    bool operator==(const Iterator& other) const { return i_ == other.i_; }

   private:
    std::span<const uint64_t> offsets_;
    const char* blob_ = nullptr;
    size_t i_ = 0;
  };
  [[nodiscard]] Iterator begin() const { return {*this, 0}; }
  [[nodiscard]] Iterator end() const { return {*this, size()}; }

 private:
  static CStringView At(std::span<const uint64_t> offsets, const char* blob,
                        size_t i) {
    return {blob + offsets[i],
            static_cast<size_t>(offsets[i + 1] - offsets[i] - 1)};
  }

  std::span<const uint64_t> offsets_;
  const char* blob_ = nullptr;
};

/// Accumulates strings in StringTableView's layout.
struct StringTableBuilder {
  std::vector<uint64_t> offsets{0};
  std::string blob;

  void Add(std::string_view s) {
    blob.append(s);
    blob.push_back('\0');
    offsets.push_back(blob.size());
  }
  [[nodiscard]] StringTableView view() const {
    return {offsets, blob.data()};
  }
};

}  // namespace medrelax

#endif  // MEDRELAX_COMMON_STRING_TABLE_H_
