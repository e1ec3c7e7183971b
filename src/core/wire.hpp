// Canonical little-endian byte serialization, for signed protocol content and
// for every wire message.
//
// Threshold signatures bind (source, round, level, value); STS beacon tags
// bind (origin, seq, position, neighbor list). Both sides must serialize
// identically, so all multi-byte fields are little-endian through these
// helpers.
//
// A wire message writes its layout once, as a field-list function template
// next to its struct:
//
//   template <class Io, class Self>
//   static void wire_fields(Io& io, Self& m) { io.u32(m.dest); io.flag(m.known); ... }
//
// WireWriter walks it over a const message to encode; WireReader walks it
// over a default-constructed one to decode. The two classes therefore offer
// the same operation names, the writer taking values and the reader taking
// the field to fill.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace icc::core {

class WireWriter {
 public:
  WireWriter() = default;
  /// Appends to `buf`, whose capacity take() hands back: a caller that moves
  /// one cleared buffer in and out again encodes without allocating.
  explicit WireWriter(std::vector<std::uint8_t> buf) noexcept : buf_{std::move(buf)} {}

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { put_le(v); }
  void u32(std::uint32_t v) { put_le(v); }
  void u64(std::uint64_t v) { put_le(v); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, 8);
    u64(bits);
  }
  void flag(bool v) { u8(v ? 1 : 0); }
  template <class E>
    requires std::is_enum_v<E>
  void enum_u8(E v, E /*last*/) {
    u8(static_cast<std::uint8_t>(v));
  }
  template <std::size_t N>
  void raw(const std::array<std::uint8_t, N>& a) {
    buf_.insert(buf_.end(), a.begin(), a.end());
  }
  void bytes(std::span<const std::uint8_t> b) {
    u32(static_cast<std::uint32_t>(b.size()));
    buf_.insert(buf_.end(), b.begin(), b.end());
  }
  void str(const std::string& s) {
    bytes(std::span{reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
  }
  /// An element count, then `each(*this, element)` for every element.
  template <class T, class F>
  void list(const std::vector<T>& v, F&& each) {
    u32(static_cast<std::uint32_t>(v.size()));
    for (const T& e : v) each(*this, e);
  }

  /// Overwrites four already-written bytes at `at` (a length known only
  /// once the rest is written).
  void patch_u32(std::size_t at, std::uint32_t v) {
    for (std::size_t i = 0; i < 4; ++i) buf_[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }

  [[nodiscard]] const std::vector<std::uint8_t>& data() const noexcept { return buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take() && noexcept { return std::move(buf_); }

 private:
  template <class U>
  void put_le(U v) {
    for (std::size_t i = 0; i < sizeof(U); ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  std::vector<std::uint8_t> buf_;
};

/// Sticky-failure reader: malformed input from Byzantine nodes is an
/// expected event, not a program error, so no read throws. A read that runs
/// past the end or finds a non-canonical value marks the reader failed and
/// leaves its field untouched; every later read is a no-op. Check ok() (or
/// done(), for a buffer that must be consumed exactly) once at the end.
class WireReader {
 public:
  explicit WireReader(std::span<const std::uint8_t> data) : data_{data} {}

  void u8(std::uint8_t& v) {
    if (const std::uint8_t* p = take(1)) v = *p;
  }
  void u16(std::uint16_t& v) { get_le(v); }
  void u32(std::uint32_t& v) { get_le(v); }
  /// An int field travels as its u32 bit pattern.
  void u32(int& v) {
    std::uint32_t bits = 0;
    if (get_le(bits)) v = static_cast<int>(bits);
  }
  void u64(std::uint64_t& v) { get_le(v); }
  void f64(double& v) {
    std::uint64_t bits = 0;
    if (get_le(bits)) std::memcpy(&v, &bits, 8);
  }
  /// Exactly 0 or 1: any other byte would decode to a bool that re-encodes
  /// differently.
  void flag(bool& v) {
    const std::uint8_t* p = take(1);
    if (p == nullptr) return;
    if (*p > 1) {
      fail();
      return;
    }
    v = *p == 1;
  }
  /// One byte naming an enumerator no greater than `last`.
  template <class E>
    requires std::is_enum_v<E>
  void enum_u8(E& v, E last) {
    const std::uint8_t* p = take(1);
    if (p == nullptr) return;
    if (*p > static_cast<std::uint8_t>(last)) {
      fail();
      return;
    }
    v = static_cast<E>(*p);
  }
  /// A fixed-size raw field (a digest): no length prefix.
  template <std::size_t N>
  void raw(std::array<std::uint8_t, N>& a) {
    if (const std::uint8_t* p = take(N)) std::memcpy(a.data(), p, N);
  }
  void bytes(std::vector<std::uint8_t>& v) {
    std::uint32_t len = 0;
    if (!get_le(len)) return;
    if (const std::uint8_t* p = take(len)) v.assign(p, p + len);
  }
  /// An element count, then `each(*this, element)` per element. Every
  /// element occupies at least one byte, so a count above the bytes that
  /// remain fails before anything is reserved: a forged count can never
  /// allocate more than the input's own size.
  template <class T, class F>
  void list(std::vector<T>& v, F&& each) {
    std::uint32_t n = 0;
    if (!get_le(n)) return;
    if (n > data_.size() - off_) {
      fail();
      return;
    }
    v.clear();
    v.reserve(n);
    for (std::uint32_t i = 0; i < n && ok_; ++i) each(*this, v.emplace_back());
  }

  void fail() noexcept { ok_ = false; }
  [[nodiscard]] bool ok() const noexcept { return ok_; }
  /// Every read succeeded and consumed the input exactly.
  [[nodiscard]] bool done() const noexcept { return ok_ && off_ == data_.size(); }

 private:
  /// The next `n` bytes, or nullptr (failing the reader) when fewer remain.
  const std::uint8_t* take(std::size_t n) {
    if (!ok_ || n > data_.size() - off_) {
      ok_ = false;
      return nullptr;
    }
    const std::uint8_t* p = data_.data() + off_;
    off_ += n;
    return p;
  }
  template <class U>
  bool get_le(U& v) {
    const std::uint8_t* p = take(sizeof(U));
    if (p == nullptr) return false;
    U out = 0;
    for (std::size_t i = 0; i < sizeof(U); ++i) out |= static_cast<U>(U{p[i]} << (8 * i));
    v = out;
    return true;
  }

  std::span<const std::uint8_t> data_;
  std::size_t off_{0};
  bool ok_{true};
};

}  // namespace icc::core
