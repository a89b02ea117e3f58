// Binary serialization used for every RPC payload in Bridge.
//
// The wire format is deliberately simple and explicit: little-endian fixed
// width integers, length-prefixed byte strings, u32-counted vectors.  A
// message states its layout once, as a field list in wire order:
//
//   struct OpenRequest {
//     std::string name;
//     static auto fields(auto& m) { return std::tie(m.name); }
//   };
//
// and `encode_to_bytes` / `decode_from_bytes` walk that list, writing each
// field by its C++ type.  No message writes its own encode/decode pair, so
// the two directions cannot disagree, and the one vector rule below bounds
// every count read off the wire.  Messages could travel over a real network
// unchanged (the paper notes its message layer "could be realized equally
// well on any local area network").
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <vector>

#include "src/util/status.hpp"

namespace bridge::util {

/// Append-only encoder producing a byte buffer.
class Writer {
 public:
  Writer() = default;
  explicit Writer(std::size_t reserve_bytes) { buf_.reserve(reserve_bytes); }

  void u8(std::uint8_t v) { buf_.push_back(std::byte{v}); }
  void u16(std::uint16_t v) { put_le(v); }
  void u32(std::uint32_t v) { put_le(v); }
  void u64(std::uint64_t v) { put_le(v); }
  void i64(std::int64_t v) { put_le(static_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }

  /// Length-prefixed (u32) byte string.
  void bytes(std::span<const std::byte> data);
  void str(std::string_view s);

  /// Raw bytes with no length prefix (caller knows the length).
  void raw(std::span<const std::byte> data);

  [[nodiscard]] const std::vector<std::byte>& buffer() const noexcept {
    return buf_;
  }
  [[nodiscard]] std::vector<std::byte> take() && noexcept {
    return std::move(buf_);
  }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }

 private:
  template <typename T>
  void put_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(std::byte(static_cast<std::uint8_t>(v >> (8 * i))));
    }
  }
  std::vector<std::byte> buf_;
};

/// Cursor-based decoder over a byte span.  Decoding past the end or reading a
/// malformed length throws StatusError(kCorrupt): a truncated message is a
/// peer bug, not a caller-recoverable condition.
class Reader {
 public:
  explicit Reader(std::span<const std::byte> data) : data_(data) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(take(1)[0]); }
  std::uint16_t u16() { return get_le<std::uint16_t>(); }
  std::uint32_t u32() { return get_le<std::uint32_t>(); }
  std::uint64_t u64() { return get_le<std::uint64_t>(); }
  std::int64_t i64() { return static_cast<std::int64_t>(get_le<std::uint64_t>()); }
  bool boolean() { return u8() != 0; }

  std::vector<std::byte> bytes();
  std::string str();

  /// A u32 element count.  Every encoded element takes at least one byte,
  /// so a count larger than the bytes left is corrupt; rejecting it here
  /// keeps a hostile count from reserving gigabytes.
  std::uint32_t count();

  /// Raw bytes with no length prefix.
  std::span<const std::byte> raw(std::size_t n) { return take(n); }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }
  [[nodiscard]] bool exhausted() const noexcept { return remaining() == 0; }

 private:
  std::span<const std::byte> take(std::size_t n);
  template <typename T>
  T get_le() {
    auto span = take(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<std::uint8_t>(span[i])) << (8 * i);
    }
    return v;
  }

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

// --- Field-list codec -----------------------------------------------------
//
// Field types and their wire forms:
//   bool, std::uint8_t, std::uint32_t, std::uint64_t   by C++ width
//   std::string, std::vector<std::byte>                u32 length + bytes
//   std::vector<T>                                     u32 count + elements
//   a struct with `static auto fields(auto& m)`        its fields, in order
//   a type with `encode(Writer&) const` and
//     `static T decode(Reader&)`                       its own layout
//
// The last row is the one customization point, for the few layouts a field
// list cannot state (a derived member, arrays sized by another field).  Such
// a layout reads its counts through Reader::count() too.

template <typename T>
concept FieldListed = requires(T& m) { T::fields(m); };

template <typename T>
concept SelfEncoded = requires(const T& v, Writer& w, Reader& r) {
  v.encode(w);
  { T::decode(r) } -> std::same_as<T>;
};

namespace detail {
template <typename T>
inline constexpr bool kIsVector = false;
template <typename T, typename A>
inline constexpr bool kIsVector<std::vector<T, A>> = true;
}  // namespace detail

template <typename T>
void write_field(Writer& w, const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    w.boolean(v);
  } else if constexpr (std::is_same_v<T, std::uint8_t>) {
    w.u8(v);
  } else if constexpr (std::is_same_v<T, std::uint32_t>) {
    w.u32(v);
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    w.u64(v);
  } else if constexpr (std::is_same_v<T, std::string>) {
    w.str(v);
  } else if constexpr (std::is_same_v<T, std::vector<std::byte>>) {
    w.bytes(v);
  } else if constexpr (detail::kIsVector<T>) {
    w.u32(static_cast<std::uint32_t>(v.size()));
    for (const auto& element : v) write_field(w, element);
  } else if constexpr (SelfEncoded<T>) {
    v.encode(w);
  } else {
    static_assert(FieldListed<T>, "wire type needs a field list");
    std::apply([&w](const auto&... f) { (write_field(w, f), ...); },
               T::fields(v));
  }
}

template <typename T>
void read_field(Reader& r, T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    v = r.boolean();
  } else if constexpr (std::is_same_v<T, std::uint8_t>) {
    v = r.u8();
  } else if constexpr (std::is_same_v<T, std::uint32_t>) {
    v = r.u32();
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    v = r.u64();
  } else if constexpr (std::is_same_v<T, std::string>) {
    v = r.str();
  } else if constexpr (std::is_same_v<T, std::vector<std::byte>>) {
    v = r.bytes();
  } else if constexpr (detail::kIsVector<T>) {
    std::uint32_t n = r.count();
    v.clear();
    v.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) read_field(r, v.emplace_back());
  } else if constexpr (SelfEncoded<T>) {
    v = T::decode(r);
  } else {
    static_assert(FieldListed<T>, "wire type needs a field list");
    std::apply([&r](auto&... f) { (read_field(r, f), ...); }, T::fields(v));
  }
}

/// Encode one wire value.
template <typename T>
std::vector<std::byte> encode_to_bytes(const T& value) {
  Writer w;
  write_field(w, value);
  return std::move(w).take();
}

/// Decode one wire value; a short payload or a dishonest count throws
/// StatusError(kCorrupt), which every server turns into an error reply.
template <typename T>
T decode_from_bytes(std::span<const std::byte> data) {
  Reader r(data);
  T value;
  read_field(r, value);
  return value;
}

}  // namespace bridge::util
