// Bounds-checked cursor over a borrowed byte buffer — the zero-copy
// substrate of the wire-format parsers.
//
// Every wire reader (dnstap frame streams, pcap, DNS messages) walks an
// mmap'd or in-memory capture through a ByteCursor: reads are explicit
// big-/little-endian and every advance is bounds-checked, throwing
// util::ParseError on truncation. Nothing is copied — take() hands back
// subspans of the underlying mapping, so a multi-gigabyte capture is
// parsed without ever materializing it.
//
// A successful read costs one compare and one branch: the error message is
// formatted only after a check fails, in fail() (out of line and cold), so
// decoding a record allocates nothing on the cursor's account.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "util/require.h"

namespace seg::dns::wire {

class ByteCursor {
 public:
  ByteCursor() = default;
  explicit ByteCursor(std::span<const unsigned char> data) : data_(data) {}

  std::size_t pos() const { return pos_; }
  std::size_t size() const { return data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }

  /// Throws util::ParseError mentioning `what` unless `n` bytes remain.
  void require_bytes(std::size_t n, std::string_view what) const {
    if (n > remaining()) [[unlikely]] {
      fail(Failure::kTruncated, what, n, remaining());
    }
  }

  std::uint8_t u8(std::string_view what) {
    require_bytes(1, what);
    return data_[pos_++];
  }

  std::uint16_t u16be(std::string_view what) {
    require_bytes(2, what);
    const std::uint16_t value =
        static_cast<std::uint16_t>((std::uint16_t{data_[pos_]} << 8) | data_[pos_ + 1]);
    pos_ += 2;
    return value;
  }

  std::uint32_t u32be(std::string_view what) {
    require_bytes(4, what);
    const std::uint32_t value = (std::uint32_t{data_[pos_]} << 24) |
                                (std::uint32_t{data_[pos_ + 1]} << 16) |
                                (std::uint32_t{data_[pos_ + 2]} << 8) |
                                std::uint32_t{data_[pos_ + 3]};
    pos_ += 4;
    return value;
  }

  std::uint16_t u16le(std::string_view what) {
    require_bytes(2, what);
    const std::uint16_t value =
        static_cast<std::uint16_t>(data_[pos_] | (std::uint16_t{data_[pos_ + 1]} << 8));
    pos_ += 2;
    return value;
  }

  std::uint32_t u32le(std::string_view what) {
    require_bytes(4, what);
    const std::uint32_t value = std::uint32_t{data_[pos_]} |
                                (std::uint32_t{data_[pos_ + 1]} << 8) |
                                (std::uint32_t{data_[pos_ + 2]} << 16) |
                                (std::uint32_t{data_[pos_ + 3]} << 24);
    pos_ += 4;
    return value;
  }

  /// Borrows the next `n` bytes (no copy — a subspan of the underlying
  /// buffer, valid as long as the buffer) and advances past them.
  std::span<const unsigned char> take(std::size_t n, std::string_view what) {
    require_bytes(n, what);
    pos_ += n;
    return data_.subspan(pos_ - n, n);
  }

  void skip(std::size_t n, std::string_view what) {
    require_bytes(n, what);
    pos_ += n;
  }

  /// Reads the byte at absolute `offset` without moving the cursor — the
  /// random-access side of compression-pointer back-references. All
  /// bounds-checked random access goes through u8_at/view_at so R-WIRE1
  /// (docs/static-analysis.md) can confine raw subscripts to this header.
  std::uint8_t u8_at(std::size_t offset, std::string_view what) const {
    if (offset >= data_.size()) [[unlikely]] {
      fail(Failure::kPastEnd, what, 0, 0);
    }
    return data_[offset];
  }

  /// Borrows `n` bytes at absolute `offset` without moving the cursor (a
  /// subspan of the underlying buffer, valid as long as the buffer).
  std::span<const unsigned char> view_at(std::size_t offset, std::size_t n,
                                         std::string_view what) const {
    if (offset > data_.size() || n > data_.size() - offset) [[unlikely]] {
      fail(Failure::kTruncatedAt, what, n, offset);
    }
    return data_.subspan(offset, n);
  }

  /// The whole underlying buffer (for compression-pointer back-references).
  std::span<const unsigned char> buffer() const { return data_; }

 private:
  enum class Failure { kTruncated, kPastEnd, kTruncatedAt };

  // The one failure path of every check above: formats the message for
  // `kind` (`n` bytes needed; `at` is what remained or the absolute
  // offset) and throws util::ParseError. Kept out of line so the inlined
  // success paths stay a compare and a branch.
  [[noreturn]] [[gnu::cold]] [[gnu::noinline]] static void fail(Failure kind,
                                                                std::string_view what,
                                                                std::size_t n,
                                                                std::size_t at) {
    std::string message(what);
    switch (kind) {
      case Failure::kTruncated:
        message += ": truncated (need " + std::to_string(n) + " bytes, have " +
                   std::to_string(at) + ")";
        break;
      case Failure::kPastEnd:
        message += ": offset past buffer end";
        break;
      case Failure::kTruncatedAt:
        message += ": truncated (need " + std::to_string(n) + " bytes at offset " +
                   std::to_string(at) + ")";
        break;
    }
    throw util::ParseError(message);
  }

  std::span<const unsigned char> data_;
  std::size_t pos_ = 0;
};

}  // namespace seg::dns::wire
