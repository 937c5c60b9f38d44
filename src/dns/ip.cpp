#include "dns/ip.h"

#include <algorithm>
#include <charconv>

#include "util/require.h"

namespace seg::dns {

IpV4 IpV4::parse(std::string_view text) {
  // Runs per sim-TSV address and per wire machine identifier, so the
  // success path splits in place and builds no message.
  if (std::count(text.begin(), text.end(), '.') != 3) {
    throw util::ParseError("IpV4::parse: expected 4 octets in '" + std::string(text) + "'");
  }
  std::uint32_t value = 0;
  std::size_t start = 0;
  for (int i = 0; i < 4; ++i) {
    const auto dot = text.find('.', start);
    const auto part = text.substr(start, dot == std::string_view::npos ? dot : dot - start);
    unsigned int octet = 0;
    const auto [ptr, ec] = std::from_chars(part.data(), part.data() + part.size(), octet);
    if (ec != std::errc() || ptr != part.data() + part.size() || octet > 255 ||
        part.empty() || part.size() > 3) {
      throw util::ParseError("IpV4::parse: malformed octet in '" + std::string(text) + "'");
    }
    value = (value << 8) | octet;
    start = dot + 1;
  }
  return IpV4(value);
}

std::string IpV4::to_string() const {
  std::string out;
  out.reserve(15);
  out += std::to_string((value_ >> 24) & 0xff);
  out += '.';
  out += std::to_string((value_ >> 16) & 0xff);
  out += '.';
  out += std::to_string((value_ >> 8) & 0xff);
  out += '.';
  out += std::to_string(value_ & 0xff);
  return out;
}

}  // namespace seg::dns
