// Versioned on-disk format headers.
//
// Every text serialization in the project (Segugio models, the passive DNS
// database, the domain activity index) starts with one line:
//
//   segf1 <magic> <version>
//
// `segf1` marks the container ("segugio format, revision 1" of the header
// itself), `magic` names the payload kind, and `version` lets each payload
// evolve independently. Every loader requires the header: a stream without
// it reads as version 0, which each loader rejects with util::ParseError.
#pragma once

#include <cstddef>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>

#include "util/require.h"

namespace seg::util {

inline constexpr std::string_view kFormatTag = "segf1";

/// Writes the `segf1 <magic> <version>` header line.
inline void write_format_header(std::ostream& out, std::string_view magic, int version) {
  out << kFormatTag << ' ' << magic << ' ' << version << '\n';
}

/// Consumes the versioned header and returns the stream's format version.
/// When the stream does not start with the `segf1` tag it is rewound
/// untouched and `legacy_version` is returned, for the caller to reject.
/// Throws ParseError when the tag is present but the magic mismatches or
/// the version is outside [1, latest_version].
inline int read_format_header(std::istream& in, std::string_view magic, int latest_version,
                              int legacy_version = 0) {
  const auto start = in.tellg();
  std::string tag;
  if (!(in >> tag) || tag != kFormatTag) {
    // Headerless (or empty) stream: put everything back for the caller.
    in.clear();
    in.seekg(start);
    return legacy_version;
  }
  std::string found_magic;
  int version = 0;
  in >> found_magic >> version;
  require_data(static_cast<bool>(in) && found_magic == magic,
               "read_format_header: expected magic '" + std::string(magic) + "', got '" +
                   found_magic + "'");
  require_data(version >= 1 && version <= latest_version,
               "read_format_header: unsupported " + std::string(magic) + " version " +
                   std::to_string(version) + " (latest supported: " +
                   std::to_string(latest_version) + ")");
  return version;
}

/// Checks an untrusted element count read from `in` before a loader
/// allocates for it: every element takes at least `min_bytes` of the input
/// still unread, so a count the rest of the stream cannot hold is
/// malformed. A stream that cannot report its size passes, so loaders
/// append elements as they parse them and never resize to the count.
inline void require_count_fits(std::istream& in, std::size_t count, std::size_t min_bytes,
                               std::string_view message) {
  const auto here = in.tellg();
  if (here < 0) {
    return;
  }
  in.seekg(0, std::ios::end);
  const auto end = in.tellg();
  in.seekg(here);
  if (end < here) {
    return;
  }
  const auto left = static_cast<std::size_t>(end - here);
  require_data(count <= left / min_bytes, message);
}

}  // namespace seg::util
