// Precondition / invariant checking helpers.
//
// Following the Core Guidelines (I.6, E.12) we express preconditions as
// checked requirements that throw on violation rather than macros that
// abort. These are used for programmer-facing contract violations; data
// errors use seg::util::ParseError and friends.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace seg::util {

/// Thrown when a function precondition is violated.
class PreconditionError : public std::logic_error {
 public:
  explicit PreconditionError(const std::string& what) : std::logic_error(what) {}
};

/// Thrown when malformed external data is encountered (logs, CSV, domain
/// strings, ...). Distinct from PreconditionError so callers can recover
/// from bad input without masking programming bugs.
class ParseError : public std::runtime_error {
 public:
  explicit ParseError(const std::string& what) : std::runtime_error(what) {}
};

/// Checks a precondition; throws PreconditionError with `message` when
/// `condition` is false. Intentionally always-on (not compiled out).
///
/// Both helpers are cheap enough to call per element when `message` is a
/// literal: a string_view costs nothing until the check fails. A message
/// built with `+` or std::to_string is evaluated before the call, i.e. on
/// every success too, so per-element checks with formatted messages test
/// first and build the message only on failure
/// (`if (!ok) throw ParseError("..." + detail);`).
inline void require(bool condition, std::string_view message) {
  if (!condition) {
    throw PreconditionError(std::string(message));
  }
}

/// Checks validity of parsed external data; throws ParseError when false.
inline void require_data(bool condition, std::string_view message) {
  if (!condition) {
    throw ParseError(std::string(message));
  }
}

}  // namespace seg::util
