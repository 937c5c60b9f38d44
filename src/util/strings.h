// Small string utilities shared across the library.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace seg::util {

/// Splits `input` on `delimiter`, returning views into `input`. Empty fields
/// are preserved ("a..b" on '.' -> {"a", "", "b"}). The views are valid only
/// while the underlying buffer lives.
std::vector<std::string_view> split(std::string_view input, char delimiter);

/// split() into `out` (cleared first), so a caller that splits one line
/// after another reuses the vector's capacity instead of allocating.
void split(std::string_view input, char delimiter, std::vector<std::string_view>& out);

/// Splits but skips empty fields.
std::vector<std::string_view> split_skip_empty(std::string_view input, char delimiter);

/// split_skip_empty() into `out` (cleared first).
void split_skip_empty(std::string_view input, char delimiter, std::vector<std::string_view>& out);

/// Joins `parts` with `delimiter`.
std::string join(const std::vector<std::string_view>& parts, std::string_view delimiter);
std::string join(const std::vector<std::string>& parts, std::string_view delimiter);

/// Trims ASCII whitespace from both ends, returning a view into the input.
std::string_view trim(std::string_view input);

/// ASCII lowercase copy.
std::string to_lower(std::string_view input);

bool starts_with(std::string_view text, std::string_view prefix);
bool ends_with(std::string_view text, std::string_view suffix);

/// Parses a non-negative integer; throws ParseError on malformed input or
/// overflow.
std::uint64_t parse_u64(std::string_view text);

/// Parses a double; throws ParseError on malformed input.
double parse_double(std::string_view text);

/// Formats `value` with `digits` decimal places.
std::string format_double(double value, int digits);

/// Human-readable approximate count: 1234567 -> "1.23M".
std::string format_count(std::uint64_t value);

}  // namespace seg::util
