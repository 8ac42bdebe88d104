//===- StringUtils.h - String helpers ---------------------------*- C++ -*-===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small string helpers shared by the pattern serializer, the test-case
/// generator, and the table printers of the benchmark harnesses.
///
//===----------------------------------------------------------------------===//

#ifndef SELGEN_SUPPORT_STRINGUTILS_H
#define SELGEN_SUPPORT_STRINGUTILS_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace selgen {

/// Splits \p Str on \p Separator; empty fields are preserved.
std::vector<std::string> splitString(const std::string &Str, char Separator);

/// Joins \p Parts with \p Separator.
std::string joinStrings(const std::vector<std::string> &Parts,
                        const std::string &Separator);

/// Removes leading and trailing whitespace.
std::string trimString(const std::string &Str);

/// trimString() without the copy: a view into \p Str. Inline, with a
/// plain loop: rule-library load trims every line and field it reads.
inline std::string_view trimView(std::string_view Str) {
  auto isSpace = [](char C) {
    return C == ' ' || C == '\t' || C == '\r' || C == '\n';
  };
  size_t Begin = 0, End = Str.size();
  while (Begin < End && isSpace(Str[Begin]))
    ++Begin;
  while (End > Begin && isSpace(Str[End - 1]))
    --End;
  return Str.substr(Begin, End - Begin);
}

/// Returns true if \p Str starts with \p Prefix.
bool startsWith(const std::string &Str, const std::string &Prefix);

/// Checked decimal parsers for decoders of untrusted text: all of
/// \p Text must be the number (an integer is digits only: no sign,
/// space or trailing junk; a double must be finite) and it must fit
/// \p Out. On failure they return false and leave \p Out untouched.
bool parseNumber(const std::string &Text, uint64_t &Out);
bool parseNumber(const std::string &Text, unsigned &Out);
bool parseNumber(const std::string &Text, double &Out);

/// parseNumber over the single-space-separated fields of \p Text, one
/// field per output; false unless the counts match and every field
/// parses.
template <typename... Ts>
bool parseFields(const std::string &Text, Ts &...Outs) {
  std::vector<std::string> Fields = splitString(Text, ' ');
  size_t I = 0;
  return Fields.size() == sizeof...(Outs) &&
         (parseNumber(Fields[I++], Outs) && ...);
}

/// Left-pads to \p Width with spaces.
std::string padLeft(const std::string &Str, size_t Width);

/// Right-pads to \p Width with spaces.
std::string padRight(const std::string &Str, size_t Width);

/// Formats a double with \p Decimals fraction digits.
std::string formatDouble(double Value, unsigned Decimals);

/// Formats an integer with thin-space thousands grouping as the paper
/// does ("63 012").
std::string formatGrouped(uint64_t Value);

/// A minimal aligned-column table printer used by the benchmark
/// harnesses to render the paper's tables.
class TablePrinter {
public:
  explicit TablePrinter(std::vector<std::string> Header);

  void addRow(std::vector<std::string> Row);

  /// Renders the table with a header separator line.
  std::string render() const;

private:
  std::vector<std::vector<std::string>> Rows;
};

} // namespace selgen

#endif // SELGEN_SUPPORT_STRINGUTILS_H
