//===- CommandLine.h - Minimal flag parsing ----------------------*- C++ -*-===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deliberately small command-line parser for the examples and
/// benchmark harnesses: --flag, --key value, --key=value, and free
/// positional arguments. Unknown flags are reported, not silently
/// accepted.
///
//===----------------------------------------------------------------------===//

#ifndef SELGEN_SUPPORT_COMMANDLINE_H
#define SELGEN_SUPPORT_COMMANDLINE_H

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace selgen {

/// What a numeric option must hold, checked before a tool does any work.
enum class NumberRule {
  Width, ///< A data width: a power of two from 8 to 2^31.
  Count, ///< A non-negative count, such as threads or runs, up to 2^32-1.
};

/// True if \p Value obeys \p Rule.
bool followsNumberRule(uint64_t Value, NumberRule Rule);

/// Parsed command line.
class CommandLine {
public:
  /// Parses argv. \p KnownFlags lists accepted option names (without
  /// the leading dashes); anything else lands in errors().
  CommandLine(int Argc, char **Argv,
              const std::vector<std::string> &KnownFlags);

  bool hasFlag(const std::string &Name) const {
    return Options.count(Name) != 0;
  }

  std::string stringOption(const std::string &Name,
                           const std::string &Default) const;
  int64_t intOption(const std::string &Name, int64_t Default) const;
  double doubleOption(const std::string &Name, double Default) const;

  /// Reads --Name under \p Rule; absent or empty is \p Default. A value
  /// that is not a decimal integer or breaks the rule yields nullopt and
  /// sets \p Error to "--name must be ... (got VALUE)".
  std::optional<unsigned> checkedOption(const std::string &Name,
                                        unsigned Default, NumberRule Rule,
                                        std::string &Error) const;

  const std::vector<std::string> &positional() const { return Positional; }
  const std::vector<std::string> &errors() const { return Errors; }

  /// Renders a usage line from the known flags.
  static std::string usage(const std::string &Program,
                           const std::vector<std::string> &KnownFlags);

private:
  std::map<std::string, std::string> Options;
  std::vector<std::string> Positional;
  std::vector<std::string> Errors;
};

} // namespace selgen

#endif // SELGEN_SUPPORT_COMMANDLINE_H
