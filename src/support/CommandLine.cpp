//===- CommandLine.cpp - Minimal flag parsing ----------------------------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/CommandLine.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <cstdlib>

using namespace selgen;

CommandLine::CommandLine(int Argc, char **Argv,
                         const std::vector<std::string> &KnownFlags) {
  auto isKnown = [&KnownFlags](const std::string &Name) {
    return std::find(KnownFlags.begin(), KnownFlags.end(), Name) !=
           KnownFlags.end();
  };

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (!startsWith(Arg, "--")) {
      Positional.push_back(Arg);
      continue;
    }
    std::string Name = Arg.substr(2);
    std::string Value;
    size_t Equals = Name.find('=');
    if (Equals != std::string::npos) {
      Value = Name.substr(Equals + 1);
      Name = Name.substr(0, Equals);
    } else if (I + 1 < Argc && !startsWith(Argv[I + 1], "--")) {
      Value = Argv[++I];
    }
    if (!isKnown(Name)) {
      Errors.push_back("unknown option: --" + Name);
      continue;
    }
    Options[Name] = Value;
  }
}

std::string CommandLine::stringOption(const std::string &Name,
                                      const std::string &Default) const {
  auto It = Options.find(Name);
  return It == Options.end() || It->second.empty() ? Default : It->second;
}

int64_t CommandLine::intOption(const std::string &Name,
                               int64_t Default) const {
  auto It = Options.find(Name);
  return It == Options.end() || It->second.empty()
             ? Default
             : std::atoll(It->second.c_str());
}

double CommandLine::doubleOption(const std::string &Name,
                                 double Default) const {
  auto It = Options.find(Name);
  return It == Options.end() || It->second.empty()
             ? Default
             : std::atof(It->second.c_str());
}

bool selgen::followsNumberRule(uint64_t Value, NumberRule Rule) {
  if (Rule == NumberRule::Width)
    return Value >= 8 && Value <= (1ull << 31) && (Value & (Value - 1)) == 0;
  return Value <= UINT32_MAX;
}

std::optional<unsigned>
CommandLine::checkedOption(const std::string &Name, unsigned Default,
                           NumberRule Rule, std::string &Error) const {
  auto It = Options.find(Name);
  if (It == Options.end() || It->second.empty())
    return Default;
  const std::string &Text = It->second;
  uint64_t Value = 0;
  if (parseNumber(Text, Value) && followsNumberRule(Value, Rule))
    return static_cast<unsigned>(Value);
  Error = "--" + Name +
          (Rule == NumberRule::Width
               ? " must be a power of two from 8 to 2^31"
               : " must be a non-negative integer below 2^32") +
          " (got " + Text + ")";
  return std::nullopt;
}

std::string CommandLine::usage(const std::string &Program,
                               const std::vector<std::string> &KnownFlags) {
  std::string Result = "usage: " + Program;
  for (const std::string &Flag : KnownFlags)
    Result += " [--" + Flag + " <value>]";
  return Result;
}
