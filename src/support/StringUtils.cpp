//===- StringUtils.cpp - String helpers ------------------------------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

using namespace selgen;

std::vector<std::string> selgen::splitString(const std::string &Str,
                                             char Separator) {
  std::vector<std::string> Result;
  size_t Start = 0;
  while (true) {
    size_t Pos = Str.find(Separator, Start);
    if (Pos == std::string::npos) {
      Result.push_back(Str.substr(Start));
      return Result;
    }
    Result.push_back(Str.substr(Start, Pos - Start));
    Start = Pos + 1;
  }
}

bool selgen::parseNumber(const std::string &Text, uint64_t &Out) {
  if (Text.empty() || !std::isdigit(static_cast<unsigned char>(Text[0])))
    return false;
  errno = 0;
  char *End = nullptr;
  unsigned long long Value = std::strtoull(Text.c_str(), &End, 10);
  if (errno != 0 || End != Text.c_str() + Text.size())
    return false;
  Out = Value;
  return true;
}

bool selgen::parseNumber(const std::string &Text, unsigned &Out) {
  uint64_t Value = 0;
  if (!parseNumber(Text, Value) || Value > UINT32_MAX)
    return false;
  Out = static_cast<unsigned>(Value);
  return true;
}

bool selgen::parseNumber(const std::string &Text, double &Out) {
  if (Text.empty() || std::isspace(static_cast<unsigned char>(Text[0])))
    return false;
  errno = 0;
  char *End = nullptr;
  double Value = std::strtod(Text.c_str(), &End);
  if (errno != 0 || End != Text.c_str() + Text.size() || !std::isfinite(Value))
    return false;
  Out = Value;
  return true;
}

std::string selgen::joinStrings(const std::vector<std::string> &Parts,
                                const std::string &Separator) {
  std::string Result;
  for (size_t I = 0; I < Parts.size(); ++I) {
    if (I != 0)
      Result += Separator;
    Result += Parts[I];
  }
  return Result;
}

std::string selgen::trimString(const std::string &Str) {
  return std::string(trimView(Str));
}

bool selgen::startsWith(const std::string &Str, const std::string &Prefix) {
  return Str.size() >= Prefix.size() &&
         Str.compare(0, Prefix.size(), Prefix) == 0;
}

std::string selgen::padLeft(const std::string &Str, size_t Width) {
  if (Str.size() >= Width)
    return Str;
  return std::string(Width - Str.size(), ' ') + Str;
}

std::string selgen::padRight(const std::string &Str, size_t Width) {
  if (Str.size() >= Width)
    return Str;
  return Str + std::string(Width - Str.size(), ' ');
}

std::string selgen::formatDouble(double Value, unsigned Decimals) {
  char Buffer[64];
  std::snprintf(Buffer, sizeof(Buffer), "%.*f", Decimals, Value);
  return Buffer;
}

std::string selgen::formatGrouped(uint64_t Value) {
  std::string Digits = std::to_string(Value);
  std::string Result;
  size_t Count = 0;
  for (size_t I = Digits.size(); I-- > 0;) {
    Result += Digits[I];
    if (++Count % 3 == 0 && I != 0)
      Result += ' ';
  }
  std::reverse(Result.begin(), Result.end());
  return Result;
}

TablePrinter::TablePrinter(std::vector<std::string> Header) {
  Rows.push_back(std::move(Header));
}

void TablePrinter::addRow(std::vector<std::string> Row) {
  assert(Row.size() == Rows[0].size() && "row width mismatch");
  Rows.push_back(std::move(Row));
}

std::string TablePrinter::render() const {
  std::vector<size_t> Widths(Rows[0].size(), 0);
  for (const auto &Row : Rows)
    for (size_t I = 0; I < Row.size(); ++I)
      Widths[I] = std::max(Widths[I], Row[I].size());

  std::string Result;
  for (size_t RowIndex = 0; RowIndex < Rows.size(); ++RowIndex) {
    const auto &Row = Rows[RowIndex];
    for (size_t I = 0; I < Row.size(); ++I) {
      if (I != 0)
        Result += "  ";
      // Left-align the first column, right-align the numeric rest.
      Result += I == 0 ? padRight(Row[I], Widths[I])
                       : padLeft(Row[I], Widths[I]);
    }
    Result += '\n';
    if (RowIndex == 0) {
      size_t Total = 0;
      for (size_t I = 0; I < Widths.size(); ++I)
        Total += Widths[I] + (I == 0 ? 0 : 2);
      Result += std::string(Total, '-');
      Result += '\n';
    }
  }
  return Result;
}
