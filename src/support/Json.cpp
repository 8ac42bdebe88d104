//===- Json.cpp - Minimal JSON helpers ----------------------------------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include <cstdio>

using namespace selgen;

std::string selgen::jsonEscape(const std::string &Value) {
  std::string Result;
  for (char C : Value) {
    switch (C) {
    case '"':
      Result += "\\\"";
      break;
    case '\\':
      Result += "\\\\";
      break;
    case '\n':
      Result += "\\n";
      break;
    case '\t':
      Result += "\\t";
      break;
    case '\r':
      Result += "\\r";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buffer[8];
        std::snprintf(Buffer, sizeof(Buffer), "\\u%04x", C);
        Result += Buffer;
      } else {
        Result += C;
      }
    }
  }
  return Result;
}
