//===- Sort.h - Value sorts shared by IR and SMT models ---------*- C++ -*-===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Defines the sorts that classify every value flowing through the IR
/// and through the SMT models (paper Section 4: "The sorts of the
/// arguments, internal values, and results form the instruction's
/// interface").
///
/// * Value(W): a W-bit bit-vector (data and pointers alike; the paper
///   uses Pointer = BitVec32 on the 32-bit target).
/// * Bool: a one-bit truth value (comparison results, jump outcomes).
/// * Memory: an M-value, the SSA token threading the memory chain
///   (paper Section 4.1). Its SMT width is goal-specific.
///
//===----------------------------------------------------------------------===//

#ifndef SELGEN_IR_SORT_H
#define SELGEN_IR_SORT_H

#include "ir/InlineList.h"

#include <cassert>
#include <string>

namespace selgen {

/// Classifies a value in the IR and in the SMT encoding.
enum class SortKind {
  Value,  ///< Bit-vector of a given width.
  Bool,   ///< One-bit truth value.
  Memory, ///< M-value (memory chain token).
};

/// A sort: kind plus bit width (width is meaningful for Value only).
struct Sort {
  SortKind Kind;
  unsigned Width; // Bits; 0 for Bool and Memory.

  static Sort value(unsigned Width) {
    assert(Width >= 1 && "value sort needs a width");
    return {SortKind::Value, Width};
  }
  static Sort boolean() { return {SortKind::Bool, 0}; }
  static Sort memory() { return {SortKind::Memory, 0}; }

  bool isValue() const { return Kind == SortKind::Value; }
  bool isBool() const { return Kind == SortKind::Bool; }
  bool isMemory() const { return Kind == SortKind::Memory; }

  bool operator==(const Sort &RHS) const {
    return Kind == RHS.Kind && Width == RHS.Width;
  }
  bool operator!=(const Sort &RHS) const { return !(*this == RHS); }

  std::string str() const {
    switch (Kind) {
    case SortKind::Value:
      return "bv" + std::to_string(Width);
    case SortKind::Bool:
      return "bool";
    case SortKind::Memory:
      return "mem";
    }
    return "<invalid>";
  }
};

/// The operand or result sorts of one operation.
using SortList = InlineList<Sort, 3>;

} // namespace selgen

#endif // SELGEN_IR_SORT_H
