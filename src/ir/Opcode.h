//===- Opcode.h - IR operation opcodes ---------------------------*- C++ -*-===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The IR operation set, modeled after libFirm's integer subset. This
/// is the operation alphabet I of the synthesis (paper Sections 4/5):
/// each opcode has an interface (argument/internal/result sorts) and a
/// semantics, given both concretely (ir/Interpreter) and symbolically
/// (semantics/IrSemantics).
///
//===----------------------------------------------------------------------===//

#ifndef SELGEN_IR_OPCODE_H
#define SELGEN_IR_OPCODE_H

#include "ir/Sort.h"

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace selgen {

/// IR opcodes. "Arg" is the pattern/function argument pseudo-op and
/// never appears in template multisets.
enum class Opcode {
  Arg,   ///< Pattern or block argument (pseudo operation).
  Const, ///< Constant; the value is an internal attribute.
  Add,   ///< Two's-complement addition.
  Sub,   ///< Two's-complement subtraction.
  Mul,   ///< Low-word multiplication.
  And,   ///< Bitwise and.
  Or,    ///< Bitwise or.
  Xor,   ///< Bitwise exclusive or.
  Not,   ///< Bitwise complement.
  Minus, ///< Two's-complement negation.
  Shl,   ///< Left shift; undefined unless 0 <= amount < width (C).
  Shr,   ///< Logical right shift; same precondition.
  Shrs,  ///< Arithmetic right shift; same precondition.
  Load,  ///< M x Ptr -> M x Value. Little-endian, width/8 bytes.
  Store, ///< M x Ptr x Value -> M.
  Cmp,   ///< Value x Value -> Bool; the relation is internal.
  Mux,   ///< Bool x Value x Value -> Value (conditional move).
  Cond,  ///< Bool -> Bool x Bool (taken, fall-through); jump results.
};

/// The comparison relations of the Cmp operation (and of x86 condition
/// codes, see x86/CondCode.h).
enum class Relation {
  Eq,
  Ne,
  Ult,
  Ule,
  Ugt,
  Uge,
  Slt,
  Sle,
  Sgt,
  Sge,
};

/// Returns the mnemonic, e.g. "Add".
const char *opcodeName(Opcode Op);

/// Returns the relation mnemonic, e.g. "slt".
const char *relationName(Relation Rel);

/// Parses an opcode name; aborts on unknown names.
Opcode opcodeFromName(const std::string &Name);

/// Parses an opcode name; returns std::nullopt on unknown names.
std::optional<Opcode> tryOpcodeFromName(std::string_view Name);

/// Parses a relation name; asserts on unknown names.
Relation relationFromName(const std::string &Name);

/// Negates a relation (taken <-> not taken).
Relation negateRelation(Relation Rel);

/// Returns the relation with swapped operands (a R b <=> b R' a).
Relation swapRelation(Relation Rel);

/// All ten relations, for iteration.
const std::vector<Relation> &allRelations();

/// The argument sorts Sa of \p Op for data width \p Width.
SortList opcodeArgSorts(Opcode Op, unsigned Width);

/// The result sorts Sr of \p Op for data width \p Width.
SortList opcodeResultSorts(Opcode Op, unsigned Width);

/// Returns true if \p Op carries an internal attribute (paper: values
/// "chosen at synthesis time"): the constant for Const, the relation
/// for Cmp.
bool opcodeHasInternalAttribute(Opcode Op);

/// Returns true for commutative binary operations (used by the pattern
/// normalizer and the duplicate filter).
bool opcodeIsCommutative(Opcode Op);

/// Returns true if the opcode touches memory (Load/Store).
bool opcodeTouchesMemory(Opcode Op);

/// All opcodes legal in synthesis template multisets (everything
/// except Arg).
const std::vector<Opcode> &allTemplateOpcodes();

} // namespace selgen

#endif // SELGEN_IR_OPCODE_H
