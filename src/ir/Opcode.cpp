//===- Opcode.cpp - IR operation opcodes -----------------------------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "ir/Opcode.h"

#include "support/Error.h"

#include <cassert>

using namespace selgen;

const char *selgen::opcodeName(Opcode Op) {
  switch (Op) {
  case Opcode::Arg:
    return "Arg";
  case Opcode::Const:
    return "Const";
  case Opcode::Add:
    return "Add";
  case Opcode::Sub:
    return "Sub";
  case Opcode::Mul:
    return "Mul";
  case Opcode::And:
    return "And";
  case Opcode::Or:
    return "Or";
  case Opcode::Xor:
    return "Xor";
  case Opcode::Not:
    return "Not";
  case Opcode::Minus:
    return "Minus";
  case Opcode::Shl:
    return "Shl";
  case Opcode::Shr:
    return "Shr";
  case Opcode::Shrs:
    return "Shrs";
  case Opcode::Load:
    return "Load";
  case Opcode::Store:
    return "Store";
  case Opcode::Cmp:
    return "Cmp";
  case Opcode::Mux:
    return "Mux";
  case Opcode::Cond:
    return "Cond";
  }
  SELGEN_UNREACHABLE("bad opcode");
}

const char *selgen::relationName(Relation Rel) {
  switch (Rel) {
  case Relation::Eq:
    return "eq";
  case Relation::Ne:
    return "ne";
  case Relation::Ult:
    return "ult";
  case Relation::Ule:
    return "ule";
  case Relation::Ugt:
    return "ugt";
  case Relation::Uge:
    return "uge";
  case Relation::Slt:
    return "slt";
  case Relation::Sle:
    return "sle";
  case Relation::Sgt:
    return "sgt";
  case Relation::Sge:
    return "sge";
  }
  SELGEN_UNREACHABLE("bad relation");
}

std::optional<Opcode> selgen::tryOpcodeFromName(std::string_view Name) {
  // Names as views, measured once: the parser looks up every line's.
  struct Entry {
    std::string_view Name;
    Opcode Op;
  };
  static const Entry All[] = {
      {"Arg", Opcode::Arg},     {"Const", Opcode::Const},
      {"Add", Opcode::Add},     {"Sub", Opcode::Sub},
      {"Mul", Opcode::Mul},     {"And", Opcode::And},
      {"Or", Opcode::Or},       {"Xor", Opcode::Xor},
      {"Not", Opcode::Not},     {"Minus", Opcode::Minus},
      {"Shl", Opcode::Shl},     {"Shr", Opcode::Shr},
      {"Shrs", Opcode::Shrs},   {"Load", Opcode::Load},
      {"Store", Opcode::Store}, {"Cmp", Opcode::Cmp},
      {"Mux", Opcode::Mux},     {"Cond", Opcode::Cond}};
  for (const Entry &E : All) {
    assert(E.Name == opcodeName(E.Op) && "opcode table out of sync");
    if (Name == E.Name)
      return E.Op;
  }
  return std::nullopt;
}

Opcode selgen::opcodeFromName(const std::string &Name) {
  if (std::optional<Opcode> Op = tryOpcodeFromName(Name))
    return *Op;
  reportFatalError("unknown opcode name: " + Name);
}

Relation selgen::relationFromName(const std::string &Name) {
  for (Relation Rel : allRelations())
    if (Name == relationName(Rel))
      return Rel;
  reportFatalError("unknown relation name: " + Name);
}

Relation selgen::negateRelation(Relation Rel) {
  switch (Rel) {
  case Relation::Eq:
    return Relation::Ne;
  case Relation::Ne:
    return Relation::Eq;
  case Relation::Ult:
    return Relation::Uge;
  case Relation::Ule:
    return Relation::Ugt;
  case Relation::Ugt:
    return Relation::Ule;
  case Relation::Uge:
    return Relation::Ult;
  case Relation::Slt:
    return Relation::Sge;
  case Relation::Sle:
    return Relation::Sgt;
  case Relation::Sgt:
    return Relation::Sle;
  case Relation::Sge:
    return Relation::Slt;
  }
  SELGEN_UNREACHABLE("bad relation");
}

Relation selgen::swapRelation(Relation Rel) {
  switch (Rel) {
  case Relation::Eq:
    return Relation::Eq;
  case Relation::Ne:
    return Relation::Ne;
  case Relation::Ult:
    return Relation::Ugt;
  case Relation::Ule:
    return Relation::Uge;
  case Relation::Ugt:
    return Relation::Ult;
  case Relation::Uge:
    return Relation::Ule;
  case Relation::Slt:
    return Relation::Sgt;
  case Relation::Sle:
    return Relation::Sge;
  case Relation::Sgt:
    return Relation::Slt;
  case Relation::Sge:
    return Relation::Sle;
  }
  SELGEN_UNREACHABLE("bad relation");
}

const std::vector<Relation> &selgen::allRelations() {
  static const std::vector<Relation> All = {
      Relation::Eq,  Relation::Ne,  Relation::Ult, Relation::Ule,
      Relation::Ugt, Relation::Uge, Relation::Slt, Relation::Sle,
      Relation::Sgt, Relation::Sge};
  return All;
}

SortList selgen::opcodeArgSorts(Opcode Op, unsigned Width) {
  Sort V = Sort::value(Width);
  Sort B = Sort::boolean();
  Sort M = Sort::memory();
  switch (Op) {
  case Opcode::Arg:
  case Opcode::Const:
    return {};
  case Opcode::Add:
  case Opcode::Sub:
  case Opcode::Mul:
  case Opcode::And:
  case Opcode::Or:
  case Opcode::Xor:
  case Opcode::Shl:
  case Opcode::Shr:
  case Opcode::Shrs:
  case Opcode::Cmp:
    return {V, V};
  case Opcode::Not:
  case Opcode::Minus:
    return {V};
  case Opcode::Load:
    return {M, V}; // memory, pointer
  case Opcode::Store:
    return {M, V, V}; // memory, pointer, value
  case Opcode::Mux:
    return {B, V, V};
  case Opcode::Cond:
    return {B};
  }
  SELGEN_UNREACHABLE("bad opcode");
}

SortList selgen::opcodeResultSorts(Opcode Op, unsigned Width) {
  Sort V = Sort::value(Width);
  Sort B = Sort::boolean();
  Sort M = Sort::memory();
  switch (Op) {
  case Opcode::Arg:
    SELGEN_UNREACHABLE("Arg result sort is per-node, not per-opcode");
  case Opcode::Const:
  case Opcode::Add:
  case Opcode::Sub:
  case Opcode::Mul:
  case Opcode::And:
  case Opcode::Or:
  case Opcode::Xor:
  case Opcode::Not:
  case Opcode::Minus:
  case Opcode::Shl:
  case Opcode::Shr:
  case Opcode::Shrs:
  case Opcode::Mux:
    return {V};
  case Opcode::Load:
    return {M, V};
  case Opcode::Store:
    return {M};
  case Opcode::Cmp:
    return {B};
  case Opcode::Cond:
    return {B, B};
  }
  SELGEN_UNREACHABLE("bad opcode");
}

bool selgen::opcodeHasInternalAttribute(Opcode Op) {
  return Op == Opcode::Const || Op == Opcode::Cmp;
}

bool selgen::opcodeIsCommutative(Opcode Op) {
  switch (Op) {
  case Opcode::Add:
  case Opcode::Mul:
  case Opcode::And:
  case Opcode::Or:
  case Opcode::Xor:
    return true;
  default:
    return false;
  }
}

bool selgen::opcodeTouchesMemory(Opcode Op) {
  return Op == Opcode::Load || Op == Opcode::Store;
}

const std::vector<Opcode> &selgen::allTemplateOpcodes() {
  static const std::vector<Opcode> All = {
      Opcode::Const, Opcode::Add,  Opcode::Sub,   Opcode::Mul, Opcode::And,
      Opcode::Or,    Opcode::Xor,  Opcode::Not,   Opcode::Minus,
      Opcode::Shl,   Opcode::Shr,  Opcode::Shrs,  Opcode::Load,
      Opcode::Store, Opcode::Cmp,  Opcode::Mux,   Opcode::Cond};
  return All;
}
