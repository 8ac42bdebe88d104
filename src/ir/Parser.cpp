//===- Parser.cpp - Textual IR input ----------------------------------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "ir/Parser.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <map>

using namespace selgen;

namespace {

constexpr size_t npos = std::string_view::npos;

// Searches of the short views a graph's lines split into. A line is a
// few dozen bytes, where a plain loop beats a call into memchr or
// memcmp, and every rule of a library is parsed.

/// Position of the first \p C in \p Text at or after \p From, or npos.
size_t findChar(std::string_view Text, char C, size_t From = 0) {
  for (size_t I = From; I < Text.size(); ++I)
    if (Text[I] == C)
      return I;
  return npos;
}

/// Position of the last \p C in \p Text, or npos.
size_t findLastChar(std::string_view Text, char C) {
  for (size_t I = Text.size(); I-- > 0;)
    if (Text[I] == C)
      return I;
  return npos;
}

/// True if \p Text starts with \p Prefix.
bool hasPrefix(std::string_view Text, std::string_view Prefix) {
  if (Text.size() < Prefix.size())
    return false;
  for (size_t I = 0; I < Prefix.size(); ++I)
    if (Text[I] != Prefix[I])
      return false;
  return true;
}

/// Position of the first \p Needle in \p Text, or npos.
size_t findText(std::string_view Text, std::string_view Needle) {
  for (size_t I = 0; I + Needle.size() <= Text.size(); ++I)
    if (hasPrefix(Text.substr(I), Needle))
      return I;
  return npos;
}

/// Value of hex digit \p C, or -1.
int hexDigit(char C) {
  if (C >= '0' && C <= '9')
    return C - '0';
  if (C >= 'a' && C <= 'f')
    return C - 'a' + 10;
  if (C >= 'A' && C <= 'F')
    return C - 'A' + 10;
  return -1;
}

/// Parses a decimal number without throwing (parser input is
/// untrusted). The length cap keeps the accumulator well inside
/// unsigned range.
std::optional<unsigned> parseUnsigned(std::string_view Text) {
  if (Text.empty() || Text.size() > 9)
    return std::nullopt;
  unsigned Value = 0;
  for (char C : Text) {
    if (C < '0' || C > '9')
      return std::nullopt;
    Value = Value * 10 + unsigned(C - '0');
  }
  return Value;
}

/// Most definitions a parser reserves room for before reading them.
constexpr size_t MaxReservedDefinitions = 1024;

/// Widths a graph or constant may declare. The cap bounds the
/// allocation a malformed header like "bv999999999" could trigger.
bool isReasonableWidth(unsigned Width) { return Width >= 1 && Width <= 1024; }

std::optional<Sort> parseSort(std::string_view Text) {
  if (Text == "mem")
    return Sort::memory();
  if (Text == "bool")
    return Sort::boolean();
  if (hasPrefix(Text, "bv")) {
    std::optional<unsigned> Width = parseUnsigned(Text.substr(2));
    if (!Width || !isReasonableWidth(*Width))
      return std::nullopt;
    return Sort::value(*Width);
  }
  return std::nullopt;
}

/// "Name(arg, arg, ...)" split into the trimmed name and the trimmed
/// text between the first '(' and the last ')'. Anything after the
/// last ')' is ignored.
struct Call {
  std::string_view Name;
  std::string_view Arguments;
};

std::optional<Call> splitCall(std::string_view Text) {
  size_t Open = findChar(Text, '(');
  size_t Close = findLastChar(Text, ')');
  if (Open == npos || Close == npos || Close < Open)
    return std::nullopt;
  return Call{trimView(Text.substr(0, Open)),
              trimView(Text.substr(Open + 1, Close - Open - 1))};
}

/// Calls \p Visit on every trimmed comma-separated field of \p List (an
/// empty list has none; empty fields are visited). Stops at, and
/// returns false on, the first field \p Visit rejects.
template <typename VisitFn>
bool forEachField(std::string_view List, VisitFn Visit) {
  if (List.empty())
    return true;
  while (true) {
    size_t Comma = findChar(List, ',');
    if (!Visit(trimView(List.substr(0, Comma))))
      return false;
    if (Comma == npos)
      return true;
    List.remove_prefix(Comma + 1);
  }
}

/// Hand-written single-pass parser for the printer's format. Lines,
/// names and numbers are views into the input, so a line costs no
/// allocation beyond the node it defines. Every rule of a library is
/// parsed, so each thread reuses one parser: its definition tables and
/// scratch keep their storage, and once grown a parse allocates
/// nothing but its graph.
class GraphParser {
public:
  /// Parses \p NewText, which need only outlive the call.
  std::optional<Graph> parse(std::string_view NewText,
                             std::string *ErrorMessage) {
    Text = NewText;
    Pos = 0;
    LineIndex = 0;
    Error.clear();
    ArgDefs.clear();
    NodeDefs.clear();
    OtherDefs.clear();
    ArgSorts.clear();
    std::optional<Graph> Result = parseImpl();
    if (!Result && ErrorMessage)
      *ErrorMessage = Error;
    return Result;
  }

private:
  std::string_view Text;
  /// Start of the next unread line, npos once the input is consumed.
  size_t Pos = 0;
  /// Lines consumed so far. A failure reports LineIndex + 1, i.e. one
  /// past the offending line's 1-based number, and two past the line
  /// count at end of input; tools and tests match these numbers.
  size_t LineIndex = 0;
  std::string Error;
  /// Definitions by name. The printer names arguments a<k> and
  /// operations n<k>, numbered densely from 0, so those names resolve
  /// through vectors indexed by k. Any other spelling the format
  /// accepts ("x", "n01", or an n<k> defined out of order) lives in
  /// OtherDefs. See define() for why a name is never in both places.
  std::vector<Node *> ArgDefs;
  std::vector<Node *> NodeDefs;
  std::map<std::string_view, Node *> OtherDefs;
  std::vector<Sort> ArgSorts;
  /// Operand scratch, reused across lines.
  std::vector<NodeRef> Operands;
  /// "Op" + "(...)" of an "Op[attr](...)" right-hand side, reused
  /// across lines.
  std::string CallText;

  bool fail(std::string_view Message) {
    Error = "line " + std::to_string(LineIndex + 1) + ": ";
    Error += Message;
    return false;
  }

  /// The next line that is neither blank nor a '#' comment, trimmed;
  /// empty at end of input.
  std::string_view nextLine() {
    while (Pos != npos) {
      size_t End = findChar(Text, '\n', Pos);
      std::string_view Line = trimView(Text.substr(Pos, End - Pos));
      Pos = End == npos ? npos : End + 1;
      ++LineIndex;
      if (!Line.empty() && Line.front() != '#')
        return Line;
    }
    ++LineIndex;
    return {};
  }

  /// The definition table slot of printer-style name \p Name ("a<k>" or
  /// "n<k>" with k in canonical decimal), or nullptr for other names.
  std::vector<Node *> *printerTable(std::string_view Name, unsigned &K) {
    if (Name.size() < 2 || (Name[1] == '0' && Name.size() != 2))
      return nullptr;
    std::vector<Node *> *Table = Name[0] == 'a'   ? &ArgDefs
                                 : Name[0] == 'n' ? &NodeDefs
                                                  : nullptr;
    if (!Table)
      return nullptr;
    std::optional<unsigned> Parsed = parseUnsigned(Name.substr(1));
    if (!Parsed)
      return nullptr;
    K = *Parsed;
    return Table;
  }

  /// Binds \p Name to \p N; a later definition of a name shadows the
  /// earlier one. A printer-style name goes to its vector when its
  /// slot exists or is the next one, and to OtherDefs otherwise, so
  /// the vectors never outgrow the definitions. Once a slot exists
  /// every later definition of that name lands in it, so the slot,
  /// when present, always holds the newest binding.
  void define(std::string_view Name, Node *N) {
    unsigned K = 0;
    std::vector<Node *> *Table = printerTable(Name, K);
    if (Table && K < Table->size())
      (*Table)[K] = N;
    else if (Table && K == Table->size())
      Table->push_back(N);
    else
      OtherDefs[Name] = N;
  }

  Node *findDef(std::string_view Name) {
    unsigned K = 0;
    std::vector<Node *> *Table = printerTable(Name, K);
    if (Table && K < Table->size())
      return (*Table)[K];
    auto It = OtherDefs.find(Name);
    return It == OtherDefs.end() ? nullptr : It->second;
  }

  /// Resolves a reference: "a0", "n3", or "n3.1".
  std::optional<NodeRef> lookupRef(std::string_view Name) {
    std::string_view Base = Name;
    unsigned Index = 0;
    size_t Dot = findChar(Name, '.');
    if (Dot != npos) {
      Base = Name.substr(0, Dot);
      std::optional<unsigned> Parsed = parseUnsigned(Name.substr(Dot + 1));
      if (!Parsed)
        return std::nullopt;
      Index = *Parsed;
    }
    Node *Def = findDef(Base);
    if (!Def || Index >= Def->numResults())
      return std::nullopt;
    return NodeRef(Def, Index);
  }

  /// Resolves the references of \p List into Operands.
  bool resolveAll(std::string_view List) {
    Operands.clear();
    return forEachField(List, [&](std::string_view Name) {
      std::optional<NodeRef> Ref = lookupRef(Name);
      if (!Ref)
        return fail("unknown value: " + std::string(Name));
      Operands.push_back(*Ref);
      return true;
    });
  }

  std::optional<Graph> parseImpl() {
    std::string_view Header = nextLine();
    if (!hasPrefix(Header, "graph w")) {
      fail("expected 'graph w<width> args(...) {'");
      return std::nullopt;
    }
    size_t ArgsPos = findText(Header, " args(");
    if (ArgsPos == npos || Header.back() != '{') {
      fail("malformed graph header");
      return std::nullopt;
    }
    std::optional<unsigned> Width =
        parseUnsigned(Header.substr(7, ArgsPos - 7));
    if (!Width || !isReasonableWidth(*Width)) {
      fail("malformed graph width");
      return std::nullopt;
    }
    std::optional<Call> Args = splitCall(
        trimView(Header.substr(ArgsPos + 1, Header.size() - ArgsPos - 2)));
    if (!Args || Args->Name != "args") {
      fail("malformed argument list");
      return std::nullopt;
    }
    if (!forEachField(Args->Arguments, [&](std::string_view SortName) {
          std::optional<Sort> S = parseSort(SortName);
          if (!S)
            return fail("unknown sort: " + std::string(SortName));
          ArgSorts.push_back(*S);
          return true;
        }))
      return std::nullopt;

    // Every definition line holds one '=', so counting them sizes the
    // node block and the name table up front. The cap keeps hostile
    // input from reserving more than it could ever define.
    size_t Definitions = std::min<size_t>(
        std::count(Text.begin() + std::min(Pos, Text.size()), Text.end(), '='),
        MaxReservedDefinitions);
    unsigned Capacity = static_cast<unsigned>(ArgSorts.size() + Definitions);
    Graph G(*Width, ArgSorts, Capacity);
    NodeDefs.reserve(Definitions);
    ArgDefs.reserve(G.numArgs());
    for (unsigned I = 0; I < G.numArgs(); ++I)
      ArgDefs.push_back(G.arg(I).Def);

    while (true) {
      std::string_view Line = nextLine();
      if (Line.empty()) {
        fail("unexpected end of input");
        return std::nullopt;
      }
      if (Line == "}")
        return G;
      if (hasPrefix(Line, "results(")) {
        std::optional<Call> Results = splitCall(Line);
        if (!Results) {
          fail("malformed results list");
          return std::nullopt;
        }
        if (!resolveAll(Results->Arguments))
          return std::nullopt;
        G.setResults(Operands);
        continue;
      }
      if (!parseDefinition(G, Line))
        return std::nullopt;
    }
  }

  bool parseDefinition(Graph &G, std::string_view Line) {
    size_t Equals = findText(Line, " = ");
    if (Equals == npos)
      return fail("expected 'name = Opcode(...)'");
    std::string_view DefName = trimView(Line.substr(0, Equals));
    std::string_view Rhs = trimView(Line.substr(Equals + 3));

    // Split off an optional attribute "Opcode[attr](...)". The text
    // around the brackets is rejoined, as the format always has.
    std::string_view Attribute;
    size_t Bracket = findChar(Rhs, '[');
    if (Bracket != npos && Bracket < findChar(Rhs, '(')) {
      size_t CloseBracket = findChar(Rhs, ']', Bracket);
      if (CloseBracket == npos)
        return fail("unterminated attribute");
      Attribute = Rhs.substr(Bracket + 1, CloseBracket - Bracket - 1);
      CallText.assign(Rhs.substr(0, Bracket));
      CallText.append(Rhs.substr(CloseBracket + 1));
      Rhs = CallText;
    }

    std::optional<Call> Operation = splitCall(Rhs);
    if (!Operation)
      return fail("malformed operation");
    std::string_view OpName = Operation->Name;
    if (!resolveAll(Operation->Arguments))
      return false;

    if (OpName == "Const")
      return parseConst(G, DefName, Attribute);

    std::optional<Opcode> Op = tryOpcodeFromName(OpName);
    if (!Op || *Op == Opcode::Arg)
      return fail("unknown operation: " + std::string(OpName));
    SortList Expected = opcodeArgSorts(*Op, G.width());
    if (Operands.size() != Expected.size())
      return fail("operand count mismatch for " + std::string(OpName));
    for (unsigned I = 0; I < Operands.size(); ++I)
      if (Operands[I].sort() != Expected[I])
        return fail("operand sort mismatch for " + std::string(OpName));
    Node *N = G.createNode(*Op, Operands);
    if (*Op == Opcode::Cmp) {
      std::optional<Relation> Rel;
      for (Relation Candidate : allRelations())
        if (Attribute == relationName(Candidate))
          Rel = Candidate;
      if (!Rel)
        return fail("unknown relation: " + std::string(Attribute));
      N->setRelation(*Rel);
    }
    define(DefName, N);
    return true;
  }

  /// Attribute "0x2a:8" = value:width. Operands, if any, are ignored.
  bool parseConst(Graph &G, std::string_view DefName,
                  std::string_view Attribute) {
    auto malformed = [&](const char *What) {
      return fail(std::string(What) + std::string(Attribute));
    };
    size_t Colon = Attribute.find(':');
    if (Colon == npos || Attribute.find(':', Colon + 1) != npos ||
        Attribute.substr(0, 2) != "0x")
      return malformed("malformed Const attribute: ");
    std::optional<unsigned> ConstWidth =
        parseUnsigned(Attribute.substr(Colon + 1));
    if (!ConstWidth || !isReasonableWidth(*ConstWidth))
      return malformed("malformed Const width: ");
    std::string_view Hex = Attribute.substr(2, Colon - 2);
    if (Hex.empty())
      return malformed("malformed Const attribute: ");
    for (char C : Hex)
      if (hexDigit(C) < 0)
        return malformed("malformed Const attribute: ");
    // Reject (rather than silently truncate) a value wider than the
    // declared sort; leading zero digits are fine.
    size_t FirstSignificant = Hex.find_first_not_of('0');
    if (FirstSignificant != npos) {
      unsigned Lead = unsigned(hexDigit(Hex[FirstSignificant]));
      unsigned LeadBits = Lead >= 8 ? 4 : Lead >= 4 ? 3 : Lead >= 2 ? 2 : 1;
      size_t Bits = 4 * (Hex.size() - FirstSignificant - 1) + LeadBits;
      if (Bits > *ConstWidth)
        return fail("Const value 0x" + std::string(Hex) +
                    " does not fit in " + std::to_string(*ConstWidth) +
                    " bits");
    }
    // The value fits, so every set bit is below the width.
    BitValue Value(*ConstWidth, 0);
    for (size_t Digit = 0; Digit < Hex.size(); ++Digit) {
      unsigned Nibble = unsigned(hexDigit(Hex[Hex.size() - 1 - Digit]));
      for (unsigned B = 0; B < 4; ++B)
        if (Nibble >> B & 1)
          Value.setBit(unsigned(4 * Digit + B), true);
    }
    define(DefName, G.createConst(Value).Def);
    return true;
  }
};

} // namespace

std::optional<Graph> selgen::parseGraph(std::string_view Text,
                                        std::string *ErrorMessage) {
  thread_local GraphParser Parser;
  return Parser.parse(Text, ErrorMessage);
}
