//===- Trace.cpp - In-memory spans for the traced benchmark run -----------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <fstream>

using namespace perfbench;

Trace &Trace::get() {
  static Trace Instance;
  return Instance;
}

uint64_t Trace::record(const char *Name, Clock::time_point Start,
                       Clock::time_point End, uint64_t Request,
                       uint64_t Parent) {
  if (!Enabled)
    return 0;
  std::lock_guard<std::mutex> Guard(Lock);
  uint64_t Id = NextId++;
  Spans.push_back(Span{Name, Id, Parent, Request, Start, End});
  return Id;
}

bool Trace::writeJson(const std::string &Path) const {
  std::lock_guard<std::mutex> Guard(Lock);
  std::ofstream Out(Path);
  Out << "{\"traceEvents\": [\n";
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    Out << (I ? ",\n" : "") << "{\"name\": \"" << S.Name
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
        << microsBetween(Origin, S.Start)
        << ", \"dur\": " << microsBetween(S.Start, S.End)
        << ", \"args\": {\"id\": " << S.Id << ", \"parent\": " << S.Parent
        << ", \"request\": " << S.Request << "}}";
  }
  Out << "\n]}\n";
  return static_cast<bool>(Out);
}
