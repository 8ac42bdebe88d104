//===- Trace.h - In-memory spans for the traced benchmark run ----*- C++ -*-===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans recorded by the benchmark around each call it makes into a
/// selgen module's public API. Spans live in memory while the run
/// measures and are written once, as Chrome trace-event JSON, when the
/// run ends. All spans of one serve request carry that request's id.
///
/// Recording is off unless enabled, and a disabled ScopedSpan only
/// reads the clock it would have read anyway, so the untraced run that
/// yields the end-to-end metrics pays nothing for the facility.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double microsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::micro>(B - A).count();
}

struct Span {
  const char *Name = ""; ///< Layer-qualified, e.g. "isel.select".
  uint64_t Id = 0;
  uint64_t Parent = 0;  ///< Span that caused this one (0 = none).
  uint64_t Request = 0; ///< Serve request id (0 = not a request).
  Clock::time_point Start, End;
};

class Trace {
public:
  static Trace &get();

  void setEnabled(bool On) { Enabled = On; }
  bool enabled() const { return Enabled; }

  /// Records a finished span and returns its id (0 when disabled).
  uint64_t record(const char *Name, Clock::time_point Start,
                  Clock::time_point End, uint64_t Request = 0,
                  uint64_t Parent = 0);

  /// Writes every span as Chrome trace-event JSON; false on I/O error.
  bool writeJson(const std::string &Path) const;

private:
  bool Enabled = false;
  mutable std::mutex Lock;
  std::vector<Span> Spans;
  uint64_t NextId = 1;
  Clock::time_point Origin = Clock::now();
};

/// Times one scope and records it as a span when tracing is on. The
/// elapsed time is available either way, so callers that need the
/// duration for a metric use the same clock reads as the span.
class ScopedSpan {
public:
  explicit ScopedSpan(const char *Name, uint64_t Request = 0,
                      uint64_t Parent = 0)
      : Name(Name), Request(Request), Parent(Parent), Start(Clock::now()) {}
  ~ScopedSpan() { finish(); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  /// Ends the span early; returns its duration in microseconds.
  double finish() {
    if (!Done) {
      End = Clock::now();
      Done = true;
      Id = Trace::get().record(Name, Start, End, Request, Parent);
    }
    return microsBetween(Start, End);
  }
  uint64_t id() const { return Id; }

private:
  const char *Name;
  uint64_t Request, Parent, Id = 0;
  Clock::time_point Start, End;
  bool Done = false;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
