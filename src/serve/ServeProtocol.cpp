//===- ServeProtocol.cpp - Compile-server payload encoding --------------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "serve/ServeProtocol.h"

#include "support/StringUtils.h"

#include <cinttypes>
#include <cstdio>

using namespace selgen;

namespace {

constexpr const char *RequestTag = "selgen-serve-batch-v1";
constexpr const char *ReplyTag = "selgen-serve-reply-v1";
constexpr const char *ErrorTag = "selgen-serve-error-v1";
constexpr const char *HealthTag = "selgen-serve-health-v1";
constexpr const char *HealthReplyTag = "selgen-serve-health-reply-v1";

void fail(std::string *Error, const std::string &Message) {
  if (Error)
    *Error = Message;
}

/// Sequential reader over a payload: newline-terminated lines
/// interleaved with byte-counted raw blocks.
struct Cursor {
  const std::string &S;
  size_t Pos = 0;

  bool nextLine(std::string &Out) {
    if (Pos >= S.size())
      return false;
    size_t End = S.find('\n', Pos);
    if (End == std::string::npos)
      return false; // Every line must be terminated.
    Out.assign(S, Pos, End - Pos);
    Pos = End + 1;
    return true;
  }

  /// Takes \p N raw bytes plus their terminating newline.
  bool takeRaw(size_t N, std::string &Out) {
    if (N > S.size() - Pos || S.size() - Pos - N < 1)
      return false;
    Out.assign(S, Pos, N);
    Pos += N;
    if (S[Pos] != '\n')
      return false;
    ++Pos;
    return true;
  }
};

} // namespace

std::string selgen::encodeBatchRequest(const BatchRequest &Request) {
  std::string Out = std::string(RequestTag) + "\n";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "id %" PRIu64 "\n", Request.Id);
  Out += Buf;
  std::snprintf(Buf, sizeof(Buf), "width %u\n", Request.Width);
  Out += Buf;
  for (const std::string &Name : Request.Workloads)
    Out += "workload " + Name + "\n";
  Out += "end\n";
  return Out;
}

std::optional<BatchRequest>
selgen::decodeBatchRequest(const std::string &Payload, std::string *Error) {
  Cursor C{Payload};
  std::string Line;
  if (!C.nextLine(Line) || Line != RequestTag) {
    fail(Error, "not a serve batch request");
    return std::nullopt;
  }
  BatchRequest Request;
  uint64_t Value = 0;
  if (!C.nextLine(Line) || Line.rfind("id ", 0) != 0 ||
      !parseNumber(Line.substr(3), Value)) {
    fail(Error, "bad id line");
    return std::nullopt;
  }
  Request.Id = Value;
  if (!C.nextLine(Line) || Line.rfind("width ", 0) != 0 ||
      !parseNumber(Line.substr(6), Value) || Value == 0 || Value > 64) {
    fail(Error, "bad width line");
    return std::nullopt;
  }
  Request.Width = static_cast<unsigned>(Value);
  while (C.nextLine(Line)) {
    if (Line == "end") {
      if (C.Pos != Payload.size()) {
        fail(Error, "trailing bytes after end");
        return std::nullopt;
      }
      return Request;
    }
    if (Line.rfind("workload ", 0) != 0 || Line.size() == 9) {
      fail(Error, "bad workload line: " + Line);
      return std::nullopt;
    }
    Request.Workloads.push_back(Line.substr(9));
  }
  fail(Error, "missing end trailer");
  return std::nullopt;
}

std::string selgen::encodeBatchReply(const BatchReply &Reply) {
  std::string Out = std::string(ReplyTag) + "\n";
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf), "id %" PRIu64 "\n", Reply.Id);
  Out += Buf;
  std::snprintf(Buf, sizeof(Buf), "wall %.3f\n", Reply.WallUs);
  Out += Buf;
  for (const BatchReply::Result &R : Reply.Results) {
    std::snprintf(Buf, sizeof(Buf),
                  " %u %u %u %" PRIu64 " %" PRIu64 " %.3f %zu\n",
                  R.TotalOperations, R.CoveredOperations,
                  R.FallbackOperations, R.RulesTried, R.NodesVisited,
                  R.SelectUs, R.Asm.size());
    Out += "result " + R.Workload + Buf;
    Out += R.Asm;
    Out += "\n";
  }
  Out += "end\n";
  return Out;
}

std::optional<BatchReply> selgen::decodeBatchReply(const std::string &Payload,
                                                   std::string *Error) {
  Cursor C{Payload};
  std::string Line;
  if (!C.nextLine(Line) || Line != ReplyTag) {
    fail(Error, "not a serve batch reply");
    return std::nullopt;
  }
  BatchReply Reply;
  uint64_t Value = 0;
  if (!C.nextLine(Line) || Line.rfind("id ", 0) != 0 ||
      !parseNumber(Line.substr(3), Value)) {
    fail(Error, "bad id line");
    return std::nullopt;
  }
  Reply.Id = Value;
  if (!C.nextLine(Line) || Line.rfind("wall ", 0) != 0 ||
      !parseNumber(Line.substr(5), Reply.WallUs)) {
    fail(Error, "bad wall line");
    return std::nullopt;
  }
  while (C.nextLine(Line)) {
    if (Line == "end") {
      if (C.Pos != Payload.size()) {
        fail(Error, "trailing bytes after end");
        return std::nullopt;
      }
      return Reply;
    }
    if (Line.rfind("result ", 0) != 0) {
      fail(Error, "bad result line: " + Line);
      return std::nullopt;
    }
    BatchReply::Result R;
    uint64_t AsmBytes = 0;
    size_t Space = Line.find(' ', 7);
    if (Space == std::string::npos || Space == 7 ||
        !parseFields(Line.substr(Space + 1), R.TotalOperations,
                     R.CoveredOperations, R.FallbackOperations, R.RulesTried,
                     R.NodesVisited, R.SelectUs, AsmBytes)) {
      fail(Error, "bad result fields");
      return std::nullopt;
    }
    R.Workload = Line.substr(7, Space - 7);
    if (!C.takeRaw(AsmBytes, R.Asm)) {
      fail(Error, "truncated asm block");
      return std::nullopt;
    }
    Reply.Results.push_back(std::move(R));
  }
  fail(Error, "missing end trailer");
  return std::nullopt;
}

const char *selgen::serveErrorCodeName(ServeErrorCode Code) {
  switch (Code) {
  case ServeErrorCode::BadRequest:
    return "bad-request";
  case ServeErrorCode::Unsupported:
    return "unsupported";
  case ServeErrorCode::Timeout:
    return "timeout";
  case ServeErrorCode::Overloaded:
    return "overloaded";
  case ServeErrorCode::ShuttingDown:
    return "shutting-down";
  case ServeErrorCode::Internal:
    return "internal";
  }
  return "internal";
}

std::string selgen::encodeServeError(const ServeError &Error) {
  std::string Out = std::string(ErrorTag) + "\n";
  Out += "code " + std::string(serveErrorCodeName(Error.Code)) + "\n";
  if (Error.RetryAfterMs)
    Out += "retry-after-ms " + std::to_string(Error.RetryAfterMs) + "\n";
  // The message travels as a byte-counted raw block so it can carry
  // anything (decoder errors quote client bytes verbatim).
  Out += "message " + std::to_string(Error.Message.size()) + "\n";
  Out += Error.Message;
  Out += "\nend\n";
  return Out;
}

ServeError selgen::decodeServeError(const std::string &Payload) {
  ServeError Parsed;
  Cursor C{Payload};
  std::string Line;
  if (!C.nextLine(Line) || Line != ErrorTag) {
    // A bare message from a peer predating the typed encoding.
    Parsed.Message = Payload;
    return Parsed;
  }
  if (!C.nextLine(Line) || Line.rfind("code ", 0) != 0) {
    Parsed.Message = Payload;
    return Parsed;
  }
  std::string Name = Line.substr(5);
  for (ServeErrorCode Code :
       {ServeErrorCode::BadRequest, ServeErrorCode::Unsupported,
        ServeErrorCode::Timeout, ServeErrorCode::Overloaded,
        ServeErrorCode::ShuttingDown, ServeErrorCode::Internal})
    if (Name == serveErrorCodeName(Code))
      Parsed.Code = Code;
  while (C.nextLine(Line)) {
    if (Line == "end")
      return Parsed;
    uint64_t Value = 0;
    if (Line.rfind("retry-after-ms ", 0) == 0) {
      parseNumber(Line.substr(15), Parsed.RetryAfterMs);
    } else if (Line.rfind("message ", 0) == 0 &&
               parseNumber(Line.substr(8), Value)) {
      if (!C.takeRaw(Value, Parsed.Message))
        return Parsed; // Truncated block: keep what parsed so far.
    }
  }
  return Parsed;
}

bool selgen::isHealthRequest(const std::string &Payload) {
  std::string Want = std::string(HealthTag) + "\n";
  return Payload.size() >= Want.size() &&
         Payload.compare(0, Want.size(), Want) == 0;
}

std::string selgen::encodeHealthRequest() {
  return std::string(HealthTag) + "\nend\n";
}

std::string selgen::encodeHealthReply(const HealthReply &Reply) {
  std::string Out = std::string(HealthReplyTag) + "\n";
  auto Put = [&Out](const char *Key, uint64_t Value) {
    Out += std::string(Key) + " " + std::to_string(Value) + "\n";
  };
  Put("uptime-ms", Reply.UptimeMs);
  Put("width", Reply.Width);
  Out += "fingerprint " + Reply.ImageFingerprint + "\n";
  Put("image-generation", Reply.ImageGeneration);
  Put("queue-depth", Reply.QueueDepth);
  Put("batches", Reply.Batches);
  Put("shed", Reply.Shed);
  Put("timeouts", Reply.Timeouts);
  Put("reloads", Reply.Reloads);
  Put("reload-failures", Reply.ReloadFailures);
  Out += "end\n";
  return Out;
}

std::optional<HealthReply>
selgen::decodeHealthReply(const std::string &Payload, std::string *Error) {
  Cursor C{Payload};
  std::string Line;
  if (!C.nextLine(Line) || Line != HealthReplyTag) {
    fail(Error, "not a health reply");
    return std::nullopt;
  }
  HealthReply Reply;
  bool Ok = true;
  auto Take = [&](const std::string &L, const char *Key, uint64_t &Out) {
    std::string Prefix = std::string(Key) + " ";
    if (L.rfind(Prefix, 0) != 0)
      return false;
    uint64_t Value = 0;
    if (!parseNumber(L.substr(Prefix.size()), Value))
      Ok = false;
    Out = Value;
    return true;
  };
  while (C.nextLine(Line)) {
    if (Line == "end") {
      if (!Ok || C.Pos != Payload.size()) {
        fail(Error, "bad health field");
        return std::nullopt;
      }
      return Reply;
    }
    uint64_t Width = 0;
    if (Take(Line, "uptime-ms", Reply.UptimeMs) ||
        Take(Line, "image-generation", Reply.ImageGeneration) ||
        Take(Line, "queue-depth", Reply.QueueDepth) ||
        Take(Line, "batches", Reply.Batches) ||
        Take(Line, "shed", Reply.Shed) ||
        Take(Line, "timeouts", Reply.Timeouts) ||
        Take(Line, "reloads", Reply.Reloads) ||
        Take(Line, "reload-failures", Reply.ReloadFailures))
      continue;
    if (Take(Line, "width", Width)) {
      if (Width > 64)
        Ok = false;
      Reply.Width = static_cast<unsigned>(Width);
      continue;
    }
    if (Line.rfind("fingerprint ", 0) == 0) {
      Reply.ImageFingerprint = Line.substr(12);
      continue;
    }
    fail(Error, "unknown health line: " + Line);
    return std::nullopt;
  }
  fail(Error, "missing end trailer");
  return std::nullopt;
}
