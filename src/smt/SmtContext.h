//===- SmtContext.h - Z3 context wrapper --------------------------*- C++ -*-===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thin RAII layer over the Z3 C++ API. Following the paper
/// (Section 2.3), everything is modeled in the quantifier-free
/// bit-vector theory QF_BV: booleans appear only at the formula level,
/// and all values — including the location variables and the M-values —
/// are bit-vectors.
///
//===----------------------------------------------------------------------===//

#ifndef SELGEN_SMT_SMTCONTEXT_H
#define SELGEN_SMT_SMTCONTEXT_H

#include "ir/Sort.h"
#include "support/BitValue.h"

#include <z3++.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace selgen {

/// Owns a z3::context and provides conversions between the project's
/// value types and Z3 terms.
///
/// A context is heavyweight: Z3 4.8.12 allocates two 8.1 MiB blocks in
/// Z3_mk_context_rc, so each live one costs ~16.4 MB RSS and 1.3-2.6 ms
/// to build. The class keeps a process-wide census of the contexts
/// created and of the most ever live at once, so callers can check how
/// many they hold.
class SmtContext {
public:
  SmtContext();
  ~SmtContext();
  SmtContext(const SmtContext &) = delete;
  SmtContext &operator=(const SmtContext &) = delete;

  /// Contexts constructed in this process so far.
  static uint64_t contextsCreated();
  /// High-water mark of simultaneously live contexts.
  static uint64_t peakLiveContexts();
  /// Restarts the high-water mark at the number of contexts live now.
  static void resetPeakLiveContexts();

  z3::context &ctx() { return Ctx; }

  /// Creates a bit-vector literal from a BitValue of any width.
  z3::expr literal(const BitValue &Value);

  /// Creates a fresh bit-vector constant.
  z3::expr bvConst(const std::string &Name, unsigned Width) {
    return Ctx.bv_const(Name.c_str(), Width);
  }

  /// Creates a fresh boolean constant.
  z3::expr boolConst(const std::string &Name) {
    return Ctx.bool_const(Name.c_str());
  }

  z3::expr boolVal(bool Value) { return Ctx.bool_val(Value); }

  /// Extracts the value of bit-vector expression \p Expr under
  /// \p Model, with model completion (unconstrained bits become 0).
  BitValue evalBits(const z3::model &Model, const z3::expr &Expr);

  /// Extracts a boolean under \p Model with model completion.
  bool evalBool(const z3::model &Model, const z3::expr &Expr);

  /// Conjunction of a vector (true for the empty vector).
  z3::expr mkAnd(const std::vector<z3::expr> &Conjuncts);

  /// Disjunction of a vector (false for the empty vector).
  z3::expr mkOr(const std::vector<z3::expr> &Disjuncts);

private:
  z3::context Ctx;
};

/// Outcome of a solver query.
enum class SmtResult { Sat, Unsat, Unknown };

/// Why the last check() failed to produce a definite answer.
enum class SmtFailure {
  None,      ///< The last check was conclusive (or none was run).
  Timeout,   ///< Wall-clock timeout expired on every attempt.
  Rlimit,    ///< The deterministic Z3 resource budget was exhausted.
  Exception, ///< z3::exception / allocation failure was contained.
  Deadline,  ///< The per-goal deadline passed; query was interrupted.
};

/// Stable lowercase name of \p Failure ("timeout", "rlimit", ...).
const char *smtFailureName(SmtFailure Failure);

/// Supervision policy for solver queries: per-attempt budgets, an
/// escalating retry ladder, and a hard deadline. Wall-clock timeouts
/// keep runs from hanging but are machine-dependent; the Z3 rlimit is
/// a deterministic proof-effort budget, so rlimit-bounded outcomes
/// replay identically across machines and reruns (the property the
/// fault-injection byte-identity tests lean on).
struct SolverPolicy {
  /// Base wall-clock timeout per attempt in ms; 0 disables.
  unsigned TimeoutMs = 0;
  /// Base Z3 rlimit per attempt; 0 disables.
  uint64_t RlimitPerQuery = 0;
  /// Budget multipliers, one attempt each: {1, 4, 16} retries an
  /// inconclusive query twice with 4x and then 16x budgets.
  std::vector<unsigned> RetryScale = {1};
  /// Hard deadline this many seconds from the moment the policy is
  /// applied; 0 disables. An in-flight query is cancelled at the
  /// deadline via Z3_interrupt, so one stuck query cannot pin a worker
  /// past its goal budget.
  double DeadlineSeconds = 0;
};

/// A solver bound to a context, with query statistics, budget
/// supervision, and containment of solver-side failures. Statistics
/// land in the global Statistics registry under "smt.checks",
/// "smt.sat", "smt.unsat", "smt.unknown", plus "smt.retries",
/// "smt.rlimit_exhausted", "smt.exceptions", and
/// "smt.deadline_expired" from the supervision layer.
///
/// check() never throws: z3::exception and allocation failures are
/// contained and surface as SmtResult::Unknown with
/// lastFailure() == SmtFailure::Exception, so one bad query marks a
/// goal incomplete instead of taking down the worker.
class SmtSolver {
public:
  /// \p Logic defaults to QF_BV (the paper's setting, Section 2.3:
  /// constraining Z3 to one theory "reduced the solving time by a
  /// factor of two"); pass e.g. "QF_ABV" for array-theory experiments.
  explicit SmtSolver(SmtContext &Context, const char *Logic = "QF_BV");

  void add(const z3::expr &Assertion) { Solver.add(Assertion); }
  void push() { Solver.push(); }
  void pop() { Solver.pop(); }
  void reset() { Solver.reset(); }

  /// Sets the per-check timeout. Zero disables the timeout.
  void setTimeoutMilliseconds(unsigned Milliseconds);

  /// Sets the deterministic per-attempt Z3 resource budget; zero
  /// disables it.
  void setRlimit(uint64_t Budget);

  /// Sets the escalation ladder: one check attempt per entry, with
  /// timeout and rlimit scaled by it. An empty vector means {1}.
  void setRetryScale(std::vector<unsigned> Scale);

  /// Arms the hard deadline: once it passes, in-flight checks are
  /// interrupted and further checks return Unknown immediately.
  void setDeadline(std::chrono::steady_clock::time_point Deadline);
  void clearDeadline();

  /// Applies all of the above in one call.
  void applyPolicy(const SolverPolicy &Policy);

  SmtResult check();
  /// Like check(), with extra assumptions for this query only.
  SmtResult checkAssuming(const std::vector<z3::expr> &Assumptions);

  /// Why the last check() returned Unknown (None after a conclusive
  /// check).
  SmtFailure lastFailure() const { return LastFailure; }

  z3::model model() { return Solver.get_model(); }

private:
  SmtResult supervisedCheck(const std::vector<z3::expr> *Assumptions);
  z3::check_result attemptCheck(const std::vector<z3::expr> *Assumptions,
                                unsigned Scale, SmtFailure &AttemptFailure);

  SmtContext &Context;
  z3::solver Solver;
  unsigned TimeoutMs = 0;
  uint64_t Rlimit = 0;
  std::vector<unsigned> RetryScale = {1};
  bool HasDeadline = false;
  std::chrono::steady_clock::time_point Deadline{};
  SmtFailure LastFailure = SmtFailure::None;
};

} // namespace selgen

#endif // SELGEN_SMT_SMTCONTEXT_H
