//===- Workloads.h - SPEC CINT2000-profile synthetic workloads ---*- C++ -*-===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The evaluation workloads standing in for SPEC CINT2000 (paper
/// Section 7.3, Table 1). SPEC is proprietary; what the experiment
/// needs from it is realistic mixes of integer IR operations per
/// benchmark. Each workload here is a deterministic, loop-carrying IR
/// function generated from a per-benchmark operation-mix profile
/// (bit-twiddling for crafty, pointer-chasing for mcf, compare-heavy
/// parsing for parser/gcc, and so on), including the idioms the
/// paper's full rule library is good at: scaled address arithmetic,
/// read-modify-write updates, flag tests, and conditional moves.
///
//===----------------------------------------------------------------------===//

#ifndef SELGEN_EVAL_WORKLOADS_H
#define SELGEN_EVAL_WORKLOADS_H

#include "ir/Function.h"
#include "ir/Memory.h"

#include <string>
#include <vector>

namespace selgen {

/// Relative operation-mix weights of one synthetic benchmark.
struct WorkloadProfile {
  std::string Name;      ///< CINT2000 component it mimics.
  uint64_t Seed;         ///< Generator seed (fixed per benchmark).
  unsigned Arith = 4;    ///< add/sub weight.
  unsigned Logic = 2;    ///< and/or/xor/not weight.
  unsigned Shift = 1;    ///< shifts by constants / masked amounts.
  unsigned Mul = 1;      ///< multiplications.
  unsigned Load = 2;     ///< loads (scaled-address idiom included).
  unsigned Store = 1;    ///< stores and read-modify-write updates.
  unsigned Select = 1;   ///< compare+mux (setcc/cmov shapes).
  unsigned Idiom = 1;    ///< bit tricks (blsr/blsmsk/andn shapes).
  unsigned BodyOps = 28; ///< Approximate operations per loop body.
  unsigned Iterations = 60; ///< Loop trip count.
};

/// The eleven profiles named after the SPEC CINT2000 components of the
/// paper's Table 1.
const std::vector<WorkloadProfile> &cint2000Profiles();

/// Generates the workload function for one profile. The function is
/// normalized (as a compiler front end would deliver it) and passes
/// verifyFunction; its executions are free of undefined behaviour for
/// any argument values.
Function buildWorkload(const WorkloadProfile &Profile, unsigned Width);

/// One seeded input of a workload run: its three W-bit arguments and
/// its initial memory.
struct WorkloadInput {
  std::vector<BitValue> Args;
  MemoryState Memory;
};

/// The Table 1 experiment's \p Count deterministic inputs for
/// \p Profile, drawn from a generator seeded by the profile's seed.
std::vector<WorkloadInput> makeWorkloadInputs(const WorkloadProfile &Profile,
                                              unsigned Width, unsigned Count);

} // namespace selgen

#endif // SELGEN_EVAL_WORKLOADS_H
