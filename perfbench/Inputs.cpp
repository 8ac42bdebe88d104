//===- Inputs.cpp - Seeded benchmark inputs --------------------------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"

#include "x86/Goals.h"

#include <algorithm>

using namespace selgen;
using namespace perfbench;

namespace {

/// Seeded Fisher-Yates shuffle.
template <typename T> void shuffle(std::vector<T> &Items, Rng &Random) {
  for (size_t I = Items.size(); I > 1; --I)
    std::swap(Items[I - 1], Items[Random.nextBelow(I)]);
}

} // namespace

Rng perfbench::streamRng(uint64_t Seed, uint64_t Stream) {
  Rng Mixer(Seed * 0x9E3779B97F4A7C15ull ^
            (Stream + 1) * 0xD1B54A32D192ED03ull);
  return Rng(Mixer.nextUInt64());
}

std::vector<WorkloadProfile> perfbench::seededProfiles(Rng &Random,
                                                       unsigned Copies) {
  std::vector<WorkloadProfile> Profiles;
  for (const WorkloadProfile &Base : cint2000Profiles())
    for (unsigned C = 0; C < Copies; ++C) {
      WorkloadProfile P = Base;
      P.Iterations = 40 + (C * 80 + Random.nextBelow(80)) / Copies;
      P.Name += ".it" + std::to_string(P.Iterations);
      Profiles.push_back(std::move(P));
    }
  shuffle(Profiles, Random);
  return Profiles;
}

std::vector<FunctionInput> perfbench::functionInputs(Rng &Random,
                                                     unsigned Count) {
  std::vector<FunctionInput> Inputs(Count);
  for (FunctionInput &In : Inputs) {
    for (unsigned A = 0; A < 3; ++A)
      In.Args.push_back(Random.nextBitValue(Width));
    for (unsigned B = 0; B < 256; ++B)
      In.Memory.storeByte(B, static_cast<uint8_t>(Random.nextBelow(256)));
  }
  return Inputs;
}

PatternDatabase perfbench::inflateLibrary(const PatternDatabase &Base,
                                          size_t TargetRules) {
  PatternDatabase Inflated;
  for (const Rule &R : Base.rules())
    Inflated.add(R.GoalName, R.Pattern.clone());
  Rng Random(0xBEEF);
  size_t Stuck = 0;
  while (Inflated.size() < TargetRules && Stuck < 10 * TargetRules) {
    for (const Rule &R : Base.rules()) {
      if (Inflated.size() >= TargetRules)
        break;
      Graph Clone = R.Pattern.clone();
      bool Mutated = false;
      for (Node *N : Clone.liveNodes()) {
        if (N->opcode() == Opcode::Const) {
          N->setConstValue(Random.nextBitValue(N->constValue().width()));
          Mutated = true;
        } else if (N->numOperands() == 2 && Random.nextBool()) {
          NodeRef A = N->operand(0), B = N->operand(1);
          if (A.Def->resultSort(A.Index) == B.Def->resultSort(B.Index)) {
            N->setOperand(0, B);
            N->setOperand(1, A);
            Mutated = true;
          }
        }
      }
      if (Mutated && !Inflated.add(R.GoalName, std::move(Clone)))
        ++Stuck;
    }
  }
  return Inflated;
}

const std::vector<SynthGoal> &perfbench::synthGoalPool() {
  // Every goal here completes (no deadline or pattern-budget cut), so
  // its rules are cached and its library does not depend on timing.
  // Left out because they end incomplete: the cmp_j*, cmpi_j* and
  // cmpm_b_j* compare-and-jumps, lea_bid, andn and blsr. Also left out:
  // the goals taking 2.4-3.7 s (add_rm_bd, the cmov*, inc_m_b, dec_m_b,
  // mov_store_bis2, blsmsk), whose draw would swing a run's cold time
  // by a third. Tiers by per-goal wall time at 4 threads: under 0.2 s,
  // 0.2-0.4 s, and 0.4-1.5 s.
  static const std::vector<SynthGoal> Pool = [] {
    std::vector<SynthGoal> Goals;
    for (const char *Name :
         {"mov_ri", "mov_load_b", "mov_store_b", "mov_storei_b", "neg_r",
          "lea_bd", "imul_rr", "not_r", "add_ri", "and_rr", "sar_rc",
          "shl_ri", "imul_ri", "sar_ri", "shr_rc", "shl_rc", "or_rr", "or_ri",
          "xor_ri", "sub_rr", "add_rr", "sub_ri", "lea_bi", "shr_ri",
          "and_ri", "xor_rr"})
      Goals.push_back({Name, false, 0});
    for (const char *Name :
         {"mov_store_bi", "mov_store_bd", "or_rm_b", "and_rm_b",
          "mov_load_bi", "mov_load_bd", "not_m_b", "xor_rm_b", "sub_rm_b",
          "xor_mr_b", "mov_storei_bd", "add_rm_b", "neg_m_b"})
      Goals.push_back({Name, false, 1});
    for (const char *Name : {"add_mr_b", "dec_r", "lea_bis2", "inc_r",
                             "mov_load_bis2"})
      Goals.push_back({Name, false, 2});
    Goals.push_back({"blsi", true, 2});
    return Goals;
  }();
  return Pool;
}

std::vector<SynthGoal>
perfbench::drawGoals(Rng &Random, const std::array<unsigned, 3> &PerTier) {
  std::vector<SynthGoal> Drawn;
  for (unsigned Tier = 0; Tier < PerTier.size(); ++Tier) {
    std::vector<SynthGoal> Stratum;
    for (const SynthGoal &G : synthGoalPool())
      if (G.Tier == Tier)
        Stratum.push_back(G);
    for (size_t I = 0; I < PerTier[Tier] && I < Stratum.size(); ++I) {
      std::swap(Stratum[I], Stratum[I + Random.nextBelow(Stratum.size() - I)]);
      Drawn.push_back(Stratum[I]);
    }
  }
  shuffle(Drawn, Random);
  return Drawn;
}
