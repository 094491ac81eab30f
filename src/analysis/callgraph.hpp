// herd::analysis — cross-TU call graph and determinism-taint propagation.
//
// Merges every TU's function definitions by terminal name and propagates
// "reaches a wall-clock/entropy sink" taint up the caller edges to a
// fixpoint. Name-based linking is deliberately conservative in the
// direction that avoids false positives: a callee name taints its callers
// only when at least one definition of that name is known AND every known
// definition is tainted — one clean overload and the name is presumed
// clean. Unknown names (std::sort, library calls) never taint.
//
// The cross-TU determinism rule asks, for each call site inside a
// simulation-path function: does this call resolve to tainted definitions
// that all live OUTSIDE simulation paths? Those are exactly the leaks the
// per-file determinism rule cannot see — a sim-path helper with a direct
// sink is already flagged where the sink is written.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analysis/index.hpp"

namespace herd::analysis {

class CallGraph {
 public:
  /// Builds the graph over every function in `tus`. The TUs must outlive
  /// the graph.
  explicit CallGraph(const std::vector<TuIndex>& tus);

  struct TaintInfo {
    bool tainted = false;
    /// One witness chain from this function to a sink, deterministic
    /// (lexicographically smallest next hop), e.g. {"jitter", "rand"}.
    std::vector<std::string> chain;
  };

  /// Taint state for a function name; unknown names are untainted.
  const TaintInfo* taint_of(const std::string& name) const;

  /// True when `name` has at least one known definition and every known
  /// definition's file is outside simulation paths (per `sim_path`).
  bool all_defs_non_sim(const std::string& name) const;

  /// All definitions, keyed by terminal name.
  const std::map<std::string, std::vector<const FunctionDef*>>& defs() const {
    return defs_;
  }

 private:
  std::map<std::string, std::vector<const FunctionDef*>> defs_;
  std::map<std::string, TaintInfo> taint_;
  std::map<std::string, bool> non_sim_;
};

/// True for paths under the simulation-deterministic directories (shared
/// with the per-file determinism rule).
bool in_sim_path(const std::string& path);

}  // namespace herd::analysis
