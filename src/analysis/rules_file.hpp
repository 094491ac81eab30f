// herd::analysis — the per-file rules.
//
// Seven rules that need one file's token stream and nothing else. They walk
// every token, directive tokens included, so a `#define` body that calls
// `time(` is flagged like any other call:
//
//   determinism       wall-clock / entropy calls in simulation paths
//   ptr-key-iter      range-for over pointer-keyed unordered containers
//   raw-new           raw new/delete in simulation paths
//   resource-registry sim::Resource constructed but never registered
//   bounded-queue     std::deque/std::queue/sim::RingDeque in src/herd with
//                     no named bound
//   shard-route       key-to-process routing that bypasses the ShardMap
//   chain-post        per-WR post_send() loops in src/herd hot paths that
//                     should batch WRs into one chained post_send(span)
#pragma once

#include <string>
#include <vector>

#include "analysis/lexer.hpp"
#include "analysis/violation.hpp"

namespace herd::analysis {

/// Runs the per-file rules over one file's tokens, appending violations
/// unsorted (the engine sorts).
void run_file_rules(const std::string& path, const std::vector<Token>& tokens,
                    std::vector<Violation>& out);

}  // namespace herd::analysis
