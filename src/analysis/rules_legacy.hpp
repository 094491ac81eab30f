// herd::analysis — the line-oriented rules.
//
// The first six are ported from herd_lint v1 with identical matching logic
// and identical diagnostic strings: the existing fixture corpus must
// produce byte-identical verdicts under the v2 engine. chain-post joined
// with the doorbell-batching redesign and follows the same line-oriented
// contract. These rules consume the lexer's stripped view (comments and
// literal contents blanked), one line at a time:
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
#include <string_view>
#include <vector>

#include "analysis/violation.hpp"

namespace herd::analysis {

/// Runs all line-oriented rules over the stripped view of one file,
/// appending violations in the v1 emission order (line-major, fixed rule
/// order per line; chain-post slots in after shard-route).
void run_legacy_rules(const std::string& path, const std::string& stripped,
                      std::vector<Violation>& out);

/// True iff `word` appears in `line` as a whole identifier (not a substring
/// of a longer identifier; member accesses `.word` / `->word` excluded
/// unless `allow_qualified`). Exposed for tests.
bool has_identifier(std::string_view line, std::string_view word,
                    bool allow_qualified = false);

/// True iff `fn` is called (identifier followed by an open paren, not a
/// member access). Exposed for tests.
bool has_call(std::string_view line, std::string_view fn);

}  // namespace herd::analysis
