#include "analysis/sarif.hpp"

#include <array>
#include <string_view>

namespace herd::analysis {

namespace {

struct RuleMeta {
  std::string_view id;
  std::string_view description;
};

constexpr std::array<RuleMeta, 11> kRules = {{
    {"determinism",
     "Wall-clock or entropy source used directly in a simulation path; "
     "seeded replay diverges."},
    {"ptr-key-iter",
     "Range-for over a pointer-keyed unordered container; iteration order "
     "depends on allocator layout."},
    {"raw-new",
     "Raw new/delete in a simulation path; ownership must go through "
     "std::unique_ptr or a container."},
    {"resource-registry",
     "sim::Resource constructed in a file that never registers with "
     "obs::ResourceRegistry; invisible to the flight recorder."},
    {"bounded-queue",
     "std::deque/std::queue/sim::RingDeque in src/herd with no named "
     "capacity or watermark; unbounded queues turn overload into "
     "congestion collapse."},
    {"shard-route",
     "Key-to-process routing that bypasses the ShardMap; promotions and "
     "migrations move primaries."},
    {"chain-post",
     "Per-WR post_send() inside a loop in src/herd; batch the WRs and post "
     "one chain so the batch costs a single doorbell."},
    {"wire-symmetry",
     "encode_X/decode_X copy different fields, offsets, sizes, or header "
     "block order, or a header constant is missing from the size budget."},
    {"metric-pairing",
     "Counter claimed via the obs registry but never incremented, or a "
     "conventional counter pair registered one-sided."},
    {"determinism-taint",
     "Simulation-path function reaches a wall-clock/entropy sink through a "
     "helper defined outside the simulation tree."},
    {"span-pairing",
     "Tracer span_begin (or RequestProbe begin_request) in src/herd with "
     "a path that never reaches span_end (end_request); the open span "
     "exports as a lone \"B\" event."},
}};

void append_escaped(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* kHex = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(c >> 4) & 0xf];
          out += kHex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

std::string to_sarif(const std::vector<Violation>& reported) {
  std::string out;
  out += "{\n";
  out += "  \"$schema\": "
         "\"https://json.schemastore.org/sarif-2.1.0.json\",\n";
  out += "  \"version\": \"2.1.0\",\n";
  out += "  \"runs\": [\n    {\n";
  out += "      \"tool\": {\n        \"driver\": {\n";
  out += "          \"name\": \"herd_lint\",\n";
  out += "          \"version\": \"2.0.0\",\n";
  out += "          \"informationUri\": "
         "\"https://github.com/efficient/HERD\",\n";
  out += "          \"rules\": [\n";
  for (std::size_t i = 0; i < kRules.size(); ++i) {
    out += "            {\"id\": \"";
    out += kRules[i].id;
    out += "\", \"shortDescription\": {\"text\": \"";
    append_escaped(out, kRules[i].description);
    out += "\"}}";
    out += i + 1 < kRules.size() ? ",\n" : "\n";
  }
  out += "          ]\n        }\n      },\n";
  out += "      \"results\": [\n";
  for (std::size_t i = 0; i < reported.size(); ++i) {
    const Violation& v = reported[i];
    out += "        {\n          \"ruleId\": \"";
    append_escaped(out, v.rule);
    out += "\",\n          \"level\": \"error\",\n";
    out += "          \"message\": {\"text\": \"";
    append_escaped(out, v.detail);
    out += "\"},\n";
    out += "          \"locations\": [{\"physicalLocation\": "
           "{\"artifactLocation\": {\"uri\": \"";
    append_escaped(out, v.file);
    out += "\"}, \"region\": {\"startLine\": ";
    out += std::to_string(v.line == 0 ? 1 : v.line);
    out += "}}}]\n        }";
    out += i + 1 < reported.size() ? ",\n" : "\n";
  }
  out += "      ]\n    }\n  ]\n}\n";
  return out;
}

}  // namespace herd::analysis
