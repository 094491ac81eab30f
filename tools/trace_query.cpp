// Answers "which sampled requests were slowest, and where did their time
// go" from a TRACE_*.json ("herd-trace/2") Chrome trace.
//
// Usage: trace_query [-n N] TRACE_*.json [more...]
//
// Events carrying args.trace group into per-request causal trees: the root
// is the client's "request" span (parent 0); child spans hang off their
// args.parent span id; instants print at their position in the tree. For
// each of the N slowest requests (by root-span duration) the tool prints an
// indented span tree with per-span start offsets and durations:
//
//   trace 0x300000007  42.312 us  (request, client0)
//     +0.000  client_post      0.170 us  [client0]
//     +1.210  drr_wait         3.400 us  [proc1]
//     ...
//
// A request still in flight when the trace was exported has its root marked
// "incomplete": its duration only bounds its latency from below, so it
// ranks after every finished request and prints flagged.
//
// Reads the same files bench binaries write under --bench-out, so a CI
// artifact can carry the "slowest requests" report next to the trace.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace {

using herd::obs::Json;

struct Node {
  std::string name;
  std::string track;
  std::string detail;
  double ts_us = 0;
  double dur_us = 0;
  std::uint64_t span = 0;
  std::uint64_t parent = 0;
  bool instant = false;
  bool incomplete = false;  // in flight at export (args.incomplete)
  std::vector<std::size_t> children;  // indices into Request::nodes
};

struct Request {
  std::uint64_t trace_id = 0;
  std::vector<Node> nodes;
  std::size_t root = SIZE_MAX;  // node with parent 0 (the client request)

  double total_us() const {
    return root == SIZE_MAX ? 0 : nodes[root].dur_us;
  }
  bool finished() const { return root != SIZE_MAX && !nodes[root].incomplete; }
};

double num(const Json* v) { return v == nullptr ? 0 : v->as_double(); }

std::uint64_t parse_trace_id(const std::string& s) {
  // args.trace is "0x<hex>".
  if (s.size() > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X')) {
    return std::strtoull(s.c_str() + 2, nullptr, 16);
  }
  return std::strtoull(s.c_str(), nullptr, 10);
}

/// Collects the per-trace requests of one trace document. Tracks are
/// resolved through the thread_name metadata rows.
std::vector<Request> collect(const Json& doc) {
  std::map<double, std::string> tracks;
  std::map<std::uint64_t, Request> by_trace;

  const Json* events = doc.find("traceEvents");
  if (events == nullptr || !events->is_array()) return {};
  for (const Json& e : events->elements()) {
    if (!e.is_object()) continue;
    const Json* ph = e.find("ph");
    if (ph == nullptr || !ph->is_string()) continue;
    const std::string& phase = ph->as_string();
    if (phase == "M") {
      const Json* name = e.find("name");
      const Json* args = e.find("args");
      if (name != nullptr && name->is_string() &&
          name->as_string() == "thread_name" && args != nullptr) {
        if (const Json* tn = args->find("name"); tn != nullptr) {
          tracks[num(e.find("tid"))] = tn->as_string();
        }
      }
      continue;
    }
    const Json* args = e.find("args");
    if (args == nullptr) continue;
    const Json* trace = args->find("trace");
    if (trace == nullptr || !trace->is_string()) continue;
    std::uint64_t tid = parse_trace_id(trace->as_string());
    if (tid == 0) continue;

    Node n;
    if (const Json* name = e.find("name"); name != nullptr) {
      n.name = name->as_string();
    }
    n.track = tracks[num(e.find("tid"))];
    if (const Json* d = args->find("detail"); d != nullptr && d->is_string()) {
      n.detail = d->as_string();
    }
    n.ts_us = num(e.find("ts"));
    n.dur_us = num(e.find("dur"));
    n.span = static_cast<std::uint64_t>(num(args->find("span")));
    n.parent = static_cast<std::uint64_t>(num(args->find("parent")));
    n.instant = phase == "i";
    n.incomplete = args->find("incomplete") != nullptr;

    Request& r = by_trace[tid];
    r.trace_id = tid;
    r.nodes.push_back(std::move(n));
  }

  std::vector<Request> out;
  out.reserve(by_trace.size());
  for (auto& [tid, r] : by_trace) {
    // Wire up the tree: span id -> node index, children under their parent
    // (or under the root when the parent span is unknown/0).
    std::map<std::uint64_t, std::size_t> by_span;
    for (std::size_t i = 0; i < r.nodes.size(); ++i) {
      if (r.nodes[i].span != 0) by_span[r.nodes[i].span] = i;
      if (r.nodes[i].parent == 0 && !r.nodes[i].instant &&
          r.root == SIZE_MAX) {
        r.root = i;
      }
    }
    for (std::size_t i = 0; i < r.nodes.size(); ++i) {
      if (i == r.root) continue;
      auto it = by_span.find(r.nodes[i].parent);
      std::size_t parent =
          it != by_span.end() && it->second != i ? it->second : r.root;
      if (parent != SIZE_MAX) r.nodes[parent].children.push_back(i);
    }
    // Children in time order (emission order already is, but be explicit).
    for (Node& n : r.nodes) {
      std::sort(n.children.begin(), n.children.end(),
                [&r](std::size_t a, std::size_t b) {
                  return r.nodes[a].ts_us < r.nodes[b].ts_us;
                });
    }
    out.push_back(std::move(r));
  }
  return out;
}

void print_node(const Request& r, std::size_t idx, double origin_us,
                int depth) {
  const Node& n = r.nodes[idx];
  std::printf("  %*s+%.3f  %-18s", depth * 2, "", n.ts_us - origin_us,
              n.name.c_str());
  if (n.instant) {
    std::printf("  (instant)");
  } else {
    std::printf("  %8.3f us", n.dur_us);
  }
  if (!n.track.empty()) std::printf("  [%s]", n.track.c_str());
  if (!n.detail.empty()) std::printf("  %s", n.detail.c_str());
  std::printf("\n");
  for (std::size_t c : n.children) print_node(r, c, origin_us, depth + 1);
}

}  // namespace

int main(int argc, char** argv) {
  int top_n = 5;
  std::vector<const char*> files;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "-n") == 0 && i + 1 < argc) {
      top_n = std::atoi(argv[++i]);
    } else {
      files.push_back(argv[i]);
    }
  }
  if (files.empty() || top_n <= 0) {
    std::fprintf(stderr, "usage: %s [-n N] TRACE_*.json [more...]\n", argv[0]);
    return 64;
  }

  int bad = 0;
  for (const char* path : files) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "%s: cannot open\n", path);
      ++bad;
      continue;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    std::vector<Request> reqs;
    try {
      Json doc = Json::parse(buf.str());
      const Json* schema = doc.find("schema");
      if (schema == nullptr || !schema->is_string() ||
          schema->as_string() != herd::obs::kTraceSchema) {
        std::fprintf(stderr, "%s: not a %s document\n", path,
                     std::string(herd::obs::kTraceSchema).c_str());
        ++bad;
        continue;
      }
      reqs = collect(doc);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", path, e.what());
      ++bad;
      continue;
    }

    // Slowest finished requests first by root-span duration; requests in
    // flight at export, then traces with no recognizable root (producer
    // bug), sort after them but still print, flagged.
    std::stable_sort(reqs.begin(), reqs.end(),
                     [](const Request& a, const Request& b) {
                       if (a.finished() != b.finished()) return a.finished();
                       return a.total_us() > b.total_us();
                     });
    std::printf("%s: %zu traced request(s)\n", path, reqs.size());
    int shown = 0;
    for (const Request& r : reqs) {
      if (shown++ >= top_n) break;
      if (r.root == SIZE_MAX) {
        std::printf("trace 0x%llx  (no root span: %zu orphan event(s))\n",
                    static_cast<unsigned long long>(r.trace_id),
                    r.nodes.size());
        continue;
      }
      const Node& root = r.nodes[r.root];
      std::printf("trace 0x%llx  %.3f us  (%s, %s%s)\n",
                  static_cast<unsigned long long>(r.trace_id), root.dur_us,
                  root.name.c_str(), root.track.c_str(),
                  root.incomplete ? ", incomplete" : "");
      for (std::size_t c : root.children) {
        print_node(r, c, root.ts_us, 0);
      }
    }
  }
  return bad == 0 ? 0 : 1;
}
