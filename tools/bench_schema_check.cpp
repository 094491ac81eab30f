// Validates bench output files against their declared schema.
//
// Usage: bench_schema_check FILE [FILE...]
//
// Dispatches on the document's top-level "schema" field: "herd-bench/1"
// (BENCH_*.json, checked by obs::validate_bench_json — including each
// point's optional per-request "tail" breakdown), "herd-timeseries/1"
// (TIMESERIES_*.json flight-recorder dumps, checked by
// obs::validate_timeseries_json), and "herd-trace/2" (TRACE_*.json Chrome
// traces, checked by obs::validate_trace_json — which rejects any "B"
// phase event, because an unpaired span_begin exports as a lone "B", and
// any event that carries no sampled trace id). A
// document with any other schema string fails — an unknown schema means a
// producer drifted without updating the gate. This is the CI gate behind
// the bench-smoke job; it uses the same validators as tests/obs_test.cpp
// and tests/flight_test.cpp, so the gate and the unit tests cannot
// disagree about what "valid" means.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "obs/bench_report.hpp"
#include "obs/flight.hpp"
#include "obs/json.hpp"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s BENCH_*.json [more...]\n", argv[0]);
    return 64;
  }
  int bad = 0;
  for (int i = 1; i < argc; ++i) {
    std::ifstream in(argv[i]);
    if (!in) {
      std::fprintf(stderr, "%s: cannot open\n", argv[i]);
      ++bad;
      continue;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    std::vector<std::string> problems;
    try {
      herd::obs::Json doc = herd::obs::Json::parse(buf.str());
      std::string schema;
      if (doc.is_object()) {
        if (const herd::obs::Json* s = doc.find("schema");
            s != nullptr && s->is_string()) {
          schema = s->as_string();
        }
      }
      if (schema == "herd-timeseries/1") {
        problems = herd::obs::validate_timeseries_json(doc);
      } else if (schema == "herd-bench/1") {
        problems = herd::obs::validate_bench_json(doc);
      } else if (schema == "herd-trace/2") {
        problems = herd::obs::validate_trace_json(doc);
      } else {
        problems.push_back(
            "unknown schema \"" + schema +
            "\" (expected herd-bench/1, herd-timeseries/1, or herd-trace/2)");
      }
    } catch (const std::exception& e) {
      problems.push_back(std::string("not parseable as JSON: ") + e.what());
    }
    if (problems.empty()) {
      std::printf("%s: ok\n", argv[i]);
    } else {
      ++bad;
      for (const auto& p : problems) {
        std::fprintf(stderr, "%s: %s\n", argv[i], p.c_str());
      }
    }
  }
  return bad == 0 ? 0 : 1;
}
