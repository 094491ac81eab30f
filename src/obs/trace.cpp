#include "obs/trace.hpp"

#include <algorithm>
#include <map>

namespace herd::obs {

namespace {

// Ticks are picoseconds; trace_event ts/dur are microseconds. Format from
// integer math (not doubles) so exports are byte-identical across runs.
void append_us(std::string& out, sim::Tick t) {
  out += std::to_string(t / 1000000);
  std::uint64_t frac = t % 1000000;
  if (frac == 0) return;
  char buf[8];
  buf[0] = '.';
  for (int i = 6; i >= 1; --i) {
    buf[i] = static_cast<char>('0' + frac % 10);
    frac /= 10;
  }
  int len = 7;
  while (len > 1 && buf[len - 1] == '0') --len;
  out.append(buf, static_cast<std::size_t>(len));
}

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
}

void append_hex(std::string& out, std::uint64_t v) {
  char buf[18];
  int i = 18;
  do {
    buf[--i] = "0123456789abcdef"[v & 0xf];
    v >>= 4;
  } while (v != 0);
  out.append(buf + i, static_cast<std::size_t>(18 - i));
}

}  // namespace

std::string Tracer::chrome_json(std::span<const SpanId> cut,
                                sim::Tick cut_at) const {
  // tid per track, numbered in first-appearance order (stable across
  // replays): each new track gets the map's size before its insertion.
  std::map<std::string, int> tids;
  std::vector<const std::string*> track_order;
  for (const Event& e : events_) {
    if (tids.emplace(e.track, static_cast<int>(tids.size()) + 1).second) {
      track_order.push_back(&e.track);
    }
  }

  std::string out;
  out += "{\"schema\":\"";
  out += kTraceSchema;
  out += "\",\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
         "\"args\":{\"name\":\"herd-sim\"}}";
  for (const std::string* t : track_order) {
    out += ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":";
    out += std::to_string(tids[*t]);
    out += ",\"args\":{\"name\":";
    append_escaped(out, *t);
    out += "}}";
  }
  for (const Event& e : events_) {
    bool incomplete =
        e.open && std::find(cut.begin(), cut.end(), e.span_id) != cut.end();
    bool open = e.open && !incomplete;
    sim::Tick end = incomplete ? cut_at : e.end;
    out += ",\n{\"name\":";
    append_escaped(out, e.name);
    out += ",\"ph\":\"";
    // A span_begin never span_end'ed (and not cut) exports as a lone "B":
    // visible in viewers, rejected by bench_schema_check.
    out += e.instant ? 'i' : (open ? 'B' : 'X');
    out += "\",\"pid\":0,\"tid\":";
    out += std::to_string(tids[e.track]);
    out += ",\"ts\":";
    append_us(out, e.start);
    if (e.instant) {
      out += ",\"s\":\"t\"";
    } else if (!open) {
      out += ",\"dur\":";
      append_us(out, end > e.start ? end - e.start : 0);
    }
    bool traced = e.trace_id != 0 || e.span_id != 0;
    if (!e.args.empty() || traced) {
      out += ",\"args\":{";
      bool first = true;
      if (!e.args.empty()) {
        out += "\"detail\":";
        append_escaped(out, e.args);
        first = false;
      }
      if (incomplete) {
        if (!first) out += ',';
        out += "\"incomplete\":true";
        first = false;
      }
      if (traced) {
        if (!first) out += ',';
        out += "\"trace\":\"0x";
        append_hex(out, e.trace_id);
        out += "\",\"span\":";
        out += std::to_string(e.span_id);
        out += ",\"parent\":";
        out += std::to_string(e.parent);
      }
      out += '}';
    }
    out += '}';
  }
  out += "\n]}\n";
  return out;
}

}  // namespace herd::obs
