#include "telemetry/export.h"

#include <chrono>
#include <cmath>
#include <cstdio>

namespace fastflex::telemetry {

namespace {

// Round-trip double formatting ("%.17g"), identical across replays of the
// same seed.  Non-finite values (which no well-formed metric should carry)
// serialize as null so the artifact stays valid JSON.
std::string NumToJson(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string Quoted(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  out += Escape(s);
  out += '"';
  return out;
}

void AppendFields(std::string& out, const std::vector<TraceField>& fields) {
  out += "{";
  bool first = true;
  for (const auto& f : fields) {
    if (!first) out += ",";
    first = false;
    out += Quoted(f.key) + ":" + std::to_string(f.value);
  }
  out += "}";
}

template <typename Map, typename Fn>
void AppendObject(std::string& out, const char* key, const Map& map, Fn value_of) {
  out += Quoted(key) + ":{";
  bool first = true;
  for (const auto& [name, metric] : map) {
    if (!first) out += ",";
    first = false;
    out += Quoted(name) + ":" + value_of(metric);
  }
  out += "}";
}

}  // namespace

std::string ToJson(const Recorder& rec) { return ToJson(rec, ExportOptions{}); }

std::string ToJson(const Recorder& rec, const ExportOptions& opts) {
  // The exporter measures itself: serialization of everything but the prof
  // section is timed into the profiler (observational only — const_cast is
  // safe because profiling never feeds back into simulation state).
  Profiler* prof = const_cast<Recorder&>(rec).prof().enabled_self();
  const auto export_t0 = std::chrono::steady_clock::now();
  std::string out = "{\"schema\":\"fastflex.telemetry.v1\",";
  {
  // Scope over every section but prof, so the export tree node never times
  // (and the prof section never describes) its own serialization.
  ProfScope export_scope(prof, ProfSite::kExport);

  const MetricsRegistry& reg = rec.metrics();

  AppendObject(out, "counters", reg.counters(),
               [](const Counter& c) { return std::to_string(c.value()); });
  out += ",";
  AppendObject(out, "gauges", reg.gauges(),
               [](const Gauge& g) { return NumToJson(g.value()); });
  out += ",";
  AppendObject(out, "summaries", reg.summaries(), [](const Summary& s) {
    return "{\"count\":" + std::to_string(s.count()) + ",\"mean\":" + NumToJson(s.mean()) +
           ",\"stddev\":" + NumToJson(s.stddev()) + ",\"min\":" + NumToJson(s.min()) +
           ",\"max\":" + NumToJson(s.max()) + ",\"sum\":" + NumToJson(s.sum()) + "}";
  });
  out += ",";
  AppendObject(out, "series", reg.series(), [](const TimeSeries& ts) {
    std::string s = "{\"bin_width_s\":" + NumToJson(ToSeconds(ts.bin_width())) +
                    ",\"bins\":[";
    for (std::size_t i = 0; i < ts.NumBins(); ++i) {
      if (i > 0) s += ",";
      s += NumToJson(ts.BinTotal(i));
    }
    return s + "]}";
  });

  // In-band telemetry journeys: present only when a sink ingested data, so
  // runs without INT keep their pre-INT artifact bytes.
  if (rec.int_collector().HasData()) {
    out += ",\"int\":" + rec.int_collector().ToJsonSection();
  }

  out += ",\"events\":[";
  bool first = true;
  for (const auto& e : rec.trace().events()) {
    if (!first) out += ",";
    first = false;
    out += "{\"t\":" + std::to_string(e.t) + ",\"name\":" + Quoted(e.name) + ",\"fields\":";
    AppendFields(out, e.fields);
    out += "}";
  }
  out += "],\"spans\":[";
  first = true;
  for (const auto& s : rec.trace().spans()) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":" + Quoted(s.name) + ",\"begin\":" + std::to_string(s.begin) +
           ",\"end\":" + std::to_string(s.end) +
           ",\"duration\":" + std::to_string(s.duration()) + ",\"fields\":";
    AppendFields(out, s.fields);
    out += "}";
  }
  out += "]";
  }  // close the export ProfScope before serializing prof itself

  // The out-of-tree total, likewise closed before the prof section.
  if (prof != nullptr) {
    prof->RecordExportNs(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - export_t0)
            .count()));
  }

  // Prof section last, and only on request: it is the single part of the
  // artifact that is not a pure function of the seed.
  if (opts.include_prof && rec.prof().enabled()) {
    out += ",\"prof\":";
    out += rec.prof().ToJsonSection(/*include_wall=*/true);
  }

  out += "}";
  return out;
}

}  // namespace fastflex::telemetry
