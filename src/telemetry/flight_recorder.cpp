#include "telemetry/flight_recorder.h"

#include <fstream>

namespace fastflex::telemetry {

const char* FlightKindName(FlightKind kind) {
  switch (kind) {
    case FlightKind::kModeFlip: return "mode_flip";
    case FlightKind::kAlarm: return "alarm";
    case FlightKind::kFaultInject: return "fault_inject";
    case FlightKind::kFaultRepair: return "fault_repair";
    case FlightKind::kSwitchCrash: return "switch_crash";
    case FlightKind::kSwitchReboot: return "switch_reboot";
    case FlightKind::kLinkDrop: return "link_drop";
    case FlightKind::kQueueSpike: return "queue_spike";
    case FlightKind::kGateBreach: return "gate_breach";
    case FlightKind::kAuthReject: return "auth_reject";
    case FlightKind::kDump: return "dump";
  }
  return "unknown";
}

std::vector<FlightRecord> FlightRecorder::Snapshot() const {
  std::vector<FlightRecord> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_) {
    out = ring_;
  } else {
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      out.push_back(ring_[(next_ + i) % capacity_]);
    }
  }
  return out;
}

std::uint64_t FlightRecorder::CountOf(FlightKind kind) const {
  std::uint64_t n = 0;
  for (const auto& r : ring_) {
    if (r.kind == kind) ++n;
  }
  return n;
}

namespace {

void AppendRecord(std::string& out, const FlightRecord& r) {
  out += "{\"t\":" + std::to_string(r.t) + ",\"kind\":\"" + FlightKindName(r.kind) + "\"";
  if (r.a >= 0) out += ",\"a\":" + std::to_string(r.a);
  if (r.b >= 0) out += ",\"b\":" + std::to_string(r.b);
  if (r.c >= 0) out += ",\"c\":" + std::to_string(r.c);
  out += "}";
}

std::string EscapeReason(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

std::string FlightRecorder::RequestDump(const std::string& reason, SimTime t) {
  std::string out = "{\"schema\":\"fastflex.flight.v1\"";
  out += ",\"reason\":\"" + EscapeReason(reason) + "\"";
  out += ",\"t\":" + std::to_string(t);
  out += ",\"dump\":" + std::to_string(dumps_);
  out += ",\"total\":" + std::to_string(total_);
  out += ",\"overwritten\":" + std::to_string(overwritten_);
  out += ",\"records\":[";
  bool first = true;
  for (const auto& r : Snapshot()) {
    if (!first) out += ",";
    first = false;
    AppendRecord(out, r);
  }
  out += "]}";

  last_dump_ = out;
  if (!dump_path_.empty()) {
    std::ofstream ofs(dump_path_, std::ios::binary | std::ios::app);
    if (ofs) ofs << out << "\n";
  }
  Record(t, FlightKind::kDump, static_cast<std::int64_t>(dumps_));
  ++dumps_;
  return out;
}

std::string FlightRecorder::ToJsonSection() const {
  std::string out = "{";
  out += "\"capacity\":" + std::to_string(capacity_);
  out += ",\"total\":" + std::to_string(total_);
  out += ",\"overwritten\":" + std::to_string(overwritten_);
  out += ",\"dumps\":" + std::to_string(dumps_);

  out += ",\"counts\":{";
  bool first = true;
  for (std::uint8_t k = 0; k <= static_cast<std::uint8_t>(FlightKind::kDump); ++k) {
    const auto kind = static_cast<FlightKind>(k);
    const std::uint64_t n = CountOf(kind);
    if (n == 0) continue;
    if (!first) out += ",";
    first = false;
    out += std::string("\"") + FlightKindName(kind) + "\":" + std::to_string(n);
  }
  out += "}";

  out += ",\"ring\":[";
  first = true;
  for (const auto& r : Snapshot()) {
    if (!first) out += ",";
    first = false;
    AppendRecord(out, r);
  }
  out += "]}";
  return out;
}

}  // namespace fastflex::telemetry
