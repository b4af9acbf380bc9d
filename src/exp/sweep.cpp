#include "exp/sweep.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/rng.h"

namespace fastflex::exp {
namespace {

// %.17g round-trips every finite double; integers print without exponent.
// Matches the telemetry exporter's convention so artifacts diff cleanly.
std::string NumToJson(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quoted(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

}  // namespace

std::uint64_t CellSeed(std::uint64_t base_seed, std::size_t cell_index) {
  // The golden-gamma multiplier spreads adjacent indices across the 64-bit
  // space before SplitMix64 finishes the mix; +1 keeps cell 0 distinct from
  // the base seed itself.
  const std::uint64_t gamma = 0x9E3779B97F4A7C15ULL;
  SplitMix64 mix(base_seed ^ (gamma * (static_cast<std::uint64_t>(cell_index) + 1)));
  return mix.Next();
}

std::size_t SweepReport::ok_cells() const {
  std::size_t n = 0;
  for (const auto& c : cells) {
    if (c.ok) ++n;
  }
  return n;
}

std::string SweepReport::ToJson() const {
  std::ostringstream os;
  os << "{\n";
  os << "  \"schema\": \"fastflex.sweep.v1\",\n";
  os << "  \"sweep\": " << Quoted(sweep_name) << ",\n";
  os << "  \"base_seed\": " << base_seed << ",\n";
  os << "  \"cells\": [";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult& c = cells[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\"index\": " << c.index << ", \"name\": " << Quoted(c.name)
       << ", \"seed\": " << c.seed << ", \"ok\": " << (c.ok ? "true" : "false");
    if (c.ok) {
      os << ", \"artifact\": " << c.artifact_json;
    } else {
      os << ", \"error\": " << Quoted(c.error);
    }
    os << "}";
  }
  os << "\n  ]\n}\n";
  return os.str();
}

bool SweepReport::WriteJson(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << ToJson();
  return static_cast<bool>(out);
}

const char* DefenseName(scenarios::DefenseKind kind) {
  switch (kind) {
    case scenarios::DefenseKind::kNone: return "none";
    case scenarios::DefenseKind::kBaselineSdn: return "sdn";
    case scenarios::DefenseKind::kFastFlex: return "fastflex";
  }
  return "unknown";
}

std::string Fig3SummaryJson(scenarios::DefenseKind defense,
                            const scenarios::Fig3Result& result) {
  std::ostringstream os;
  os << "{\"defense\": \"" << DefenseName(defense) << "\""
     << ", \"mean_during_attack\": " << NumToJson(result.mean_during_attack)
     << ", \"min_during_attack\": " << NumToJson(result.min_during_attack)
     << ", \"stable_goodput_bps\": " << NumToJson(result.stable_goodput_bps)
     << ", \"first_alarm_us\": " << result.first_alarm
     << ", \"modes_active_us\": " << result.modes_active_at
     << ", \"sdn_reconfigurations\": " << result.sdn_reconfigurations
     << ", \"policy_drops\": " << result.policy_drops
     << ", \"attacker_rolls\": " << result.rolls.size()
     << ", \"int_journeys\": " << result.int_journeys
     << ", \"events_processed\": " << result.events_processed << "}";
  return os.str();
}

SweepSpec BuildFig3Sweep(const std::string& name, std::uint64_t base_seed,
                         const Fig3GridOptions& grid) {
  SweepSpec spec;
  spec.name = name;
  spec.base_seed = base_seed;
  for (scenarios::DefenseKind defense : grid.defenses) {
    for (int r = 0; r < grid.seeds_per_defense; ++r) {
      SweepCell cell;
      cell.name = std::string(DefenseName(defense)) + "/r" + std::to_string(r);
      cell.run = [defense, grid](std::uint64_t seed) {
        scenarios::Fig3Options options;
        options.defense = defense;
        options.seed = seed;
        options.duration = grid.duration;
        options.attack_at = grid.attack_at;
        options.attack_flows = grid.attack_flows;
        options.enable_int = grid.enable_int;
        const scenarios::Fig3Result result = scenarios::RunFig3(options);
        return Fig3SummaryJson(defense, result);
      };
      spec.cells.push_back(std::move(cell));
    }
  }
  return spec;
}

}  // namespace fastflex::exp
