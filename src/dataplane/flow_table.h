// Hash-indexed per-flow state table with switch-realistic collision
// semantics: a fixed array of slots indexed by key hash.  On collision the
// incumbent is replaced only if it has gone stale (idle longer than the
// timeout); otherwise the new flow goes untracked — exactly the compromise
// real data-plane register tables make (no LRU machinery in hardware).
//
// This is the "tables that maintain per-flow/per-destination state"
// component the paper lists as shareable across boosters.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "util/hash.h"
#include "util/types.h"

namespace fastflex::dataplane {

/// Per-flow TCP state a Dapper/Blink-style data-plane monitor can maintain.
struct FlowState {
  std::uint64_t key = 0;
  SimTime first_seen = 0;
  SimTime last_seen = 0;
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  std::uint64_t retransmit_signals = 0;  // repeated-seq observations
  std::uint64_t highest_seq = 0;
  bool occupied = false;
};

class FlowTable {
 public:
  explicit FlowTable(std::size_t slots, SimTime stale_timeout = 2 * kSecond,
                     std::uint64_t seed = 0xf10b7ab1e)
      : slots_(slots == 0 ? 1 : slots), stale_timeout_(stale_timeout), seed_(seed),
        table_(slots_) {}

  /// Finds or creates the entry for `key`; returns nullptr if the slot is
  /// held by a live (non-stale) different flow.
  FlowState* Lookup(std::uint64_t key, SimTime now) {
    const std::size_t idx = Index(key);
    FlowState& slot = table_[idx];
    if (slot.occupied && slot.key == key) return &slot;
    if (slot.occupied && now - slot.last_seen < stale_timeout_) return nullptr;
    if (!slot.occupied) live_.push_back(static_cast<std::uint32_t>(idx));
    slot = FlowState{};
    slot.key = key;
    slot.first_seen = now;
    slot.last_seen = now;
    slot.occupied = true;
    ++installs_;
    return &slot;
  }

  /// Read-only lookup without insertion.
  const FlowState* Peek(std::uint64_t key) const {
    const FlowState& slot = table_[Index(key)];
    return (slot.occupied && slot.key == key) ? &slot : nullptr;
  }

  void Reset() {
    for (std::uint32_t i : live_) table_[i] = FlowState{};
    live_.clear();
  }

  /// Applies `fn` to every occupied entry exactly once, in the order the
  /// slots were first occupied (not slot order).  Only occupied slots are
  /// read, so a sweep costs the live flow count, not the table size.
  void ForEach(const std::function<void(const FlowState&)>& fn) const {
    for (std::uint32_t i : live_) fn(table_[i]);
  }

  std::size_t slot_count() const { return slots_; }
  std::uint64_t installs() const { return installs_; }
  std::size_t MemoryBytes() const { return table_.size() * sizeof(FlowState); }

  /// Slot order: this is the state-transfer wire format.
  std::vector<std::uint64_t> ExportWords() const {
    std::vector<std::uint64_t> words;
    words.reserve(table_.size() * 4);
    for (const auto& s : table_) {
      if (!s.occupied) continue;
      words.push_back(s.key);
      words.push_back(s.packets);
      words.push_back(s.bytes);
      words.push_back(static_cast<std::uint64_t>(s.first_seen));
    }
    return words;
  }

  void ImportWords(const std::vector<std::uint64_t>& words, SimTime now) {
    for (std::size_t i = 0; i + 3 < words.size(); i += 4) {
      const std::size_t idx = Index(words[i]);
      FlowState& slot = table_[idx];
      if (!slot.occupied) live_.push_back(static_cast<std::uint32_t>(idx));
      slot.key = words[i];
      slot.packets = words[i + 1];
      slot.bytes = words[i + 2];
      slot.first_seen = static_cast<SimTime>(words[i + 3]);
      slot.last_seen = now;
      slot.occupied = true;
    }
  }

 private:
  std::size_t Index(std::uint64_t key) const {
    return static_cast<std::size_t>(HashKey(key, seed_) % slots_);
  }

  std::size_t slots_;
  SimTime stale_timeout_;
  std::uint64_t seed_;
  std::uint64_t installs_ = 0;
  std::vector<FlowState> table_;
  std::vector<std::uint32_t> live_;  // indices of occupied slots, first-occupancy order
};

}  // namespace fastflex::dataplane
