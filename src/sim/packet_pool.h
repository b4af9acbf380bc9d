// PacketPool: a freelist-recycling arena for in-flight packets.
//
// Every packet traversing a link used to be carried inside a scheduled
// std::function closure — one heap allocation per hop, freed on delivery.
// The pool replaces that with slab-allocated Packet slots: SendOnLink parks
// the in-flight packet in a slot and the delivery event carries only the
// 32-bit slot handle (small enough that the event callback needs no heap
// either).  Slots are recycled through a freelist, so a steady-state run
// performs zero per-hop allocations regardless of how many packets are in
// flight.
//
// Thread model: one pool per Network per experiment cell, so pools are
// single-threaded by construction; the parallel experiment runner
// (fastflex::exp) gets its per-worker isolation from that ownership chain
// (DESIGN.md §7).
//
// Recycled slots are reset field-by-field before reuse: stale tags, probe
// payloads, and INT hop stacks must never leak into the next packet (the
// exp test suite pins this).
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "sim/packet.h"

namespace fastflex::sim {

class PacketPool {
 public:
  using Handle = std::uint32_t;
  static constexpr Handle kNullHandle = 0xffffffffu;

  PacketPool() = default;
  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  /// Takes a slot from the freelist (or grows the slab) and returns its
  /// handle.  The slot's packet is in the default-constructed state.
  Handle Acquire();

  /// Returns a slot to the freelist after scrubbing the packet it holds.
  void Release(Handle h);

  Packet* Get(Handle h) { return &slab_[h]; }
  const Packet* Get(Handle h) const { return &slab_[h]; }

  /// Scrubs a packet back to its default-constructed state while keeping
  /// any heap capacity it owns (spilled tag storage is dropped — it only
  /// exists on pathological packets).  Exposed for tests.
  static void ResetForReuse(Packet& p);

  // ---- Stats (deterministic for a deterministic run) ----
  std::uint64_t acquires() const { return acquires_; }
  /// Acquires served by recycling a previously released slot.
  std::uint64_t recycled() const { return recycled_; }
  /// Slab slots ever allocated == high-water mark of concurrent in-flight
  /// packets.
  std::size_t slots() const { return slab_.size(); }
  std::size_t in_flight() const { return slab_.size() - free_.size(); }

 private:
  std::deque<Packet> slab_;    // stable addresses; grows, never shrinks
  std::vector<Handle> free_;   // LIFO freelist: hottest slot reused first
  std::uint64_t acquires_ = 0;
  std::uint64_t recycled_ = 0;
};

}  // namespace fastflex::sim
