// SYN-flood split-proxy booster (SmartCookie / CuckooGuard lineage).
//
// Three PPMs share the work of defending a protected server's accept
// backlog without keeping per-SYN state anywhere:
//
//  - SynRateDetectorPpm (always on): counts raw SYNs toward protected
//    destinations and raises/clears the kSynDefense mode through the mode
//    protocol, with the same hysteresis discipline the volumetric detector
//    uses — against a pulsing flood the clear delay must outlast the off
//    phase.
//
//  - SynProxyPpm (gated on kSynDefense): the edge half of the split proxy.
//    A raw SYN is answered *statelessly* with a SYN-ACK whose ISN is a
//    keyed cookie of the 5-tuple, the client ISN, and a rotating time
//    bucket; the SYN itself is consumed and never reaches the server.
//    Only when the client returns the cookie (proving it owns its source
//    address) does the proxy create state: the connection enters a cuckoo
//    filter of validated flows and the ACK is rewritten in place into a
//    tagged SYN that replays the handshake toward the server.  Non-SYN
//    packets toward a protected destination that miss the filter are
//    policed.  Spoofed SYNs therefore cost the defense zero state and the
//    server nothing at all.
//
//  - SeqTranslatePpm (always on, acts only at a protected host's own edge
//    switch): the server half.  The server answers the replayed handshake
//    with its own ISN, but the client already numbered the connection from
//    the cookie — so this module consumes the server's SYN-ACK, completes
//    the handshake locally, and thereafter shifts every server sequence
//    number by (cookie - server_isn) on the way out and every client ACK
//    back on the way in.  It stays on after the mode clears so established
//    downloads drain correctly through a deactivation.
//
// Pipeline order within the booster is detector, proxy, translate: the
// detector must see raw SYNs before the proxy consumes them, and the
// translate module must run *after* the proxy so that a cookie validated at
// the server's own edge switch (ACK rewritten to a tagged SYN mid-walk)
// still registers its pending cookie before leaving the pipeline.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "boosters/config.h"
#include "dataplane/cuckoo.h"
#include "dataplane/ppm.h"
#include "sim/network.h"
#include "sim/switch_node.h"
#include "util/types.h"

namespace fastflex::boosters {

/// The keyed SYN cookie: a deterministic digest of the connection 5-tuple,
/// the client's ISN, and a coarse time bucket under a shared secret.
/// Nonzero by construction (0 is the "no cookie" sentinel in packet tags).
/// Exposed as a free function so tests can forge, replay, and cross-check
/// cookies independently of the PPM.
std::uint64_t SynCookie(std::uint64_t secret, Address src, Address dst,
                        std::uint16_t src_port, std::uint16_t dst_port,
                        std::uint64_t client_isn, std::uint64_t bucket);

/// Always-on SYN-rate alarm source for the split proxy.
class SynRateDetectorPpm : public dataplane::Ppm {
 public:
  SynRateDetectorPpm(sim::Network* net, sim::SwitchNode* sw,
                     std::vector<Address> protected_dsts, SynProxyConfig config,
                     HardeningConfig hardening, AlarmFn alarm);

  void StartTimers();
  void Process(sim::PacketContext& ctx) override;

  bool alarm_active() const { return alarm_active_; }
  double last_rate() const { return last_rate_; }
  /// Raises deferred by the persistence requirement
  /// (HardeningConfig::persist_checks) — the counter bench_adversarial
  /// reads to show the threshold-straddling pulser was absorbed by
  /// hysteresis rather than never seen.
  std::uint64_t raises_suppressed() const { return raises_suppressed_; }

  void Reset() override {
    window_syns_ = 0;
    alarm_active_ = false;
    below_count_ = 0;
    above_count_ = 0;
  }

 private:
  void Check();

  sim::Network* net_;
  sim::SwitchNode* sw_;
  std::vector<Address> protected_dsts_;
  SynProxyConfig config_;
  HardeningConfig hard_;
  AlarmFn alarm_;

  std::uint64_t window_syns_ = 0;
  double last_rate_ = 0.0;
  bool alarm_active_ = false;
  int below_count_ = 0;
  int above_count_ = 0;
  std::uint64_t raises_suppressed_ = 0;
};

/// The edge half of the split proxy (mode-gated on kSynDefense).
class SynProxyPpm : public dataplane::Ppm {
 public:
  /// `filter_salt` keys the cuckoo filter's hashes (0 = the compiled-in
  /// default seed, tests only); deployments pass a StructSalt so an
  /// attacker cannot pre-compute keys that pile into chosen buckets.
  SynProxyPpm(sim::Network* net, sim::SwitchNode* sw,
              std::vector<Address> protected_dsts, SynProxyConfig config,
              HardeningConfig hardening, std::uint64_t filter_salt = 0);

  void StartTimers();
  void Process(sim::PacketContext& ctx) override;

  /// The cookie this proxy answers `syn` with at time `now`.
  std::uint64_t CookieFor(const sim::Packet& syn, SimTime now) const;

  const dataplane::CuckooFilter& filter() const { return filter_; }
  std::uint64_t cookies_sent() const { return cookies_sent_; }
  std::uint64_t handshakes_validated() const { return handshakes_validated_; }
  std::uint64_t invalid_cookies() const { return invalid_cookies_; }
  std::uint64_t policed_drops() const { return policed_drops_; }
  std::uint64_t idle_evictions() const { return idle_evictions_; }
  /// Valid-cookie ACKs refused by the per-source admission policer (the
  /// self-minted-cookie defense; see HardeningConfig::admit_rate_per_s).
  std::uint64_t admissions_policed() const { return admissions_policed_; }
  /// Validated flows this proxy inserted into its filter, inserts the
  /// filter refused (cuckoo table pressure), and FIN/RST teardowns it
  /// deleted.  Unlike the filter's own counters, these survive a crash
  /// wipe, and deletes exclude idle evictions.
  std::uint64_t filter_inserts() const { return filter_inserts_; }
  std::uint64_t filter_insert_failures() const { return filter_insert_failures_; }
  std::uint64_t filter_deletes() const { return filter_deletes_; }

  std::vector<std::uint64_t> ExportState() const override {
    return filter_.ExportWords();
  }
  void ImportState(const std::vector<std::uint64_t>& w) override {
    filter_.ImportWords(w);
  }
  void Reset() override {
    filter_.Reset();
    last_seen_.clear();
    admit_.clear();
  }

 private:
  /// Per-source token-bucket state for cookie-validated admissions.
  struct AdmitBucket {
    double tokens = 0.0;
    SimTime last = 0;
  };

  bool IsProtected(Address dst) const;
  bool ValidCookie(const sim::Packet& ack, SimTime now) const;
  bool AdmitAllowed(Address src, SimTime now);
  void SweepIdle();

  sim::Network* net_;
  sim::SwitchNode* sw_;
  std::vector<Address> protected_dsts_;
  SynProxyConfig config_;
  HardeningConfig hard_;

  dataplane::CuckooFilter filter_;
  // Last-seen times for tracked flows, keyed by the forward FlowKey.  An
  // ordered map so the idle sweep's eviction order (and therefore the
  // filter's slot history) is identical across same-seed replays.
  std::map<std::uint64_t, SimTime> last_seen_;
  // Admission token buckets per source address; ordered for the same
  // replay-deterministic sweep discipline as last_seen_.
  std::map<Address, AdmitBucket> admit_;

  std::uint64_t cookies_sent_ = 0;
  std::uint64_t handshakes_validated_ = 0;
  std::uint64_t invalid_cookies_ = 0;
  std::uint64_t policed_drops_ = 0;
  std::uint64_t idle_evictions_ = 0;
  std::uint64_t admissions_policed_ = 0;
  std::uint64_t filter_inserts_ = 0;
  std::uint64_t filter_insert_failures_ = 0;
  std::uint64_t filter_deletes_ = 0;
};

/// The server half: sequence translation at the protected host's own edge.
class SeqTranslatePpm : public dataplane::Ppm {
 public:
  SeqTranslatePpm(sim::Network* net, sim::SwitchNode* sw,
                  std::shared_ptr<const std::unordered_map<Address, NodeId>> host_edge,
                  std::vector<Address> protected_dsts, SynProxyConfig config);

  void StartTimers();
  void Process(sim::PacketContext& ctx) override;

  std::size_t pending() const { return pending_.size(); }
  std::size_t established() const { return established_.size(); }
  std::uint64_t translations_established() const { return translations_established_; }
  std::uint64_t seq_translated() const { return seq_translated_; }

  void Reset() override {
    pending_.clear();
    established_.clear();
  }

 private:
  struct Pending {
    std::uint64_t cookie = 0;
    SimTime created = 0;
  };
  struct Established {
    std::uint64_t delta = 0;  // cookie - server_isn, mod 2^64
    SimTime last_seen = 0;
  };

  bool IsProtected(Address a) const;
  bool AtOwnEdge(Address a) const;
  void Sweep();

  sim::Network* net_;
  sim::SwitchNode* sw_;
  std::shared_ptr<const std::unordered_map<Address, NodeId>> host_edge_;
  std::vector<Address> protected_dsts_;
  SynProxyConfig config_;

  // Both tables are keyed by the forward (client -> server) FlowKey and
  // ordered for replay-deterministic sweeps.
  std::map<std::uint64_t, Pending> pending_;
  std::map<std::uint64_t, Established> established_;

  std::uint64_t translations_established_ = 0;
  std::uint64_t seq_translated_ = 0;
};

}  // namespace fastflex::boosters
