#include "net/routing_policy.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"

namespace mgjoin::net {

const char* PolicyKindName(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kDirect:
      return "Direct";
    case PolicyKind::kBandwidth:
      return "Bandwidth";
    case PolicyKind::kHopCount:
      return "HopCount";
    case PolicyKind::kLatency:
      return "Latency";
    case PolicyKind::kAdaptive:
      return "MG-Join";
    case PolicyKind::kCentralized:
      return "MGJ-Baseline";
  }
  return "?";
}

bool ParsePolicyKind(const std::string& text, PolicyKind* out) {
  if (text == "adaptive") {
    *out = PolicyKind::kAdaptive;
  } else if (text == "direct") {
    *out = PolicyKind::kDirect;
  } else if (text == "bandwidth") {
    *out = PolicyKind::kBandwidth;
  } else if (text == "hopcount") {
    *out = PolicyKind::kHopCount;
  } else if (text == "latency") {
    *out = PolicyKind::kLatency;
  } else if (text == "centralized") {
    *out = PolicyKind::kCentralized;
  } else {
    return false;
  }
  return true;
}

sim::SimTime ArmValue(const topo::Route& route, std::uint64_t packet_bytes,
                      int num_packets, const LinkStateTable& state,
                      bool published) {
  const topo::Topology& topo = state.topo();
  // Transmission cost T_R (Eq 3). Packets are stored-and-forwarded at
  // intermediate GPUs (a receiver only re-sends a packet it holds in its
  // routing buffer), so each hop re-transmits the packet: the cost — and
  // the fabric capacity consumed — is the *sum* of the per-hop transfer
  // times, not the bottleneck alone. This is what keeps ARM on direct
  // NVLink routes for small well-connected GPU sets (paper Sec 5.2:
  // "all metrics end up choosing the same route") while still detouring
  // once the direct links congest.
  const std::uint64_t total =
      packet_bytes * static_cast<std::uint64_t>(num_packets);
  sim::SimTime tr = 0;
  for (std::size_t i = 0; i + 1 < route.gpus.size(); ++i) {
    const double bw = topo.ChannelEffectiveBandwidth(
        topo.channel(route.gpus[i], route.gpus[i + 1]), packet_bytes);
    tr += sim::TransferTime(total, bw);
  }

  // Dynamic delay D_R (Eq 4): queuing delay + latency of every physical
  // link constituting the route.
  sim::SimTime dr = 0;
  for (std::size_t i = 0; i + 1 < route.gpus.size(); ++i) {
    const topo::Channel& ch = topo.channel(route.gpus[i], route.gpus[i + 1]);
    // A hop over a down link makes the whole route unusable: its ARM is
    // infinite, mirroring a real scheduler that drops dead links from
    // its route table (fault model, DESIGN.md Sec 10).
    if (!state.ChannelAvailable(ch)) return kUnreachableArm;
    for (const topo::LinkDir& ld : ch.path) {
      dr += published ? state.PublishedQueueDelay(ld)
                      : state.TrueQueueDelay(ld);
      dr += topo.link(ld.link_id).latency();
    }
    dr += static_cast<sim::SimTime>(ch.cpu_hops) * topo::kStagingLatency;
  }
  return tr + dr;
}

namespace {

/// Shared by the two policies that pin the direct channel: with a
/// healthy fabric they return it unconditionally, but when a fault takes
/// it down they detour onto the fewest-hop surviving route
/// (EnumerateRoutes is sorted by hop count, so the first admissible
/// candidate wins). With no surviving route the direct channel is
/// returned anyway and the engine waits for a restore.
class DirectPinnedPolicy : public RoutingPolicy {
 public:
  explicit DirectPinnedPolicy(int max_intermediates)
      : max_intermediates_(max_intermediates) {}

  topo::Route ChooseRoute(int src, int dst, std::uint64_t, int,
                          const LinkStateTable& state) override {
    const topo::Route direct{{src, dst}};
    if (state.RouteAvailable(direct)) return direct;
    for (const topo::Route& r :
         state.topo().EnumerateRoutes(src, dst, max_intermediates_)) {
      if (Allowed(r) && state.RouteAvailable(r)) return r;
    }
    return direct;
  }

 private:
  int max_intermediates_;
};

class DirectPolicy : public DirectPinnedPolicy {
 public:
  using DirectPinnedPolicy::DirectPinnedPolicy;
  PolicyKind kind() const override { return PolicyKind::kDirect; }
};

class BandwidthPolicy : public RoutingPolicy {
 public:
  explicit BandwidthPolicy(int max_intermediates)
      : max_intermediates_(max_intermediates) {}
  PolicyKind kind() const override { return PolicyKind::kBandwidth; }

  topo::Route ChooseRoute(int src, int dst, std::uint64_t packet_bytes, int,
                          const LinkStateTable& state) override {
    const auto& routes =
        state.topo().EnumerateRoutes(src, dst, max_intermediates_);
    // Pass 0 considers only currently-admissible routes; when faults
    // leave none, pass 1 re-runs the static choice ignoring health and
    // the engine waits for a restore on the returned route.
    for (int pass = 0; pass < 2; ++pass) {
      const topo::Route* best = nullptr;
      double best_bw = -1;
      for (const topo::Route& r : routes) {
        if (!Allowed(r)) continue;
        if (pass == 0 && !state.RouteAvailable(r)) continue;
        // "The route with the highest bandwidth" (ties -> fewer hops).
        // Deliberately ignores the capacity consumed by extra hops —
        // that blindness is exactly why the paper measures this policy
        // collapsing on larger GPU counts (Sec 4.2.1).
        const double bw =
            state.topo().RouteBottleneckBandwidth(r, packet_bytes);
        if (bw > best_bw * (1 + 1e-9) ||
            (bw > best_bw * (1 - 1e-9) && best != nullptr &&
             r.hops() < best->hops())) {
          best_bw = bw;
          best = &r;
        }
      }
      if (best != nullptr) return *best;
    }
    MGJ_CHECK(false) << "no allowed route " << src << "->" << dst;
    return topo::Route{{src, dst}};
  }

 private:
  int max_intermediates_;
};

// The direct channel always exists, so the minimum hop count is one;
// among 1-hop options it is the only one. This is what makes the policy
// fall onto slow staged PCIe routes for non-NVLink pairs. Under faults
// it behaves exactly like DirectPolicy: fewest surviving hops.
class HopCountPolicy : public DirectPinnedPolicy {
 public:
  using DirectPinnedPolicy::DirectPinnedPolicy;
  PolicyKind kind() const override { return PolicyKind::kHopCount; }
};

class LatencyPolicy : public RoutingPolicy {
 public:
  explicit LatencyPolicy(int max_intermediates)
      : max_intermediates_(max_intermediates) {}
  PolicyKind kind() const override { return PolicyKind::kLatency; }

  topo::Route ChooseRoute(int src, int dst, std::uint64_t packet_bytes, int,
                          const LinkStateTable& state) override {
    const auto& routes =
        state.topo().EnumerateRoutes(src, dst, max_intermediates_);
    // Two passes, as in BandwidthPolicy: admissible routes first, static
    // fallback when faults leave none.
    for (int pass = 0; pass < 2; ++pass) {
      const topo::Route* best = nullptr;
      sim::SimTime best_lat = std::numeric_limits<sim::SimTime>::max();
      double best_bw = -1;
      for (const topo::Route& r : routes) {
        if (!Allowed(r)) continue;
        if (pass == 0 && !state.RouteAvailable(r)) continue;
        const sim::SimTime lat = state.topo().RouteLatency(r);
        const double bw =
            state.topo().RouteBottleneckBandwidth(r, packet_bytes);
        if (lat < best_lat || (lat == best_lat && bw > best_bw)) {
          best_lat = lat;
          best_bw = bw;
          best = &r;
        }
      }
      if (best != nullptr) return *best;
    }
    MGJ_CHECK(false) << "no allowed route " << src << "->" << dst;
    return topo::Route{{src, dst}};
  }

 private:
  int max_intermediates_;
};

class AdaptivePolicy : public RoutingPolicy {
 public:
  explicit AdaptivePolicy(int max_intermediates)
      : max_intermediates_(max_intermediates) {}
  PolicyKind kind() const override { return PolicyKind::kAdaptive; }

  topo::Route ChooseRoute(int src, int dst, std::uint64_t packet_bytes,
                          int num_packets,
                          const LinkStateTable& state) override {
    const auto& routes =
        state.topo().EnumerateRoutes(src, dst, max_intermediates_);
    const topo::Route* best = nullptr;
    sim::SimTime best_arm = std::numeric_limits<sim::SimTime>::max();
    sim::SimTime direct_arm = std::numeric_limits<sim::SimTime>::max();
    const topo::Route* direct = nullptr;
    for (const topo::Route& r : routes) {
      if (!Allowed(r)) continue;
      const sim::SimTime arm =
          ArmValue(r, packet_bytes, num_packets, state, /*published=*/true);
      if (r.hops() == 1) {
        direct = &r;
        direct_arm = arm;
      }
      if (best == nullptr || arm < best_arm) {
        best_arm = arm;
        best = &r;
      }
    }
    MGJ_CHECK(best != nullptr);
    // Hysteresis: leave the direct route only for a clear gain. Every
    // detour consumes capacity on two-plus links, and the published
    // queue delays are slightly stale, so chasing marginal gains makes
    // senders oscillate and clogs an otherwise balanced fabric. The
    // comparison is written subtraction-side to avoid overflowing when
    // arms are kUnreachableArm; a down direct route never pulls traffic
    // back (its arm is infinite, so the guard fails).
    if (direct != nullptr && best != direct &&
        direct_arm != kUnreachableArm &&
        direct_arm - best_arm <= best_arm / 6) {
      return *direct;
    }
    return *best;
  }

 private:
  int max_intermediates_;
};

class CentralizedPolicy : public RoutingPolicy {
 public:
  explicit CentralizedPolicy(int max_intermediates)
      : max_intermediates_(max_intermediates) {}
  PolicyKind kind() const override { return PolicyKind::kCentralized; }

  topo::Route ChooseRoute(int src, int dst, std::uint64_t packet_bytes,
                          int num_packets,
                          const LinkStateTable& state) override {
    // The central scheduler sees the oracle link state (that is the whole
    // point of synchronizing every GPU per batch), so its data-transfer
    // decisions are slightly better than ARM's stale-view decisions.
    const auto& routes =
        state.topo().EnumerateRoutes(src, dst, max_intermediates_);
    const topo::Route* best = nullptr;
    sim::SimTime best_arm = std::numeric_limits<sim::SimTime>::max();
    for (const topo::Route& r : routes) {
      if (!Allowed(r)) continue;
      const sim::SimTime arm =
          ArmValue(r, packet_bytes, num_packets, state, /*published=*/false);
      if (best == nullptr || arm < best_arm) {
        best_arm = arm;
        best = &r;
      }
    }
    MGJ_CHECK(best != nullptr);
    return *best;
  }

  sim::SimTime ControlOverheadPerBatch(int num_gpus) const override {
    // Global barrier + broadcast of the schedule: every GPU stops, the
    // coordinator gathers queue states and redistributes decisions. Cost
    // grows with participant count (host-flag barrier + decision
    // broadcast); calibrated so the baseline lands ~1.5x behind MG-Join
    // at 8 GPUs (paper Fig 10).
    return (2 * sim::kMicrosecond) +
           (1200 * sim::kNanosecond) * static_cast<sim::SimTime>(num_gpus);
  }
  bool SerializesGlobally() const override { return true; }

 private:
  int max_intermediates_;
};

}  // namespace

std::unique_ptr<RoutingPolicy> MakePolicy(PolicyKind kind,
                                          int max_intermediates) {
  switch (kind) {
    case PolicyKind::kDirect:
      return std::make_unique<DirectPolicy>(max_intermediates);
    case PolicyKind::kBandwidth:
      return std::make_unique<BandwidthPolicy>(max_intermediates);
    case PolicyKind::kHopCount:
      return std::make_unique<HopCountPolicy>(max_intermediates);
    case PolicyKind::kLatency:
      return std::make_unique<LatencyPolicy>(max_intermediates);
    case PolicyKind::kAdaptive:
      return std::make_unique<AdaptivePolicy>(max_intermediates);
    case PolicyKind::kCentralized:
      return std::make_unique<CentralizedPolicy>(max_intermediates);
  }
  return nullptr;
}

}  // namespace mgjoin::net
