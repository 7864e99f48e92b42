#include "net/link_state.h"

#include <algorithm>
#include <string>

#include "common/logging.h"
#include "obs/telemetry.h"

namespace mgjoin::net {

std::string ArbitrationKindName(ArbitrationKind kind) {
  switch (kind) {
    case ArbitrationKind::kFifo:
      return "fifo";
    case ArbitrationKind::kFairShare:
      return "fair";
    case ArbitrationKind::kPriority:
      return "priority";
  }
  return "fifo";
}

bool ParseArbitration(const std::string& text, ArbitrationKind* out) {
  if (text == "fifo") {
    *out = ArbitrationKind::kFifo;
  } else if (text == "fair") {
    *out = ArbitrationKind::kFairShare;
  } else if (text == "priority") {
    *out = ArbitrationKind::kPriority;
  } else {
    return false;
  }
  return true;
}

LinkStateTable::LinkStateTable(sim::Simulator* sim,
                               const topo::Topology* topo,
                               obs::ObsHooks hooks)
    : sim_(sim), topo_(topo), hooks_(hooks) {
  const std::size_t dirs = static_cast<std::size_t>(topo->num_links()) * 2;
  next_free_.assign(dirs, 0);
  published_delay_.assign(dirs, 0);
  publish_pending_.assign(dirs, 0);
  busy_.assign(dirs, 0);
  bytes_.assign(dirs, 0);
  fair_active_.assign(dirs, 0);
  prio_active_.assign(dirs * kPriorityClasses, 0);
  dir_tracks_.assign(dirs, -1);
  avail_.Reset(topo->num_links());
  if (hooks_.telemetry != nullptr) {
    // Per-link-direction occupancy at the tick time `t` (ticks run
    // between events, and busy_ counts wire time booked past `t`): legs
    // on one direction never overlap and a leg starting after `t`
    // follows the previous one back-to-back, so the time booked past `t`
    // is exactly the queue delay at `t` (DESIGN.md Sec 14). Iteration
    // order (link id, then fwd/rev) keeps the export deterministic.
    for (int link_id = 0; link_id < topo->num_links(); ++link_id) {
      for (int dir = 0; dir < 2; ++dir) {
        const topo::LinkDir ld{link_id, dir};
        hooks_.telemetry->AddProbe(
            DirName(ld) + ".queue_ps", [this, ld](sim::SimTime t) {
              return static_cast<std::uint64_t>(QueueDelayAt(ld, t));
            });
        hooks_.telemetry->AddProbe(
            DirName(ld) + ".busy_ps", [this, ld](sim::SimTime t) {
              return static_cast<std::uint64_t>(BusyTime(ld) -
                                                QueueDelayAt(ld, t));
            });
      }
    }
  }
}

std::string LinkStateTable::DirName(topo::LinkDir ld) const {
  return "link." + topo_->link(ld.link_id).ToString() +
         (ld.dir == 0 ? ".fwd" : ".rev");
}

void LinkStateTable::RecordLeg(topo::LinkDir ld, sim::SimTime start,
                               sim::SimTime end, std::uint64_t bytes,
                               sim::SimTime queued) {
  const std::uint64_t queue_ns = queued / 1000;
  if (hooks_.trace != nullptr) {
    int& track = dir_tracks_[Index(ld)];
    if (track < 0) {
      track = hooks_.trace->Track(DirName(ld));
      // One-time link facts for after-the-fact analysis: the report
      // pipeline reads peak bandwidth and the link id (for fault
      // correlation) from this instant instead of needing the topology.
      hooks_.trace->Instant(
          track, "link", "info", 0,
          {{"peak_bps",
            static_cast<std::uint64_t>(topo_->link(ld.link_id).bandwidth())},
           {"link_id", static_cast<std::uint64_t>(ld.link_id)}});
    }
    hooks_.trace->Span(track, "link", "xfer", start, end,
                       {{"bytes", bytes}, {"queue_ns", queue_ns}});
  }
  if (hooks_.metrics != nullptr) {
    // Resolved once: the by-name path costs more than the record.
    if (!link_queue_hist_) {
      link_queue_hist_ = obs::MetricsRegistry::ResolveHistogram(
          hooks_.metrics, "net.link_queue_ns");
    }
    link_queue_hist_.Observe(queue_ns);
  }
}

sim::SimTime LinkStateTable::Now() const { return sim_->Now(); }

void LinkStateTable::RegisterQuery(std::uint64_t query_id, int priority) {
  const int clamped = std::clamp(priority, 0, kPriorityClasses - 1);
  auto [it, fresh] = query_arb_.try_emplace(query_id);
  it->second.priority = clamped;
  if (!fresh) return;
  if (free_arb_slots_.empty()) {
    it->second.slot = static_cast<int>(fair_next_.size());
    fair_next_.emplace_back(next_free_.size(), 0);
    fair_touched_.emplace_back(next_free_.size(), 0);
  } else {
    it->second.slot = free_arb_slots_.back();
    free_arb_slots_.pop_back();
    // Recycled slot: a fresh tenant starts with no virtual-time debt
    // and counts toward no direction until it actually reserves one.
    std::fill(fair_next_[it->second.slot].begin(),
              fair_next_[it->second.slot].end(), sim::SimTime{0});
    std::fill(fair_touched_[it->second.slot].begin(),
              fair_touched_[it->second.slot].end(), std::uint64_t{0});
  }
}

void LinkStateTable::UnregisterQuery(std::uint64_t query_id) {
  auto it = query_arb_.find(query_id);
  if (it == query_arb_.end()) return;
  // Deduct the tenant from every direction it touched: survivors must
  // not keep paying a departed competitor's share, and a lower class
  // must not stay throttled by a finished higher one.
  const std::vector<std::uint64_t>& touched =
      fair_touched_[it->second.slot];
  for (std::size_t di = 0; di < touched.size(); ++di) {
    if (touched[di] == 0) continue;
    if (fair_active_[di] > 0) --fair_active_[di];
    int& by_class =
        prio_active_[di * kPriorityClasses + it->second.priority];
    if (by_class > 0) --by_class;
  }
  free_arb_slots_.push_back(it->second.slot);
  query_arb_.erase(it);
}

LinkStateTable::Reservation LinkStateTable::ReserveChannel(
    const topo::Channel& ch, std::uint64_t bytes, std::uint64_t query_id) {
  const sim::SimTime now = sim_->Now();
  // Admission control lives in the transfer engine; by the time a
  // channel is reserved every link must be up. (A link dying *after*
  // this point is fine — the leg is already on the wire and completes.)
  MGJ_CHECK(ChannelAvailable(ch))
      << "reserving channel " << ch.src_gpu << "->" << ch.dst_gpu
      << " with a down link\n"
      << HealthReport();

  // Staged transfers are tiled and pipelined by the driver (Sec 2.2):
  // each physical link of the channel streams the packet independently
  // out of host staging buffers, so a backlog on one leg (e.g. QPI)
  // neither holds the other legs hostage nor leaves them idle. The
  // source engine is released when the first leg has drained the source
  // memory; the packet is delivered when the slowest leg finishes.
  // FIFO needs no lookup; under the tenant policies an unregistered id
  // (or kNoQuery) degrades to FIFO ordering for that reservation.
  const QueryArb* qa = nullptr;
  if (arbitration_ != ArbitrationKind::kFifo && query_id != kNoQuery) {
    const auto it = query_arb_.find(query_id);
    if (it != query_arb_.end()) qa = &it->second;
  }

  sim::SimTime first_leg_end = 0;
  sim::SimTime last_end = 0;
  sim::SimTime start = now;
  for (std::size_t i = 0; i < ch.path.size(); ++i) {
    const topo::LinkDir& ld = ch.path[i];
    double bw = links_eff_bw_(ld, bytes);
    if (ch.staged) bw *= topo::kStagingEfficiency;
    const sim::SimTime d = sim::TransferTime(bytes, bw);
    const std::size_t di = Index(ld);
    const sim::SimTime leg_start = std::max(now, next_free_[di]);
    if (qa != nullptr && i == 0) {
      // Tenant arbitration paces the *source*, not the wire: wire
      // occupancy stays strictly FIFO (work-conserving — no leg is
      // ever delayed into a gap nobody else can fill). Each packet
      // advances the tenant's per-direction virtual clock by a
      // policy-defined charge; the transfer engine consults
      // QueryReleaseTime before forming the next batch of that query,
      // which closes the feedback loop and keeps the clock from
      // running away. Debt persists across wire gaps — an interleaved
      // all-to-all leaves 1-tick gaps between batches on every
      // direction, and voiding debt on drain would erase every charge
      // before it bites. Work conservation is the gate's job instead:
      // QueryReleaseTime never paces past the wire horizon, so clocks
      // that outrun real time only defer a tenant while competitors
      // are actually using the slot.
      std::uint64_t& seen = fair_touched_[qa->slot][di];
      if (seen == 0) {
        seen = 1;
        ++fair_active_[di];
        ++prio_active_[di * kPriorityClasses + qa->priority];
      }
      sim::SimTime n = 1;
      if (arbitration_ == ArbitrationKind::kFairShare) {
        // Charge (live competitors) * service time per packet: each
        // tenant's injection rate converges to a 1/n split of its
        // first hop while the direction stays contended.
        n = static_cast<sim::SimTime>(std::max(1, fair_active_[di]));
      } else if (arbitration_ == ArbitrationKind::kPriority) {
        // Strict (non-preemptive) priority: a tenant with live
        // higher-class competition is charged kPriorityWeight service
        // times per higher-class tenant, throttling lower classes to a
        // trickle while any higher class is sending; the top class —
        // and any class running alone — pays the FIFO charge.
        int higher = 0;
        for (int c = qa->priority + 1; c < kPriorityClasses; ++c) {
          higher += prio_active_[di * kPriorityClasses + c];
        }
        n = 1 + kPriorityWeight * static_cast<sim::SimTime>(higher);
      }
      sim::SimTime& clock = fair_next_[qa->slot][di];
      clock = std::max(clock, leg_start) + d * n;
    }
    const sim::SimTime leg_end = leg_start + d;
    next_free_[di] = leg_end;
    busy_[di] += d;
    bytes_[di] += bytes;
    RecordLeg(ld, leg_start, leg_end, bytes, leg_start - now);
    MaybePublish(ld);
    if (i == 0) {
      start = leg_start;
      first_leg_end = leg_end;
    }
    last_end = std::max(last_end, leg_end);
  }
  return Reservation{start, first_leg_end,
                     last_end + topo_->ChannelLatency(ch)};
}

sim::SimTime LinkStateTable::QueryReleaseTime(std::uint64_t query_id,
                                              topo::LinkDir ld) const {
  if (arbitration_ == ArbitrationKind::kFifo || query_id == kNoQuery) {
    return 0;
  }
  const auto it = query_arb_.find(query_id);
  if (it == query_arb_.end()) return 0;
  const std::size_t di = Index(ld);
  // A tenant that never reserved on the direction has no debt there.
  if (fair_touched_[it->second.slot][di] == 0) return 0;
  // Work conservation, part 1: a tenant with no live competition
  // (fair-share) or none of strictly higher class (priority) is never
  // paced — debt only delays a packet that a competitor could use the
  // slot for, and competitor counts drop the moment a query's last
  // byte lands (UnregisterQuery).
  if (arbitration_ == ArbitrationKind::kFairShare) {
    if (fair_active_[di] <= 1) return 0;
  } else {
    int higher = 0;
    for (int c = it->second.priority + 1; c < kPriorityClasses; ++c) {
      higher += prio_active_[di * kPriorityClasses + c];
    }
    if (higher == 0) return 0;
  }
  // Work conservation, part 2: cap the pace at one tick past the wire
  // horizon. A paced tenant re-checks just after the wire would drain;
  // if competitors kept it busy the horizon has moved and the debt
  // still holds, if they went quiet the gate opens and the link never
  // sits idle while this tenant has traffic. The debt itself is NOT
  // voided by an idle wire — capacity a tenant soaks up through gaps
  // stays on its clock, which is what keeps long-run shares fair.
  return std::min(fair_next_[it->second.slot][di], next_free_[di] + 1);
}

double LinkStateTable::links_eff_bw_(topo::LinkDir ld,
                                     std::uint64_t bytes) const {
  // A degraded link runs at a fraction of its healthy bandwidth; the
  // factor is 1.0 while up (and 0.0 down, but down links never admit).
  return topo_->link(ld.link_id).effective_bandwidth(bytes) *
         avail_.Factor(ld.link_id);
}

bool LinkStateTable::ChannelAvailable(const topo::Channel& ch) const {
  if (avail_.AllUp()) return true;
  for (const topo::LinkDir& ld : ch.path) {
    if (!avail_.Up(ld.link_id)) return false;
  }
  return true;
}

bool LinkStateTable::RouteAvailable(const topo::Route& r) const {
  if (avail_.AllUp()) return true;
  for (std::size_t i = 0; i + 1 < r.gpus.size(); ++i) {
    if (!ChannelAvailable(topo_->channel(r.gpus[i], r.gpus[i + 1]))) {
      return false;
    }
  }
  return true;
}

void LinkStateTable::ApplyFaultPlan(const FaultPlan& plan) {
  for (const FaultEvent& ev : plan.events()) {
    MGJ_CHECK(ev.link_id >= 0 && ev.link_id < topo_->num_links())
        << "fault event on unknown link " << ev.link_id;
    ++pending_fault_events_;
    sim_->ScheduleAt(std::max(ev.at, sim_->Now()),
                     [this, ev] { ApplyFaultEvent(ev); });
  }
}

void LinkStateTable::ApplyFaultEvent(const FaultEvent& ev) {
  --pending_fault_events_;
  ++fault_events_applied_;
  switch (ev.kind) {
    case FaultKind::kDown:
      avail_.SetHealth(ev.link_id, topo::LinkHealth::kDown);
      break;
    case FaultKind::kDegraded:
      avail_.SetHealth(ev.link_id, topo::LinkHealth::kDegraded, ev.factor);
      break;
    case FaultKind::kRestored:
      avail_.SetHealth(ev.link_id, topo::LinkHealth::kUp);
      break;
  }
  // Health as a percentage of nominal bandwidth: 100 up, 0 down.
  const std::uint64_t pct = static_cast<std::uint64_t>(
      avail_.Factor(ev.link_id) * 100.0 + 0.5);
  const std::string link_name = topo_->link(ev.link_id).ToString();
  if (hooks_.trace != nullptr) {
    if (fault_track_ < 0) fault_track_ = hooks_.trace->Track("net.faults");
    hooks_.trace->Instant(
        fault_track_, "fault", FaultKindName(ev.kind) + (": " + link_name),
        sim_->Now(),
        {{"link", static_cast<std::uint64_t>(ev.link_id)},
         {"health_pct", pct}});
  }
  if (hooks_.metrics != nullptr) {
    hooks_.metrics->gauge("link." + link_name + ".state").Set(pct);
    hooks_.metrics->counter("net.fault_events").Add(1);
  }
  if (fault_cb_) fault_cb_(ev);
}

std::string LinkStateTable::HealthReport() const {
  std::string out;
  for (const topo::Link& l : topo_->links()) {
    const topo::LinkHealth h = avail_.health(l.id);
    if (h == topo::LinkHealth::kUp) continue;
    out += "  " + l.ToString() + ": " + topo::LinkHealthName(h);
    if (h == topo::LinkHealth::kDegraded) {
      out += " (x" + std::to_string(avail_.Factor(l.id)) + ")";
    }
    out += "\n";
  }
  return out;
}

sim::SimTime LinkStateTable::TrueQueueDelay(topo::LinkDir ld) const {
  return QueueDelayAt(ld, sim_->Now());
}

sim::SimTime LinkStateTable::QueueDelayAt(topo::LinkDir ld,
                                          sim::SimTime t) const {
  const sim::SimTime free_at = next_free_[Index(ld)];
  return free_at > t ? free_at - t : 0;
}

sim::SimTime LinkStateTable::PublishedQueueDelay(topo::LinkDir ld) const {
  return published_delay_[Index(ld)];
}

sim::SimTime LinkStateTable::BusyTime(topo::LinkDir ld) const {
  return busy_[Index(ld)];
}

std::uint64_t LinkStateTable::BytesMoved(topo::LinkDir ld) const {
  return bytes_[Index(ld)];
}

void LinkStateTable::MaybePublish(topo::LinkDir ld) {
  const std::size_t di = Index(ld);
  if (publish_pending_[di]) return;
  const sim::SimTime true_delay = TrueQueueDelay(ld);
  const sim::SimTime pub = published_delay_[di];
  const sim::SimTime diff = true_delay > pub ? true_delay - pub
                                             : pub - true_delay;
  if (diff <= std::max<sim::SimTime>(kPublishFloor, pub / 8)) return;
  publish_pending_[di] = 1;
  ++broadcasts_;
  sim_->Schedule(kPropagationDelay, [this, ld] {
    const std::size_t i = Index(ld);
    published_delay_[i] = TrueQueueDelay(ld);
    publish_pending_[i] = 0;
    // A further change may have happened while this broadcast was in
    // flight; chase it so the view converges.
    MaybePublish(ld);
  });
}

}  // namespace mgjoin::net
