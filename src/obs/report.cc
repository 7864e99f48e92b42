#include "obs/report.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

#include "obs/json.h"
#include "obs/metrics.h"

namespace mgjoin::obs::report {

namespace {

constexpr std::size_t kHeatmapCols = 48;
constexpr std::size_t kMaxTableLinks = 16;

/// A phase span considered by the critical-path walk.
struct PSpan {
  std::string phase;
  std::string track;
  sim::SimTime begin = 0;
  sim::SimTime end = 0;
};

bool IsPhaseName(const std::string& name) {
  return name == "histogram" || name == "distribution" ||
         name == "global_partition" || name == "local_partition" ||
         name == "probe";
}

/// Deterministic preference between candidate spans with equal end (or
/// equal begin): lexicographic on (track, phase).
bool TieBreakLess(const PSpan& a, const PSpan& b) {
  if (a.track != b.track) return a.track < b.track;
  return a.phase < b.phase;
}

/// \brief Attributes [0, total] to phases by walking backwards from the
/// end of the run.
///
/// At each cursor position the walk asks "what was the binding
/// constraint just before this point?" and answers with the phase span
/// that ends closest to (at or before) the cursor — falling back to a
/// span still covering the cursor when nothing has finished yet. The
/// attributed slice runs from that span's *begin* to the cursor, so any
/// scheduling gap between the span's end and the cursor is charged to
/// the same phase (the gap exists because that phase's output was being
/// waited for).
///
/// Dependency scoping: once the walk steps onto a per-GPU track
/// ("join.gpu<N>") it only considers that GPU's spans plus the global
/// "join.phases" track — a GPU's probe waits on *its own* compute chain
/// or on the shared distribution, never on another GPU's kernels.
CriticalPath WalkCriticalPath(const std::vector<PSpan>& spans,
                              sim::SimTime total) {
  CriticalPath cp;
  cp.total = total;
  if (total == 0) return cp;

  std::vector<PhaseSlice> reversed;
  sim::SimTime cursor = total;
  std::string scope;
  // Each iteration strictly decreases the cursor, and each phase span
  // can bound at most a few slices; the guard is belt and braces.
  std::size_t guard = spans.size() * 2 + 8;
  while (cursor > 0 && guard-- > 0) {
    const PSpan* finished = nullptr;  // ends at or before the cursor
    const PSpan* covering = nullptr;  // still running at the cursor
    for (const PSpan& s : spans) {
      if (s.begin >= cursor) continue;
      if (!scope.empty() && s.track != "join.phases" && s.track != scope) {
        continue;
      }
      if (s.end <= cursor) {
        if (finished == nullptr || s.end > finished->end ||
            (s.end == finished->end && TieBreakLess(s, *finished))) {
          finished = &s;
        }
      } else {
        if (covering == nullptr || s.begin > covering->begin ||
            (s.begin == covering->begin && TieBreakLess(s, *covering))) {
          covering = &s;
        }
      }
    }
    const PSpan* best = finished != nullptr ? finished : covering;
    if (best == nullptr) {
      reversed.push_back(PhaseSlice{"(unattributed)", 0, cursor});
      cursor = 0;
      break;
    }
    reversed.push_back(PhaseSlice{best->phase, best->begin, cursor});
    cursor = best->begin;
    if (best->track != "join.phases") scope = best->track;
  }
  if (cursor > 0) {
    reversed.push_back(PhaseSlice{"(unattributed)", 0, cursor});
  }

  cp.slices.assign(reversed.rbegin(), reversed.rend());

  std::vector<std::pair<std::string, sim::SimTime>> totals;
  for (const PhaseSlice& s : cp.slices) {
    auto it = std::find_if(totals.begin(), totals.end(),
                           [&](const auto& p) { return p.first == s.phase; });
    if (it == totals.end()) {
      totals.emplace_back(s.phase, s.Duration());
    } else {
      it->second += s.Duration();
    }
  }
  std::sort(totals.begin(), totals.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  cp.phase_totals = std::move(totals);
  return cp;
}

/// Piecewise-constant health factor of one link over time, rebuilt from
/// the "net.faults" instants.
struct FaultTimeline {
  std::vector<std::pair<sim::SimTime, double>> steps;  // (ts, factor)

  double FactorAt(sim::SimTime t) const {
    double f = 1.0;
    for (const auto& [ts, factor] : steps) {
      if (ts > t) break;
      f = factor;
    }
    return f;
  }

  /// Time-weighted mean factor over [begin, end).
  double MeanOver(sim::SimTime begin, sim::SimTime end) const {
    if (end <= begin) return 1.0;
    double weighted = 0.0;
    sim::SimTime at = begin;
    double f = FactorAt(begin);
    for (const auto& [ts, factor] : steps) {
      if (ts <= begin) continue;
      if (ts >= end) break;
      weighted += f * static_cast<double>(ts - at);
      at = ts;
      f = factor;
    }
    weighted += f * static_cast<double>(end - at);
    return weighted / static_cast<double>(end - begin);
  }
};

struct LinkAccum {
  LinkReport report;
  std::int64_t link_id = -1;
  std::vector<std::uint64_t> queue_samples;
  double queue_sum = 0.0;
};

void AppendFixed(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));
void AppendFixed(std::string* out, const char* fmt, ...) {
  char line[256];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(line, sizeof(line), fmt, ap);
  va_end(ap);
  *out += line;
}

/// "%llu.%06llu" fixed-point microseconds back to picoseconds, exactly.
sim::SimTime PicosFromMicrosText(const std::string& t) {
  const char* p = t.c_str();
  char* end = nullptr;
  const std::uint64_t whole = std::strtoull(p, &end, 10);
  std::uint64_t frac = 0;
  int digits = 0;
  if (end != nullptr && *end == '.') {
    for (const char* d = end + 1; *d >= '0' && *d <= '9' && digits < 6;
         ++d, ++digits) {
      frac = frac * 10 + static_cast<std::uint64_t>(*d - '0');
    }
  }
  while (digits < 6) {
    frac *= 10;
    ++digits;
  }
  return whole * 1000000ull + frac;
}

}  // namespace

DelaySummary Summarize(std::vector<std::uint64_t>* samples) {
  DelaySummary s;
  s.count = samples->size();
  if (samples->empty()) return s;
  std::sort(samples->begin(), samples->end());
  double sum = 0.0;
  for (std::uint64_t v : *samples) sum += static_cast<double>(v);
  s.mean = sum / static_cast<double>(samples->size());
  const auto at = [&](double q) {
    const std::size_t idx = static_cast<std::size_t>(
        q * static_cast<double>(samples->size() - 1) + 0.5);
    return (*samples)[std::min(idx, samples->size() - 1)];
  };
  s.p50 = at(0.50);
  s.p95 = at(0.95);
  s.p99 = at(0.99);
  s.max = samples->back();
  return s;
}

RunReport BuildRunReport(const std::vector<TraceEvent>& events) {
  RunReport out;

  // ---- Pass 1: classify events.
  std::vector<PSpan> phase_spans;
  bool have_total = false;
  sim::SimTime total_end = 0;
  sim::SimTime max_span_end = 0;
  sim::SimTime dist_begin = 0, dist_end = 0;
  bool have_dist = false;
  double bisection_bps = 0.0;
  std::vector<std::int64_t> cut_links;  // ids crossing the bisection cut
  std::vector<std::pair<std::string, LinkAccum>> links;
  std::vector<std::pair<std::int64_t, FaultTimeline>> faults;

  const auto link_accum = [&](const std::string& track) -> LinkAccum& {
    for (auto& [name, acc] : links) {
      if (name == track) return acc;
    }
    links.emplace_back(track, LinkAccum{});
    links.back().second.report.name = track;
    return links.back().second;
  };

  for (const TraceEvent& e : events) {
    const bool on_link = e.track.rfind("link.", 0) == 0;
    if (e.kind == TraceEvent::Kind::kSpan) {
      max_span_end = std::max(max_span_end, e.ts + e.dur);
      if (e.track == "join.phases" && e.name == "join_total") {
        have_total = true;
        total_end = std::max(total_end, e.ts + e.dur);
      } else if (IsPhaseName(e.name) &&
                 (e.track == "join.phases" ||
                  e.track.rfind("join.gpu", 0) == 0)) {
        phase_spans.push_back(PSpan{e.name, e.track, e.ts, e.ts + e.dur});
        if (e.name == "distribution") {
          have_dist = true;
          dist_begin = e.ts;
          dist_end = std::max(dist_end, e.ts + e.dur);
        }
      }
    } else if (e.kind == TraceEvent::Kind::kInstant) {
      if (on_link && e.name == "info") {
        LinkAccum& acc = link_accum(e.track);
        acc.report.peak_bps = static_cast<double>(e.Arg("peak_bps"));
        acc.link_id = static_cast<std::int64_t>(e.Arg("link_id"));
      } else if (e.track == "net.faults") {
        const std::int64_t id = static_cast<std::int64_t>(e.Arg("link"));
        const double factor =
            static_cast<double>(e.Arg("health_pct", 100)) / 100.0;
        auto it = std::find_if(faults.begin(), faults.end(),
                               [&](const auto& p) { return p.first == id; });
        if (it == faults.end()) {
          faults.emplace_back(id, FaultTimeline{});
          it = faults.end() - 1;
        }
        it->second.steps.emplace_back(e.ts, factor);
      } else if (e.name == "bisection") {
        bisection_bps = static_cast<double>(e.Arg("bps"));
        for (const auto& [k, v] : e.args) {
          if (k.rfind("cut", 0) == 0) {
            cut_links.push_back(static_cast<std::int64_t>(v));
          }
        }
      }
    }
  }

  // ---- Critical path.
  if (have_total) {
    out.critical_path = WalkCriticalPath(phase_spans, total_end);
  } else if (max_span_end > 0) {
    // Distribution-only trace (no join orchestration): the whole run is
    // the shuffle.
    std::vector<PSpan> synth{
        PSpan{"distribution", "join.phases", 0, max_span_end}};
    out.critical_path = WalkCriticalPath(synth, max_span_end);
  }

  // ---- Congestion window: the distribution phase when known,
  // otherwise all recorded activity.
  sim::SimTime wb = 0, we = 0;
  if (have_dist) {
    wb = dist_begin;
    we = dist_end;
  } else {
    we = max_span_end;
  }
  out.congestion.window_begin = wb;
  out.congestion.window_end = we;
  out.congestion.bisection_bps = bisection_bps;
  const sim::SimTime window = we > wb ? we - wb : 0;

  // ---- Pass 2: per-link accumulation over the window.
  for (const TraceEvent& e : events) {
    if (e.kind != TraceEvent::Kind::kSpan) continue;
    if (e.track.rfind("link.", 0) != 0) continue;
    const sim::SimTime begin = e.ts;
    const sim::SimTime end = e.ts + e.dur;
    if (window == 0 || end <= wb || begin >= we) continue;
    LinkAccum& acc = link_accum(e.track);
    const sim::SimTime cb = std::max(begin, wb);
    const sim::SimTime ce = std::min(end, we);
    acc.report.busy += ce - cb;
    acc.report.bytes += e.Arg("bytes");
    acc.report.transfers += 1;
    for (const auto& [k, v] : e.args) {
      if (k == "queue_ns") {
        acc.queue_samples.push_back(v);
        break;
      }
    }
    if (acc.report.profile.empty()) {
      acc.report.profile.assign(kHeatmapCols, 0.0);
    }
    // Spread the clipped busy interval over the heatmap bins.
    const double bin_w =
        static_cast<double>(window) / static_cast<double>(kHeatmapCols);
    for (std::size_t b = 0; b < kHeatmapCols; ++b) {
      const double bb = static_cast<double>(wb) + bin_w * b;
      const double be = bb + bin_w;
      const double lo = std::max(bb, static_cast<double>(cb));
      const double hi = std::min(be, static_cast<double>(ce));
      if (hi > lo) acc.report.profile[b] += (hi - lo) / bin_w;
    }
  }

  double total_bytes = 0.0;
  double cut_bytes = 0.0;
  double avail_weighted = 0.0;
  for (auto& [name, acc] : links) {
    acc.report.queue_ns = Summarize(&acc.queue_samples);
    if (acc.link_id >= 0) {
      for (const auto& [id, tl] : faults) {
        if (id == acc.link_id) {
          acc.report.availability = tl.MeanOver(wb, we);
          break;
        }
      }
    }
    total_bytes += static_cast<double>(acc.report.bytes);
    if (std::find(cut_links.begin(), cut_links.end(), acc.link_id) !=
        cut_links.end()) {
      cut_bytes += static_cast<double>(acc.report.bytes);
    }
    avail_weighted +=
        static_cast<double>(acc.report.bytes) * acc.report.availability;
  }

  const double secs = sim::ToSeconds(window);
  out.congestion.achieved_wire_bps = secs > 0 ? total_bytes / secs : 0.0;
  out.congestion.cut_known = !cut_links.empty();
  out.congestion.cut_wire_bps = secs > 0 ? cut_bytes / secs : 0.0;
  out.congestion.adjusted_bisection_bps =
      total_bytes > 0 ? bisection_bps * (avail_weighted / total_bytes)
                      : bisection_bps;

  std::vector<LinkReport> reports;
  reports.reserve(links.size());
  for (auto& [name, acc] : links) {
    if (acc.report.transfers == 0 && acc.report.bytes == 0) continue;
    reports.push_back(std::move(acc.report));
  }
  std::sort(reports.begin(), reports.end(),
            [](const LinkReport& a, const LinkReport& b) {
              if (a.busy != b.busy) return a.busy > b.busy;
              return a.name < b.name;
            });
  out.congestion.links = std::move(reports);
  return out;
}

std::string CongestionReport::AsciiHeatmap(std::size_t max_rows) const {
  static const char kLevels[] = "0123456789X";
  std::string out;
  const std::size_t rows = std::min(max_rows, links.size());
  for (std::size_t i = 0; i < rows; ++i) {
    const LinkReport& l = links[i];
    AppendFixed(&out, "  %-28s ", l.name.c_str());
    for (double u : l.profile) {
      const int level =
          std::clamp(static_cast<int>(u * 10.0), 0, 10);
      out.push_back(kLevels[level]);
    }
    out.push_back('\n');
  }
  if (links.size() > rows) {
    AppendFixed(&out, "  (+%zu more links)\n", links.size() - rows);
  }
  return out;
}

TimelineAnalytics AnalyzeTimeline(const CongestionReport& congestion,
                                  double threshold) {
  TimelineAnalytics out;
  out.threshold = threshold;
  const sim::SimTime window = congestion.Window();
  out.bin_width = window / kHeatmapCols;
  for (const LinkReport& l : congestion.links) {
    for (std::size_t b = 0; b < l.profile.size(); ++b) {
      if (l.profile[b] >= threshold) {
        out.saturations.push_back(
            {l.name, b,
             congestion.window_begin +
                 static_cast<sim::SimTime>(b) * out.bin_width,
             l.profile[b]});
        break;
      }
    }
  }
  std::sort(out.saturations.begin(), out.saturations.end(),
            [](const SaturationEvent& a, const SaturationEvent& b) {
              if (a.when != b.when) return a.when < b.when;
              return a.link < b.link;
            });
  return out;
}

std::string TimelineText(const CongestionReport& congestion,
                         double threshold) {
  std::string out;
  AppendFixed(&out,
              "== timeline (window %.3f-%.3f ms, %zu bins of %.3f ms) ==\n",
              sim::ToMillis(congestion.window_begin),
              sim::ToMillis(congestion.window_end), kHeatmapCols,
              sim::ToMillis(congestion.Window() / kHeatmapCols));
  if (congestion.links.empty()) {
    out += "  no link activity in window\n";
    return out;
  }
  out += congestion.AsciiHeatmap();
  const TimelineAnalytics tl = AnalyzeTimeline(congestion, threshold);
  AppendFixed(&out, "== time to first saturation (util >= %.0f%%) ==\n",
              100.0 * threshold);
  if (!tl.AnySaturation()) {
    out += "  no link reached the saturation threshold\n";
    return out;
  }
  AppendFixed(&out, "  %-28s %12s %6s\n", "link", "first_sat_ms", "util%");
  for (const SaturationEvent& s : tl.saturations) {
    AppendFixed(&out, "  %-28s %12.3f %6.1f\n", s.link.c_str(),
                sim::ToMillis(s.when), 100.0 * s.utilization);
  }
  const SaturationEvent& first = tl.saturations.front();
  AppendFixed(&out, "  first: %s at %.3f ms (%.3f ms into the window)\n",
              first.link.c_str(), sim::ToMillis(first.when),
              sim::ToMillis(first.when - congestion.window_begin));
  return out;
}

std::string RunReport::ToText() const {
  std::string out;
  const CriticalPath& cp = critical_path;
  AppendFixed(&out, "== critical path (total %.3f ms) ==\n",
              sim::ToMillis(cp.total));
  AppendFixed(&out, "  %-20s %12s %8s\n", "phase", "attributed_ms",
              "share");
  for (const auto& [phase, t] : cp.phase_totals) {
    const double share =
        cp.total == 0 ? 0.0
                      : 100.0 * static_cast<double>(t) /
                            static_cast<double>(cp.total);
    AppendFixed(&out, "  %-20s %12.3f %7.1f%%\n", phase.c_str(),
                sim::ToMillis(t), share);
  }
  out += "  timeline:";
  for (std::size_t i = 0; i < cp.slices.size(); ++i) {
    const PhaseSlice& s = cp.slices[i];
    AppendFixed(&out, "%s %s[%.3f-%.3f]", i == 0 ? "" : " ->",
                s.phase.c_str(), sim::ToMillis(s.begin),
                sim::ToMillis(s.end));
  }
  out += "\n";

  const CongestionReport& c = congestion;
  AppendFixed(&out, "== congestion (window %.3f-%.3f ms) ==\n",
              sim::ToMillis(c.window_begin), sim::ToMillis(c.window_end));
  AppendFixed(&out, "  %-28s %9s %6s %10s %7s %-24s\n", "link", "busy_ms",
              "util%", "MiB", "avail%", "queue p50/p95/p99 (ns)");
  const sim::SimTime window = c.Window();
  const std::size_t rows = std::min(kMaxTableLinks, c.links.size());
  for (std::size_t i = 0; i < rows; ++i) {
    const LinkReport& l = c.links[i];
    AppendFixed(&out, "  %-28s %9.3f %6.1f %10.2f %7.1f %llu/%llu/%llu\n",
                l.name.c_str(), sim::ToMillis(l.busy),
                100.0 * l.Utilization(window),
                static_cast<double>(l.bytes) / (1024.0 * 1024.0),
                100.0 * l.availability,
                static_cast<unsigned long long>(l.queue_ns.p50),
                static_cast<unsigned long long>(l.queue_ns.p95),
                static_cast<unsigned long long>(l.queue_ns.p99));
  }
  if (c.links.size() > rows) {
    AppendFixed(&out, "  (+%zu more links)\n", c.links.size() - rows);
  }
  AppendFixed(&out, "  aggregate wire throughput: %.2f GB/s\n",
              c.achieved_wire_bps / 1e9);
  if (c.bisection_bps > 0) {
    AppendFixed(&out,
                "  bisection peak: %.2f GB/s (availability-adjusted %.2f)",
                c.bisection_bps / 1e9, c.adjusted_bisection_bps / 1e9);
    if (c.cut_known) {
      AppendFixed(&out, "; utilization %.1f%%",
                  c.adjusted_bisection_bps > 0
                      ? 100.0 * c.cut_wire_bps / c.adjusted_bisection_bps
                      : 0.0);
    }
    out += "\n";
  }
  if (!c.links.empty()) {
    out += "== link heatmap (util deciles over window) ==\n";
    out += c.AsciiHeatmap();
  }
  return out;
}

void TenancyReport::Finalize() {
  slo = SloStats{};
  makespan = 0;
  if (queries.empty()) return;
  sim::SimTime first_submit = queries.front().submit_at;
  sim::SimTime last_complete = 0;
  obs::Histogram latency_ns;
  double sum_ns = 0.0;
  for (const QueryOutcome& q : queries) {
    first_submit = std::min(first_submit, q.submit_at);
    last_complete = std::max(last_complete, q.complete_at);
    const std::uint64_t ns = static_cast<std::uint64_t>(
        q.Latency() / sim::kNanosecond);
    latency_ns.Observe(ns);
    sum_ns += static_cast<double>(ns);
    slo.max_ns = std::max(slo.max_ns, ns);
  }
  makespan = last_complete > first_submit ? last_complete - first_submit : 0;
  slo.count = queries.size();
  slo.p50_ns = latency_ns.P50();
  slo.p95_ns = latency_ns.P95();
  slo.p99_ns = latency_ns.P99();
  slo.mean_ns = sum_ns / static_cast<double>(queries.size());
}

std::string TenancyReport::ToText() const {
  std::string out;
  const std::string inflight_text =
      inflight_limit == 0 ? "unlimited" : std::to_string(inflight_limit);
  AppendFixed(&out, "== tenancy (%s, inflight=%s, %zu queries) ==\n",
              arbitration.c_str(), inflight_text.c_str(), queries.size());
  AppendFixed(&out,
              "  %-6s %-4s %10s %10s %12s %11s %9s %9s %10s\n", "query",
              "prio", "submit_ms", "admit_ms", "complete_ms", "latency_ms",
              "queue_ms", "slowdown", "matches");
  for (const QueryOutcome& q : queries) {
    AppendFixed(&out, "  q%-5llu %-4d %10.3f %10.3f %12.3f %11.3f %9.3f ",
                static_cast<unsigned long long>(q.query_id), q.priority,
                sim::ToMillis(q.submit_at), sim::ToMillis(q.admit_at),
                sim::ToMillis(q.complete_at), sim::ToMillis(q.Latency()),
                sim::ToMillis(q.QueueDelay()));
    if (q.solo_latency == 0) {
      AppendFixed(&out, "%9s ", "-");
    } else {
      AppendFixed(&out, "%8.2fx ", q.Slowdown());
    }
    AppendFixed(&out, "%10llu\n",
                static_cast<unsigned long long>(q.matches));
  }
  AppendFixed(&out,
              "  latency p50 %.3f ms, p95 %.3f ms, p99 %.3f ms, max %.3f "
              "ms over %llu queries; makespan %.3f ms\n",
              static_cast<double>(slo.p50_ns) / 1e6,
              static_cast<double>(slo.p95_ns) / 1e6,
              static_cast<double>(slo.p99_ns) / 1e6,
              static_cast<double>(slo.max_ns) / 1e6,
              static_cast<unsigned long long>(slo.count),
              sim::ToMillis(makespan));
  return out;
}

Result<std::vector<TraceEvent>> EventsFromTraceJson(
    const std::string& json_text) {
  auto parsed = json::Parse(json_text);
  if (!parsed.ok()) return parsed.status();
  const json::Value& root = parsed.value();
  const json::Value* events = root.Find("traceEvents");
  if (events == nullptr || !events->IsArray()) {
    return Status::InvalidArgument(
        "not a Chrome trace: missing traceEvents array");
  }

  // tid -> track name, from the thread_name metadata events.
  std::vector<std::pair<std::int64_t, std::string>> track_names;
  for (const json::Value& e : events->items) {
    if (e.StringOr("ph", "") != "M") continue;
    if (e.StringOr("name", "") != "thread_name") continue;
    const json::Value* args = e.Find("args");
    if (args == nullptr) continue;
    track_names.emplace_back(
        static_cast<std::int64_t>(e.NumberOr("tid", 0)),
        args->StringOr("name", ""));
  }
  const auto track_of = [&](std::int64_t tid) -> std::string {
    for (const auto& [id, name] : track_names) {
      if (id == tid) return name;
    }
    return "";
  };

  std::vector<TraceEvent> out;
  for (const json::Value& e : events->items) {
    const std::string ph = e.StringOr("ph", "");
    if (ph != "X" && ph != "i" && ph != "C") continue;
    TraceEvent t;
    t.track = track_of(static_cast<std::int64_t>(e.NumberOr("tid", 0)));
    t.category = e.StringOr("cat", "");
    t.name = e.StringOr("name", "");
    if (const json::Value* ts = e.Find("ts");
        ts != nullptr && ts->IsNumber()) {
      t.ts = PicosFromMicrosText(ts->text);
    }
    if (ph == "X") {
      t.kind = TraceEvent::Kind::kSpan;
      if (const json::Value* dur = e.Find("dur");
          dur != nullptr && dur->IsNumber()) {
        t.dur = PicosFromMicrosText(dur->text);
      }
    } else if (ph == "i") {
      t.kind = TraceEvent::Kind::kInstant;
    } else {
      t.kind = TraceEvent::Kind::kCounter;
    }
    if (const json::Value* args = e.Find("args"); args != nullptr) {
      for (const auto& [k, v] : args->members) {
        if (!v.IsNumber()) continue;
        const std::uint64_t u =
            std::strtoull(v.text.c_str(), nullptr, 10);
        if (ph == "C" && k == "value") {
          t.value = u;
        } else {
          t.args.emplace_back(k, u);
        }
      }
    }
    out.push_back(std::move(t));
  }
  return out;
}

}  // namespace mgjoin::obs::report
