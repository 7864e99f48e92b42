#include "driver/spans.h"

#include <cstdio>

namespace perfbench {

double SpanLog::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       t0_)
      .count();
}

int SpanLog::Begin(std::string name, int parent, int run) {
  const double now = Now();
  spans_.push_back(Span{.name = std::move(name),
                        .start = now,
                        .end = now,
                        .parent = parent,
                        .run = run});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::End(int id) { spans_[id].end = Now(); }

void SpanLog::AddAggregate(std::string name, int parent,
                           std::uint64_t calls, double busy_s) {
  spans_.push_back(Span{.name = std::move(name),
                        .start = 0,
                        .end = busy_s,
                        .parent = parent,
                        .run = spans_[parent].run,
                        .aggregate = true,
                        .calls = calls});
}

double SpanLog::Total(const std::string& name, int run) const {
  double total = 0;
  for (const Span& s : spans_) {
    if (s.run == run && s.name == name) total += s.Seconds();
  }
  return total;
}

double SpanLog::Self(const std::string& name, int run) const {
  double self = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.run != run || s.name != name) continue;
    self += s.Seconds();
    for (const Span& c : spans_) {
      if (c.parent == static_cast<int>(i)) self -= c.Seconds();
    }
  }
  return self;
}

std::string SpanLog::ToJson() const {
  std::string out = "{\"schema\":\"mgj-perfbench-spans/1\",\"spans\":[";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.aggregate) {
      std::snprintf(buf, sizeof(buf),
                    "%s\n{\"id\":%zu,\"name\":\"%s\",\"parent\":%d,"
                    "\"run\":%d,\"calls\":%llu,\"busy_s\":%.9f}",
                    i == 0 ? "" : ",", i, s.name.c_str(), s.parent, s.run,
                    static_cast<unsigned long long>(s.calls), s.Seconds());
    } else {
      std::snprintf(buf, sizeof(buf),
                    "%s\n{\"id\":%zu,\"name\":\"%s\",\"parent\":%d,"
                    "\"run\":%d,\"start\":%.9f,\"end\":%.9f}",
                    i == 0 ? "" : ",", i, s.name.c_str(), s.parent, s.run,
                    s.start, s.end);
    }
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

CountingPolicy::CountingPolicy(mgjoin::net::RoutingPolicy* inner,
                               int topo_gpus, const std::vector<int>& gpus)
    : inner_(inner) {
  std::vector<bool> mask(topo_gpus, false);
  for (int g : gpus) mask[g] = true;
  inner_->SetParticipants(std::move(mask));
}

mgjoin::topo::Route CountingPolicy::ChooseRoute(
    int src, int dst, std::uint64_t packet_bytes, int num_packets,
    const mgjoin::net::LinkStateTable& state) {
  const auto t0 = std::chrono::steady_clock::now();
  mgjoin::topo::Route route =
      inner_->ChooseRoute(src, dst, packet_bytes, num_packets, state);
  busy_s_ += std::chrono::duration<double>(
                 std::chrono::steady_clock::now() - t0)
                 .count();
  ++calls_;
  return route;
}

}  // namespace perfbench
