#ifndef MGJ_PERFBENCH_SPANS_H_
#define MGJ_PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "net/routing_policy.h"

namespace perfbench {

/// \brief In-memory span log of the traced run (README.md, "Span
/// schema").
///
/// Every span is recorded from the benchmark's side of a public call:
/// name, start and end in seconds since the log was created, the index
/// of the enclosing span (-1 for a root) and the run id shared by the
/// spans of one repetition. An *aggregate* span stands for many short
/// calls (the routing policy is called ~10^6 times per join): it has no
/// interval, only `calls` and summed `busy_s`, and counts as a child of
/// its parent for self time. Nothing is written until ToJson().
class SpanLog {
 public:
  struct Span {
    std::string name;
    double start = 0;
    double end = 0;
    int parent = -1;
    int run = 0;
    bool aggregate = false;
    std::uint64_t calls = 0;
    double Seconds() const { return end - start; }
  };

  SpanLog() : t0_(std::chrono::steady_clock::now()) {}

  /// Opens a span now and returns its index.
  int Begin(std::string name, int parent, int run);
  /// Closes span `id` now.
  void End(int id);
  /// Records an aggregate child of `parent`.
  void AddAggregate(std::string name, int parent, std::uint64_t calls,
                    double busy_s);

  const std::vector<Span>& spans() const { return spans_; }

  /// Summed duration of the spans called `name` in run `run`.
  double Total(const std::string& name, int run) const;
  /// Summed self time (duration minus the children's durations) of the
  /// spans called `name` in run `run`.
  double Self(const std::string& name, int run) const;

  std::string ToJson() const;

 private:
  double Now() const;

  std::chrono::steady_clock::time_point t0_;
  std::vector<Span> spans_;
};

/// RAII span: Begin on construction, End on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, int parent, int run)
      : log_(log), id_(log->Begin(std::move(name), parent, run)) {}
  ~ScopedSpan() { log_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

/// \brief Delegating routing policy that counts and times every
/// ChooseRoute call of the wrapped policy.
///
/// The engine hands its participant mask to the policy it is given, and
/// SetParticipants is not virtual, so the wrapper forwards the same mask
/// (computed exactly as TransferEngine does) to the inner policy itself.
class CountingPolicy : public mgjoin::net::RoutingPolicy {
 public:
  CountingPolicy(mgjoin::net::RoutingPolicy* inner, int topo_gpus,
                 const std::vector<int>& gpus);

  mgjoin::net::PolicyKind kind() const override { return inner_->kind(); }
  mgjoin::topo::Route ChooseRoute(
      int src, int dst, std::uint64_t packet_bytes, int num_packets,
      const mgjoin::net::LinkStateTable& state) override;
  mgjoin::sim::SimTime ControlOverheadPerBatch(int num_gpus) const override {
    return inner_->ControlOverheadPerBatch(num_gpus);
  }
  bool SerializesGlobally() const override {
    return inner_->SerializesGlobally();
  }

  std::uint64_t calls() const { return calls_; }
  double busy_seconds() const { return busy_s_; }

 private:
  mgjoin::net::RoutingPolicy* inner_;
  std::uint64_t calls_ = 0;
  double busy_s_ = 0;
};

}  // namespace perfbench

#endif  // MGJ_PERFBENCH_SPANS_H_
