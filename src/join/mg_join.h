#ifndef MGJOIN_JOIN_MG_JOIN_H_
#define MGJOIN_JOIN_MG_JOIN_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "data/relation.h"
#include "gpusim/gpu.h"
#include "join/join_types.h"
#include "join/local_join.h"
#include "join/partition_assignment.h"
#include "net/routing_policy.h"
#include "net/transfer_engine.h"
#include "topo/topology.h"

namespace mgjoin::join {

/// Options of the partitioned multi-GPU join. Defaults reproduce
/// MG-Join; Dprj() reproduces the DPRJ baseline.
struct MgJoinOptions {
  /// Routing policy for the data-distribution step.
  net::PolicyKind policy = net::PolicyKind::kAdaptive;
  /// Packetization / ring-buffer / batching knobs.
  net::TransferOptions transfer;
  /// Device model used for the kernel cost model.
  gpusim::GpuSpec gpu = gpusim::GpuSpec::V100();
  /// Partition-to-GPU assignment strategy.
  AssignmentStrategy assignment = AssignmentStrategy::kNetworkOptimal;
  /// Transfer compression (radix prefix elision + id delta encoding).
  bool use_compression = true;
  /// Overlap the distribution with the partitioning kernels (Rationale
  /// 2). DPRJ transfers in bulk after partitioning completes.
  bool overlap = true;
  /// Multiplier applied to all byte/tuple volumes fed to the *timing*
  /// layer, so experiments simulate paper-scale inputs while processing
  /// tractable functional data. 1.0 = timing matches functional scale.
  double virtual_scale = 1.0;
  /// Heavy-hitter threshold (x average partition size).
  double heavy_hitter_factor = 4.0;
  /// Override the Eq.-1 radix width (-1 = derive from the GPU spec).
  int radix_bits_override = -1;
  /// Local-phase knobs; shared_mem_tuples <= 0 derives from the GPU spec.
  LocalJoinOptions local{.shared_mem_tuples = 0};
  /// Materialize matched (r_id, s_id) pairs in JoinResult::pairs.
  bool materialize_pairs = false;
  /// Host worker threads for the functional layer (0 = MGJ_THREADS env,
  /// then hardware concurrency; see ThreadPool::ResolveThreadCount).
  /// Purely a wall-clock knob: functional results, simulated times and
  /// traces are byte-identical at any setting (DESIGN.md Sec 11).
  int host_threads = 0;
  /// Attribution id stamped into every flow's FlowTag (telemetry /
  /// per-flow metrics; DESIGN.md Sec 14). The exec engine assigns a
  /// fresh id per query when this is left 0.
  std::uint64_t query_id = 0;

  /// The DPRJ baseline (Guo et al. [21]): CUDA direct routes, no
  /// network-optimal assignment, bulk transfers, no compression.
  static MgJoinOptions Dprj() {
    MgJoinOptions o;
    o.policy = net::PolicyKind::kDirect;
    o.assignment = AssignmentStrategy::kRoundRobin;
    o.use_compression = false;
    o.overlap = false;
    // DPRJ moves data in bulk cudaMemcpyPeer-style transfers, not
    // routed 2 MB packets.
    o.transfer.packet_bytes = 16 * kMiB;
    o.transfer.batch_packets = 1;
    o.transfer.ring_buffer_bytes = 128 * kMiB;
    return o;
  }
};

/// One join after its host phases (MgJoin::Prepare): the functional
/// result plus every cost-model input the timing layer needs. Simulated
/// times are offsets from the moment the join is admitted to the fabric
/// (0 for a standalone Execute); volumes are at virtual scale.
struct PreparedJoin {
  /// Shuffle flows tagged {options.query_id, "shuffle"}; TimeFlow sets
  /// their available_at and generation_rate.
  std::vector<net::Flow> flows;
  sim::SimTime hist_end = 0;             ///< histogram barrier
  std::vector<sim::SimTime> gp_time;     ///< partition kernel, per GPU
  std::vector<sim::SimTime> lp_time;     ///< local partitioning, per GPU
  std::vector<sim::SimTime> probe_time;  ///< probe, per GPU
  std::vector<std::uint64_t> recv_tuples;  ///< tuples received, per GPU
  sim::SimTime residual = 0;  ///< last packet's local-partition pass
  std::uint64_t matches = 0;
  std::uint64_t checksum = 0;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  std::uint64_t shuffled_bytes = 0;
  std::uint64_t uncompressed_bytes = 0;
};

/// When a join's packets landed (absolute simulated time), fed by
/// MgJoin::NoteArrival from the engine's deliver callback.
struct JoinArrivals {
  explicit JoinArrivals(std::size_t gpus = 0) : last_arrival(gpus, 0) {}
  std::vector<sim::SimTime> last_arrival;  ///< per dense GPU; 0 = none
  sim::SimTime last_delivery = 0;
};

/// The per-GPU dependency chain of one admitted join (absolute times).
struct JoinCompletion {
  std::vector<sim::SimTime> probe_start;  ///< per dense GPU
  sim::SimTime dist_end = 0;
  sim::SimTime join_end = 0;
  /// The same chain over a zero-cost network.
  sim::SimTime nodist_end = 0;
};

/// \brief The MG-Join executor: histogram generation, global
/// partitioning (assignment + distribution), local partitioning, probe.
///
/// Functional results (matches, checksum) are computed on the real
/// tuples and are independent of the timing model; simulated times come
/// from the kernel cost models and the network simulation.
///
/// \code
///   auto topo = topo::MakeDgx1V();
///   MgJoin join(topo.get(), topo::FirstNGpus(8), MgJoinOptions{});
///   auto [r, s] = data::MakeJoinInput({.tuples_per_relation = 1 << 22,
///                                      .num_gpus = 8});
///   Result<JoinResult> res = join.Execute(r, s);
/// \endcode
class MgJoin {
 public:
  MgJoin(const topo::Topology* topo, std::vector<int> gpus,
         MgJoinOptions options);

  /// Runs the join. `r` and `s` must have one shard per participating
  /// GPU (dense order).
  Result<JoinResult> Execute(const data::DistRelation& r,
                             const data::DistRelation& s) const;

  /// \name The pieces of Execute, for callers that put several joins on
  /// one fabric (svc::QueryScheduler).
  ///@{
  /// Host phases: histogram, assignment, partition-kernel times, the
  /// functional shuffle and the functional local join.
  Result<PreparedJoin> Prepare(const data::DistRelation& r,
                               const data::DistRelation& s) const;
  /// Sets `f`'s availability and generation rate for a join admitted at
  /// `admit_at`: streamed out of the partition kernel with `overlap`,
  /// in bulk after it otherwise.
  void TimeFlow(const PreparedJoin& p, sim::SimTime admit_at,
                net::Flow* f) const;
  /// Records one delivered packet of the join into `a`.
  void NoteArrival(const net::Packet& packet, sim::SimTime when,
                   JoinArrivals* a) const;
  /// Runs timed `flows` alone on a fresh fabric configured by `options`,
  /// recording their arrivals into `a`.
  net::TransferStats Distribute(const std::vector<net::Flow>& flows,
                                const net::TransferOptions& options,
                                JoinArrivals* a) const;
  /// The per-GPU chain local partition -> probe of a join admitted at
  /// `admit_at` whose packets arrived as `a` records.
  JoinCompletion Complete(const PreparedJoin& p, sim::SimTime admit_at,
                          const JoinArrivals& a) const;
  ///@}

  const MgJoinOptions& options() const { return options_; }
  const std::vector<int>& gpus() const { return gpus_; }

 private:
  const topo::Topology* topo_;
  std::vector<int> gpus_;
  std::vector<int> dense_;  ///< topology GPU id -> index in gpus_
  MgJoinOptions options_;
};

}  // namespace mgjoin::join

#endif  // MGJOIN_JOIN_MG_JOIN_H_
