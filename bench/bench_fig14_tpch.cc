// Figure 14: TPC-H queries Q3/Q5/Q10/Q12/Q14/Q19 at scale factor 250 on
// 8 GPUs: OmniSci CPU, OmniSci GPU (shared-nothing; NA where its
// per-GPU footprint exceeds device memory), DPRJ-backed queries and
// MG-Join-backed queries.

#include "bench/bench_util.h"
#include "exec/engine.h"
#include "tpch/dbgen.h"
#include "tpch/omnisci_model.h"
#include "tpch/queries.h"

using namespace mgjoin;
using namespace mgjoin::bench;

int main() {
  std::printf("# Figure 14 — TPC-H SF 250 query times (s), 8 GPUs\n");
  BenchReport& rep = BenchReport::Instance();
  rep.Begin("fig14_tpch", "Figure 14",
            "TPC-H SF 250 query times (s), 8 GPUs");
  rep.Meta("OmnisciCPU", "s", false);
  rep.Meta("OmnisciGPU", "s", false);
  rep.Meta("DPRJ", "s", false);
  rep.Meta("MG-Join", "s", false);
  const double kFuncSf = 0.05;
  const double kVirtualSf = 250.0;
  auto topo = topo::MakeDgx1V();
  const auto gpus = topo::FirstNGpus(8);
  const tpch::TpchData db = tpch::GenerateTpch(kFuncSf, 8);

  std::printf("%-6s %-12s %-12s %-10s %-10s %-12s\n", "query",
              "OmnisciCPU", "OmnisciGPU", "DPRJ", "MG-Join", "check");
  for (const auto& [name, fn] : tpch::AllQueries()) {
    exec::EngineOptions mg_opts, dprj_opts;
    mg_opts.join.virtual_scale = kVirtualSf / kFuncSf;
    dprj_opts.join = join::MgJoinOptions::Dprj();
    dprj_opts.join.virtual_scale = kVirtualSf / kFuncSf;
    // Only the registry (host wall phases): these runs are not digested
    // into the document, so a trace would only hold memory.
    mg_opts.join.transfer.obs.metrics = rep.metrics();
    dprj_opts.join.transfer.obs.metrics = rep.metrics();

    exec::Engine mg_eng(topo.get(), gpus, mg_opts);
    exec::Engine dprj_eng(topo.get(), gpus, dprj_opts);
    const tpch::QueryOutput mg = fn(mg_eng, db).ValueOrDie();
    const tpch::QueryOutput dprj = fn(dprj_eng, db).ValueOrDie();

    const auto cpu =
        tpch::EstimateOmnisci(mg.ops, tpch::OmnisciMode::kCpu, 8);
    const auto gpu =
        tpch::EstimateOmnisci(mg.ops, tpch::OmnisciMode::kGpu, 8);
    char gpu_cell[32];
    if (gpu.supported) {
      std::snprintf(gpu_cell, sizeof(gpu_cell), "%.2f",
                    sim::ToSeconds(gpu.time));
    } else {
      std::snprintf(gpu_cell, sizeof(gpu_cell), "NA");
    }
    std::printf("%-6s %-12.1f %-12s %-10.2f %-10.2f %-12.4g\n",
                name.c_str(), sim::ToSeconds(cpu.time), gpu_cell,
                sim::ToSeconds(dprj.time), sim::ToSeconds(mg.time),
                mg.value);
    rep.Point("OmnisciCPU", name, sim::ToSeconds(cpu.time));
    if (gpu.supported) {
      rep.Point("OmnisciGPU", name, sim::ToSeconds(gpu.time));
    }
    rep.Point("DPRJ", name, sim::ToSeconds(dprj.time));
    rep.Point("MG-Join", name, sim::ToSeconds(mg.time));
  }
  std::printf(
      "# paper shape: OmniSci GPU NA for Q3/Q5/Q10/Q12 at SF 250; "
      "MG-Join ~4.5x over OmniSci GPU and ~25x over OmniSci CPU\n");
  return 0;
}
