// mgj_perfbench: the end-to-end benchmark driver (see ../README.md).
//
//   mgj_perfbench --workload paper_join|host_join|serve_fair --seed N
//                 --seconds S --trace 0|1 [--spans FILE]
//
// --trace 0 times the system call with tracing off and prints every
// end-to-end metric; --trace 1 runs the traced composition and prints
// every per-layer metric (and writes the span log to --spans). The last
// line of stdout is one JSON object: correct, attempted, failed,
// metrics. Every run is checked against the ReferenceJoin oracle.
//
// All output is written explicitly before main returns; the driver owns
// no static that outlives main.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common/thread_pool.h"
#include "driver/spans.h"
#include "driver/workloads.h"

namespace {

// Environment the library or the repo's bench helpers read, which would
// silently change what is measured: the host thread count, the parallel
// event core, fault injection and the telemetry interval. The driver
// pins each of them explicitly instead.
constexpr const char* kPinnedEnv[] = {"MGJ_THREADS", "MGJ_SIM_THREADS",
                                      "MGJ_FAULTS", "MGJ_SAMPLE_EVERY"};

// Host threads: at most 4, never more than the machine has.
constexpr int kMaxHostThreads = 4;

int Usage(const char* msg) {
  std::fprintf(stderr,
               "mgj_perfbench: %s\nusage: mgj_perfbench --workload "
               "paper_join|host_join|serve_fair --seed N --seconds S "
               "--trace 0|1 [--spans FILE]\n",
               msg);
  return 2;
}

std::string JsonLine(const perfbench::RunOutcome& out) {
  std::string s = "{\"correct\": ";
  s += out.failed == 0 ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(out.attempted);
  s += ", \"failed\": " + std::to_string(out.failed);
  s += ", \"metrics\": {";
  char buf[256];
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const perfbench::Metric& m = out.metrics[i];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(), m.value,
                  m.unit.c_str());
    s += buf;
  }
  return s + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  int trace = -1;
  bool have_seed = false;
  std::string spans_path;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      cfg.workload = v;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(v, &end, 10);
      have_seed = *v != '\0' && *end == '\0';
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(cfg.seconds > 0)) return Usage("bad --seconds");
    } else if (flag == "--trace") {
      trace = std::strcmp(v, "0") == 0 ? 0 : std::strcmp(v, "1") == 0 ? 1 : -1;
    } else if (flag == "--spans") {
      spans_path = v;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!perfbench::IsWorkload(cfg.workload)) return Usage("bad --workload");
  if (!have_seed) return Usage("bad --seed");
  if (trace < 0) return Usage("--trace must be 0 or 1");

  for (const char* name : kPinnedEnv) {
    if (std::getenv(name) != nullptr) {
      std::fprintf(stderr, "mgj_perfbench: ignoring %s (pinned)\n", name);
      unsetenv(name);
    }
  }
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  cfg.host_threads = static_cast<int>(
      std::min<unsigned>(hw, static_cast<unsigned>(kMaxHostThreads)));
  mgjoin::ThreadPool::SetDefaultThreads(
      static_cast<std::size_t>(cfg.host_threads));

  perfbench::SpanLog spans;
  const perfbench::RunOutcome out = trace == 0
                                        ? perfbench::RunTimed(cfg)
                                        : perfbench::RunTraced(cfg, &spans);

  std::printf("workload %s  seed %llu  host threads %d  trace %d\n",
              cfg.workload.c_str(),
              static_cast<unsigned long long>(cfg.seed), cfg.host_threads,
              trace);
  for (const std::string& note : out.notes) {
    std::printf("  %s\n", note.c_str());
  }
  for (const perfbench::Metric& m : out.metrics) {
    std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  if (trace == 1 && !spans_path.empty()) {
    const std::string json = spans.ToJson();
    FILE* f = std::fopen(spans_path.c_str(), "w");
    bool ok = f != nullptr;
    if (ok) {
      ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
      ok = std::fclose(f) == 0 && ok;
    }
    if (!ok) {
      std::fprintf(stderr, "mgj_perfbench: cannot write %s\n",
                   spans_path.c_str());
      return 1;
    }
  }
  std::printf("%s\n", JsonLine(out).c_str());
  std::fflush(stdout);
  return 0;
}
