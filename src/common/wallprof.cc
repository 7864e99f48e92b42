#include "common/wallprof.h"

namespace mgjoin {

WallProfiler& WallProfiler::Global() {
  // Never destroyed: other function-local statics (the bench report)
  // read it from their own destructors at exit.
  static WallProfiler* const prof = new WallProfiler;
  return *prof;
}

void WallProfiler::Add(const std::string& phase, double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  seconds_[phase] += seconds;
}

std::vector<std::pair<std::string, double>> WallProfiler::Phases() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {seconds_.begin(), seconds_.end()};
}

double WallProfiler::TotalSeconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0.0;
  for (const auto& [_, s] : seconds_) total += s;
  return total;
}

void WallProfiler::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  seconds_.clear();
}

}  // namespace mgjoin
