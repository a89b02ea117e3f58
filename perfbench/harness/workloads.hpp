// The benchmark's workloads.  Each round boots a fresh machine, preloads its
// files (set-up), runs the timed phase through MeasuredApi-wrapped clients,
// and then checks every output.  A round is a pure function of the seed, so
// every virtual figure repeats exactly across rounds and runs.
#pragma once

#include <functional>
#include <string_view>
#include <vector>

#include "harness/common.hpp"
#include "harness/layers.hpp"

namespace perfbench {

struct Workload {
  std::string_view name;
  std::function<RoundResult(const RoundParams&)> run_round;
  std::function<ProbeShape(std::uint64_t seed)> probe_shape;
};

const std::vector<Workload>& workloads();

/// fig_speedup's p=64 copy and sort points, each on its own instance with
/// the bench's disk sizing, fill seeds and in-core size.  Prints the virtual
/// copy_s and sort_s; returns 0 iff they equal the checked-in bench rows.
int run_crosscheck();

}  // namespace perfbench
