// Per-layer measurement from outside the program.
//
// Two sources: the program's own counters and latency histograms, read
// through BridgeInstance::metrics_json() at the edges of a timed phase, and
// probes that time single public functions (EfsCore on a SimDisk, the block
// bitmap encoder, Bridge block wrapping, serde) on inputs shaped like the
// workload's.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "harness/common.hpp"
#include "src/core/instance.hpp"

namespace perfbench {

using LayerValues = std::map<std::string, double>;

/// Registry state at the start of a timed phase.  begin() resets every
/// latency histogram, so at end() the histograms hold the timed phase only;
/// counters are cumulative and are reported as end - begin.
class LayerWindow {
 public:
  /// Call while the simulation is idle, right before the timed phase.
  void begin(core::BridgeInstance& inst);
  /// Call while the simulation is idle, right after the timed phase.  Adds
  /// the sim/disk/efs/core registry metrics to `out`.
  void end(core::BridgeInstance& inst, LayerValues& out) const;

 private:
  std::map<std::string, double> counters_;
  std::uint64_t events_ = 0;
  std::int64_t start_us_ = 0;
};

/// Virtual latency percentile (nearest rank) of `values_us`, in ms.
double percentile_ms(std::vector<std::int64_t> values_us, double q);

/// Span-derived core metrics: per-op-class latency/count and Create's share
/// of the timed phase.
void add_span_layers(const RoundResult& round, LayerValues& out);

/// Inputs for the probes, shaped like one workload's.
struct ProbeShape {
  std::uint32_t disk_blocks = 0;  ///< per-LFS disk capacity, blocks
  /// Allocated share of the data region, about where the workload ends.
  double bitmap_fill = 0;
  /// Encode and decode the workload's dominant message once; returns the
  /// encoded size (kept so the work cannot be optimized away).
  std::function<std::size_t()> serde_roundtrip;
};

/// Time the probes; adds util/efs/core probe metrics to `out`.
void run_probes(const ProbeShape& shape, LayerValues& out);

}  // namespace perfbench
