// Ablation A9: removing the super-linear sort anomaly (§5.2).
//
// "In our implementation the constant for a local merge is higher than the
// constant for a global merge, with the net result that the sort tool as a
// whole displays super-linear speedup.  With a faster (e.g. multi-way) local
// merge, this anomaly should disappear."
//
// Two local-sort configurations, local-phase time vs p:
//   2-way  — the 1988 prototype's local merge
//   8-way  — multi-way merge: fewer passes over the same data
// The 1988 anomaly came from a chain walk per local-merge read.  The v2
// extent layout answers every read in one lookup, so that walk is gone and
// only the merge fan-in still moves the numbers.  Shape check (exit 1 on
// failure): the 8-way local phase is never slower than the 2-way one.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "src/tools/sort/sort_tool.hpp"

namespace bridge::bench {
namespace {

double local_phase_sec(std::uint32_t fanin, std::uint32_t p,
                       std::uint64_t records, std::uint32_t c) {
  auto cfg = core::SystemConfig::paper_profile(
      p, static_cast<std::uint32_t>(4 * records / p + 256));
  core::BridgeInstance inst(cfg);
  fill_random_file(inst, "input", records, 3 + p);
  double sec = -1;
  inst.run_client("sort", [&](sim::Context& ctx, core::BridgeClient& client) {
    tools::SortOptions options;
    options.tuning.in_core_records = c;
    options.tuning.local_merge_fanin = fanin;
    auto result = tools::run_sort_tool(ctx, client, "input", "out", options);
    if (result.is_ok()) sec = result.value().local_phase.sec();
  });
  inst.run();
  return sec;
}

}  // namespace
}  // namespace bridge::bench

int main(int argc, char** argv) {
  using namespace bridge::bench;
  std::uint64_t records = flag_value(argc, argv, "records", 2048);
  auto c = static_cast<std::uint32_t>(flag_value(argc, argv, "in-core", 64));

  print_header("Ablation A9: the super-linear sort anomaly and its cure");
  std::printf("%llu records, c = %u; local-phase time and 2->16 speedup\n"
              "(linear speedup over 8x more nodes would be 8x)\n\n",
              static_cast<unsigned long long>(records), c);
  std::printf("%-24s | %10s | %10s | %10s | %12s\n", "local merge variant",
              "p=2", "p=8", "p=16", "speedup 2->16");
  std::printf("-------------------------+------------+------------+"
              "------------+--------------\n");
  constexpr std::uint32_t kPs[] = {2, 8, 16};
  constexpr std::uint32_t kFanins[] = {2, 8};
  double sec[2][3] = {};
  for (std::size_t v = 0; v < 2; ++v) {
    for (std::size_t i = 0; i < 3; ++i) {
      sec[v][i] = local_phase_sec(kFanins[v], kPs[i], records, c);
    }
    std::printf("%-24s | %8.1f s | %8.1f s | %8.1f s | %11.1fx\n",
                v == 0 ? "2-way (1988)" : "8-way", sec[v][0], sec[v][1],
                sec[v][2], sec[v][0] / sec[v][2]);
  }
  bool ok = true;
  for (std::size_t i = 0; i < 3; ++i) {
    if (sec[0][i] < 0 || sec[1][i] < 0) {
      std::printf("FAIL: the sort at p=%u did not complete\n", kPs[i]);
      ok = false;
    } else if (sec[1][i] > sec[0][i]) {
      std::printf("FAIL: 8-way local phase at p=%u is %.1f s, slower than "
                  "2-way's %.1f s\n",
                  kPs[i], sec[1][i], sec[0][i]);
      ok = false;
    }
  }
  std::printf(
      "\nshape checks: the chain walk that made 1988 local merges\n"
      "anomalously expensive is gone at the layout level, which is the\n"
      "strong form of the section 5.2 prediction that 'with a faster (e.g.\n"
      "multi-way) local merge, this anomaly should disappear'.  Merge fan-in\n"
      "is the only lever left: 8-way trims passes over the same flat lookup\n"
      "cost, so it is never slower than 2-way.\n");
  return ok ? 0 : 1;
}
