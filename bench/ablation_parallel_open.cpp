// Ablation A2: the parallel-open view and virtual parallelism (§4.1, §6).
//
// "The parallel-open access method offers true parallelism up to the
// interleaving breadth of the Bridge file or the bandwidth of interprocessor
// communication, whichever is least.  It also offers virtual parallelism to
// any reasonable degree."  And: "specifying too many workers ... cannot
// cause incorrect results, but it may lead to unexpected performance" (the
// lock-step rounds).
//
// Sweep the worker count t on a fixed p-LFS machine and measure whole-file
// parallel-read time; t = 1 degenerates to the naive interface's behaviour.
#include <cstdio>
#include <utility>
#include <vector>

#include "bench/bench_util.hpp"

namespace bridge::bench {
namespace {

double measure(std::uint32_t p, std::uint32_t t, std::uint64_t records) {
  auto cfg = core::SystemConfig::paper_profile(
      p, static_cast<std::uint32_t>(records / p + records + 64));
  core::BridgeInstance inst(cfg);
  fill_random_file(inst, "f", records, 5);

  std::vector<sim::Address> workers(t);
  for (std::uint32_t w = 0; w < t; ++w) {
    inst.runtime().spawn(w % p, "worker" + std::to_string(w),
                         [&workers, w](sim::Context& ctx) {
                           core::ParallelWorker worker(ctx);
                           workers[w] = worker.address();
                           while (!worker.next_block().eof) {
                           }
                         });
  }
  double elapsed = 0;
  inst.run_client("controller", [&](sim::Context& ctx,
                                    core::BridgeClient& client) {
    ctx.sleep(sim::msec(1));
    auto open = client.open("f");
    if (!open.is_ok()) return;
    auto job = client.parallel_open(open.value().session, workers);
    if (!job.is_ok()) return;
    auto start = ctx.now();
    while (true) {
      auto resp = client.parallel_read(job.value());
      if (!resp.is_ok() || resp.value().eof) break;
    }
    elapsed = (ctx.now() - start).sec();
  });
  inst.run();
  return elapsed;
}

}  // namespace
}  // namespace bridge::bench

int main(int argc, char** argv) {
  using namespace bridge::bench;
  std::uint64_t records = flag_value(argc, argv, "records", 512);
  std::uint32_t p = static_cast<std::uint32_t>(flag_value(argc, argv, "p", 8));

  print_header("Ablation A2: parallel open - workers vs LFS count");
  std::printf("p = %u LFS nodes, %llu records; sweep worker count t\n\n", p,
              static_cast<unsigned long long>(records));
  std::printf("%4s | %10s | %10s | %9s | %s\n", "t", "time", "rec/sec",
              "speedup", "regime");
  std::printf("-----+------------+------------+-----------+------------------\n");
  double base = 0;
  std::vector<std::pair<std::uint32_t, double>> rows;  // (t, rec/sec)
  bool ok = true;
  for (std::uint32_t t : {1u, 2u, 4u, 8u, 16u, 32u}) {
    double sec = measure(p, t, records);
    if (t == 1) base = sec;
    const char* regime = t < p ? "under-subscribed"
                         : t == p ? "matched (t = p)"
                                  : "virtual parallelism";
    std::printf("%4u | %8.2f s | %10.0f | %8.2fx | %s\n", t, sec,
                static_cast<double>(records) / sec, base / sec, regime);
    if (sec <= 0) {
      std::printf("FAIL: the parallel read at t=%u did not finish\n", t);
      ok = false;
    }
    rows.emplace_back(t, static_cast<double>(records) / sec);
  }
  // Gate: rec/sec rises at every step up to t = p, and each doubling past p
  // gains less than the doubling into t = p did.
  std::size_t at_p = 0;  // last row with t <= p
  for (std::size_t i = 1; i < rows.size() && rows[i].first <= p; ++i) {
    at_p = i;
    if (rows[i].second <= rows[i - 1].second) {
      std::printf("FAIL: rec/sec does not rise from t=%u to t=%u\n",
                  rows[i - 1].first, rows[i].first);
      ok = false;
    }
  }
  if (at_p > 0) {
    double into_p = rows[at_p].second / rows[at_p - 1].second;
    for (std::size_t i = at_p + 1; i < rows.size(); ++i) {
      double gain = rows[i].second / rows[i - 1].second;
      if (gain >= into_p) {
        std::printf("FAIL: t=%u -> t=%u gains x%.2f, not less than the x%.2f "
                    "of t=%u -> t=%u\n",
                    rows[i - 1].first, rows[i].first, gain, into_p,
                    rows[at_p - 1].first, rows[at_p].first);
        ok = false;
      }
    }
  }
  std::printf(
      "\nshape checks: throughput grows until t = p, then flattens - extra\n"
      "workers only add lock-step rounds over the same p disks (the hidden\n"
      "serialization of section 4.1).  Exits 1 unless rec/sec rises at every\n"
      "step up to t = p and each doubling past p gains less than the doubling\n"
      "into t = p.\n");
  return ok ? 0 : 1;
}
