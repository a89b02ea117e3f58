// Ablation A10: recovery engine — rebuilding a failed LFS.
//
// §6 stops at "replication helps, but only at very high cost"; it never asks
// how long repair takes.  This bench measures the recovery engine added with
// the parity/mirror extensions: after a single-LFS failure, every block the
// failed LFS held is re-derived from the survivors and written to the
// repaired disk.  The engine streams windows of local blocks — one kReadMany
// per surviving LFS, all in flight together, overlapped with the previous
// window's write — and this bench sweeps the window size: 1 block (one
// stripe per round trip), 4 (one track) and 32 (the default, 8 tracks).
// The bench exits nonzero if any row fails to read back intact, or if the
// one-block window is not the slowest of the three.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "src/core/replication.hpp"

namespace bridge::bench {
namespace {

using core::BridgeClient;
using core::BridgeInstance;

struct Numbers {
  std::uint64_t blocks = 0;         ///< data blocks the file holds
  std::uint64_t blocks_rebuilt = 0; ///< constituent blocks re-created
  double rebuild_ms = 0;            ///< wall-clock (virtual) rebuild time
  bool verified = false;            ///< every block read back correctly
};

/// Build a parity file of `records` blocks on a fresh p-LFS instance, fail
/// LFS `victim`, bring the disk back, and run the recovery engine.
Numbers run(std::uint32_t p, std::uint64_t records, std::uint32_t window) {
  auto cfg = core::SystemConfig::paper_profile(
      p, static_cast<std::uint32_t>(4 * records / p + 128));
  BridgeInstance inst(cfg);
  Numbers out;

  inst.run_client("writer", [&](sim::Context& ctx, BridgeClient& client) {
    auto parity = core::ParityFile::open(ctx, client, "pfile");
    if (!parity.is_ok()) return;
    std::uint32_t width = parity.value().data_width();
    std::uint64_t written = 0;
    while (written + width <= records) {
      std::vector<std::vector<std::byte>> stripe;
      for (std::uint32_t i = 0; i < width; ++i) {
        stripe.push_back(keyed_record(written + i));
      }
      if (!parity.value().append_stripe(stripe).is_ok()) return;
      written += width;
    }
    out.blocks = written;
  });
  inst.run();

  // The failure: LFS 1 dies, then comes back blank-for-our-purposes (the
  // rebuild discards whatever survived) and the engine restores it.
  const std::uint32_t victim = 1;
  inst.lfs(victim).disk().fail();
  inst.lfs(victim).disk().repair();
  inst.run_client("rebuilder", [&](sim::Context& ctx, BridgeClient& client) {
    auto parity = core::ParityFile::open(ctx, client, "pfile");
    if (!parity.is_ok()) return;
    core::RebuildOptions options;
    options.window_blocks = window;
    auto t0 = ctx.now();
    auto report = parity.value().rebuild_lfs(victim, options);
    if (!report.is_ok()) {
      std::fprintf(stderr, "rebuild failed: %s\n",
                   report.status().to_string().c_str());
      return;
    }
    out.rebuild_ms = (ctx.now() - t0).ms();
    out.blocks_rebuilt = report.value().blocks_rebuilt;
  });
  inst.run();

  // Read everything back through the normal (non-degraded) path.
  inst.run_client("verifier", [&](sim::Context& ctx, BridgeClient& client) {
    auto parity = core::ParityFile::open(ctx, client, "pfile");
    if (!parity.is_ok()) return;
    for (std::uint64_t i = 0; i < out.blocks; ++i) {
      bool reconstructed = false;
      auto r = parity.value().read(i, &reconstructed);
      if (!r.is_ok() || reconstructed || r.value() != keyed_record(i)) return;
    }
    out.verified = true;
  });
  inst.run();
  return out;
}

}  // namespace
}  // namespace bridge::bench

int main(int argc, char** argv) {
  using namespace bridge::bench;
  std::uint64_t records = flag_value(argc, argv, "records", 360);
  JsonReporter json(argc, argv);
  constexpr std::uint32_t kWindows[] = {1, 4, 32};

  print_header("Ablation A10: recovery engine (rebuild a failed LFS)");
  std::printf("%llu data blocks per run; LFS 1 fails, is repaired, and is\n"
              "rebuilt from the surviving stripes at each window size\n\n",
              static_cast<unsigned long long>(records));
  std::printf("   p   blocks  rebuilt    w=1 ms    w=4 ms   w=32 ms   1->32\n");
  std::printf("  --   ------  -------   -------   -------   -------   -----\n");
  bool all_ok = true;
  for (std::uint32_t p : {4u, 8u, 16u}) {
    Numbers rows[3];
    bool verified = true;
    for (std::size_t w = 0; w < 3; ++w) {
      rows[w] = run(p, records, kWindows[w]);
      verified = verified && rows[w].verified &&
                 rows[w].blocks_rebuilt == rows[0].blocks_rebuilt;
    }
    bool shape_ok = rows[0].rebuild_ms > rows[1].rebuild_ms &&
                    rows[0].rebuild_ms > rows[2].rebuild_ms;
    all_ok = all_ok && verified && shape_ok;
    double speedup =
        rows[2].rebuild_ms > 0 ? rows[0].rebuild_ms / rows[2].rebuild_ms : 0.0;
    std::printf("  %2u   %6llu  %7llu   %7.1f   %7.1f   %7.1f   %4.2fx%s\n", p,
                static_cast<unsigned long long>(rows[0].blocks),
                static_cast<unsigned long long>(rows[0].blocks_rebuilt),
                rows[0].rebuild_ms, rows[1].rebuild_ms, rows[2].rebuild_ms,
                speedup, !verified ? "  [VERIFY FAILED]"
                                   : !shape_ok ? "  [SHAPE FAILED]" : "");
    json.emit("ablation_recovery",
              {{"p", p},
               {"blocks", static_cast<double>(rows[0].blocks)},
               {"blocks_rebuilt", static_cast<double>(rows[0].blocks_rebuilt)},
               {"window1_ms", rows[0].rebuild_ms},
               {"window4_ms", rows[1].rebuild_ms},
               {"window32_ms", rows[2].rebuild_ms},
               {"speedup", speedup},
               {"verified", verified ? 1.0 : 0.0}});
  }
  std::printf(
      "\nshape checks: w=1 is the slowest at every p (a round trip and a\n"
      "single-block write per stripe).  Past that, the first window's\n"
      "reads and the last window's write run without overlap, so a window\n"
      "that is a large share of the lost blocks can lose to a smaller one\n"
      "(w=4 vs w=32 at p=4).  Every window size must leave a disk image\n"
      "every block reads back from.\n");
  if (!all_ok) {
    std::fputs("ablation_recovery: read-back or shape check failed\n",
               stderr);
    return 1;
  }
  return 0;
}
