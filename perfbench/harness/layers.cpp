#include "harness/layers.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <vector>

#include "src/core/bridge_block.hpp"
#include "src/disk/disk.hpp"
#include "src/efs/efs.hpp"
#include "src/efs/layout.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/obs_json.hpp"

namespace perfbench {
namespace {

namespace efs = bridge::efs;
namespace obs = bridge::obs;

/// BridgeApi classes reported per op (core.op.<class>.*): every class some
/// workload issues.
constexpr std::string_view kOpClasses[] = {
    "create",        "remove",        "remove_many",      "open",
    "seq_read",      "seq_write",     "random_read",      "random_write",
    "seq_read_many", "random_read_many", "parallel_open", "parallel_read",
    "rename",        "list",          "get_info",
};

obs::JsonValue parse_metrics(core::BridgeInstance& inst) {
  obs::JsonValue doc;
  if (auto st = obs::parse_json(inst.metrics_json(), doc); !st.is_ok()) {
    std::fprintf(stderr, "perfbench: metrics_json: %s\n",
                 st.to_string().c_str());
    std::exit(3);
  }
  return doc;
}

bool matches(std::string_view name, std::string_view prefix,
             std::string_view suffix) {
  return name.size() >= prefix.size() + suffix.size() &&
         name.substr(0, prefix.size()) == prefix &&
         name.substr(name.size() - suffix.size()) == suffix;
}

/// Per-node values of the counters named <prefix>N<suffix>, end - begin.
std::vector<double> counter_deltas(const obs::JsonValue& doc,
                                   const std::map<std::string, double>& begin,
                                   std::string_view prefix,
                                   std::string_view suffix) {
  std::vector<double> out;
  const obs::JsonValue* counters = doc.find("counters");
  if (counters == nullptr) return out;
  for (const auto& [name, value] : counters->object) {
    if (!matches(name, prefix, suffix)) continue;
    auto it = begin.find(name);
    out.push_back(value.num_or(0) - (it == begin.end() ? 0 : it->second));
  }
  return out;
}

double sum(const std::vector<double>& v) {
  double total = 0;
  for (double x : v) total += x;
  return total;
}

/// All histograms named <prefix>N<suffix>, merged bucket-wise.
obs::Histogram merged(core::BridgeInstance& inst, const obs::JsonValue& doc,
                      std::string_view prefix, std::string_view suffix) {
  obs::Histogram out = obs::Histogram::from_buckets({}, 0, 0);
  const obs::JsonValue* hists = doc.find("histograms");
  if (hists == nullptr) return out;
  for (const auto& [name, value] : hists->object) {
    if (!matches(name, prefix, suffix)) continue;
    if (const auto* h = inst.runtime().metrics().find_histogram(name)) {
      out.merge(*h);
    }
  }
  return out;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Median host time per call of `fn`, in ns, over several batches.
template <typename Fn>
double ns_per_call(std::uint32_t calls_per_batch, Fn&& fn) {
  std::vector<double> batches;
  for (int b = 0; b < 7; ++b) {
    auto t0 = HostClock::now();
    for (std::uint32_t i = 0; i < calls_per_batch; ++i) fn(i);
    batches.push_back(seconds_since(t0) * 1e9 / calls_per_batch);
  }
  std::sort(batches.begin(), batches.end());
  return batches[batches.size() / 2];
}

// EfsCore's read/write still take a disk-address hint that the extent map
// ignores; call through either signature.
template <typename Core>
auto efs_write(Core& efs, sim::Context& ctx, efs::FileId id,
               std::uint32_t block_no, std::span<const std::byte> data) {
  if constexpr (requires {
                  efs.write(ctx, id, block_no, data, efs::kNilAddr);
                }) {
    return efs.write(ctx, id, block_no, data, efs::kNilAddr);
  } else {
    return efs.write(ctx, id, block_no, data);
  }
}

template <typename Core>
auto efs_read(Core& efs, sim::Context& ctx, efs::FileId id,
              std::uint32_t block_no) {
  if constexpr (requires { efs.read(ctx, id, block_no, efs::kNilAddr); }) {
    return efs.read(ctx, id, block_no, efs::kNilAddr);
  } else {
    return efs.read(ctx, id, block_no);
  }
}

/// Host cost of EfsCore appends and reads on a SimDisk of the workload's
/// size, driven from one simulated process.
void probe_efs_core(const ProbeShape& shape, LayerValues& out) {
  constexpr std::uint32_t kBlocks = 512;
  bridge::disk::Geometry geometry;
  geometry.blocks_per_track = 4;
  geometry.num_tracks = (shape.disk_blocks + 3) / 4;
  std::vector<double> write_us, read_us;
  for (int rep = 0; rep < 5; ++rep) {
    sim::Runtime rt(1);
    bridge::disk::SimDisk dev(geometry, bridge::disk::LatencyModel{});
    efs::EfsCore efs(dev, efs::EfsConfig{});
    efs.format();
    bool ok = true;
    rt.spawn(0, "efs-probe", [&](sim::Context& ctx) {
      std::vector<std::byte> block(efs::kEfsDataBytes, std::byte{0x5a});
      ok = efs.create(ctx, 7).is_ok();
      auto t0 = HostClock::now();
      for (std::uint32_t i = 0; ok && i < kBlocks; ++i) {
        ok = efs_write(efs, ctx, 7, i, block).is_ok();
      }
      write_us.push_back(seconds_since(t0) * 1e6 / kBlocks);
      t0 = HostClock::now();
      for (std::uint32_t i = 0; ok && i < kBlocks; ++i) {
        ok = efs_read(efs, ctx, 7, i).is_ok();
      }
      read_us.push_back(seconds_since(t0) * 1e6 / kBlocks);
    });
    rt.run();
    if (!ok) {
      std::fprintf(stderr, "perfbench: EfsCore probe failed\n");
      std::exit(3);
    }
  }
  std::sort(write_us.begin(), write_us.end());
  std::sort(read_us.begin(), read_us.end());
  out["efs.host_us_per_write"] = write_us[write_us.size() / 2];
  out["efs.host_us_per_read"] = read_us[read_us.size() / 2];
}

}  // namespace

void LayerWindow::begin(core::BridgeInstance& inst) {
  obs::JsonValue doc = parse_metrics(inst);
  counters_.clear();
  if (const auto* counters = doc.find("counters")) {
    for (const auto& [name, value] : counters->object) {
      counters_[name] = value.num_or(0);
    }
  }
  if (const auto* hists = doc.find("histograms")) {
    for (const auto& [name, value] : hists->object) {
      inst.runtime().metrics().histogram(name).reset();
    }
  }
  events_ = inst.runtime().scheduler().stats().events_dispatched;
  start_us_ = inst.runtime().now().us();
}

void LayerWindow::end(core::BridgeInstance& inst, LayerValues& out) const {
  obs::JsonValue doc = parse_metrics(inst);
  const double window_us =
      static_cast<double>(inst.runtime().now().us() - start_us_);
  auto delta = [&](std::string_view prefix, std::string_view suffix) {
    return counter_deltas(doc, counters_, prefix, suffix);
  };

  out["sim.events"] = static_cast<double>(
      inst.runtime().scheduler().stats().events_dispatched - events_);
  out["sim.net_msgs"] = sum(delta("net.", "_messages"));
  out["sim.net_bytes"] = sum(delta("net.", "_bytes"));

  auto reads = delta("disk.n", ".block_reads");
  auto writes = delta("disk.n", ".block_writes");
  auto busy = delta("disk.n", ".busy_us");
  out["disk.accesses"] = sum(delta("disk.n", ".positioning_ops"));
  out["disk.blocks_read"] = sum(reads);
  out["disk.blocks_written"] = sum(writes);
  double busy_max = 0;
  for (double b : busy) busy_max = std::max(busy_max, b);
  out["disk.busy_share_max"] = ratio(busy_max, window_us);
  out["disk.busy_share_mean"] =
      ratio(sum(busy), window_us * static_cast<double>(busy.size()));
  // Every block a disk moves costs exactly one transfer_per_block; the rest
  // of its busy time is positioning (access latency, seeks, track switches).
  const double xfer_us =
      (sum(reads) + sum(writes)) *
      static_cast<double>(inst.config().disk_latency.transfer_per_block.us());
  out["disk.xfer_ms"] = xfer_us / 1e3;
  out["disk.pos_ms"] = (sum(busy) - xfer_us) / 1e3;
  out["disk.sched_reordered"] = sum(delta("sched.n", ".reordered"));
  out["disk.sched_coalesced"] = sum(delta("sched.n", ".coalesced"));

  const double hits = sum(delta("cache.n", ".hits"));
  const double misses = sum(delta("cache.n", ".misses"));
  out["efs.cache_hit_rate"] = ratio(hits, hits + misses);
  out["efs.cache_evictions"] = sum(delta("cache.n", "_evictions"));
  out["efs.readahead_tracks"] = sum(delta("efs.n", ".deep_readahead_tracks"));
  out["efs.extent_lookups"] = sum(delta("efs.n", ".extent_lookups"));
  obs::Histogram lfs_queue = merged(inst, doc, "lfs.n", ".queue_us");
  obs::Histogram lfs_svc = merged(inst, doc, "lfs.n", ".service_us");
  out["efs.queue_ms_p50"] = static_cast<double>(lfs_queue.p50()) / 1e3;
  out["efs.queue_ms_p99"] = static_cast<double>(lfs_queue.p99()) / 1e3;
  out["efs.svc_ms_p50"] = static_cast<double>(lfs_svc.p50()) / 1e3;
  out["efs.svc_ms_p99"] = static_cast<double>(lfs_svc.p99()) / 1e3;

  obs::Histogram bridge_queue = merged(inst, doc, "bridge.n", ".queue_us");
  obs::Histogram bridge_svc = merged(inst, doc, "bridge.n", ".service_us");
  out["core.busy_share"] = ratio(
      static_cast<double>(bridge_svc.sum()),
      window_us * static_cast<double>(inst.num_servers()));
  out["core.queue_ms_p50"] = static_cast<double>(bridge_queue.p50()) / 1e3;
  out["core.queue_ms_p99"] = static_cast<double>(bridge_queue.p99()) / 1e3;
  out["core.svc_ms_p50"] = static_cast<double>(bridge_svc.p50()) / 1e3;
  out["core.svc_ms_p99"] = static_cast<double>(bridge_svc.p99()) / 1e3;
  out["core.lfs_msgs_per_req"] =
      ratio(static_cast<double>(lfs_svc.count()),
            sum(delta("bridge.n", ".requests")));
}

double percentile_ms(std::vector<std::int64_t> values_us, double q) {
  if (values_us.empty()) return 0;
  std::sort(values_us.begin(), values_us.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values_us.size())));
  rank = std::clamp<std::size_t>(rank, 1, values_us.size());
  return static_cast<double>(values_us[rank - 1]) / 1e3;
}

void add_span_layers(const RoundResult& round, LayerValues& out) {
  double create_us = 0;
  for (std::string_view op : kOpClasses) {
    std::vector<std::int64_t> us;
    for (const OpSpan& s : round.spans) {
      if (s.op == op) us.push_back(s.v_us());
    }
    if (op == "create") {
      for (std::int64_t v : us) create_us += static_cast<double>(v);
      out["core.create_ms_p50"] = percentile_ms(us, 0.5);
    }
    std::string prefix = "core.op." + std::string(op);
    out[prefix + ".count"] = static_cast<double>(us.size());
    out[prefix + ".ms_p50"] = percentile_ms(us, 0.5);
    out[prefix + ".ms_p99"] = percentile_ms(us, 0.99);
  }
  out["core.create_share"] = ratio(create_us / 1e6, round.virt_s);
}

void run_probes(const ProbeShape& shape, LayerValues& out) {
  std::size_t sink = 0;
  out["util.serde_ns_per_msg"] =
      ns_per_call(2000, [&](std::uint32_t) {
        sink += shape.serde_roundtrip();
      });

  efs::BlockBitmap bitmap;
  const std::uint32_t data_start = 64;
  bitmap.reset(shape.disk_blocks, data_start);
  const auto used = static_cast<std::uint32_t>(
      shape.bitmap_fill * static_cast<double>(shape.disk_blocks - data_start));
  for (std::uint32_t a = 0; a < used; ++a) bitmap.set(data_start + a);
  out["efs.bitmap_encode_ns"] = ns_per_call(2000, [&](std::uint32_t) {
    sink += bitmap.encode_block(0).size();
  });

  core::BridgeBlockHeader header;
  header.file_id = 1000;
  header.width = 16;
  std::vector<std::byte> user(efs::kUserDataBytes, std::byte{0x3c});
  std::vector<std::byte> wrapped;
  out["core.wrap_ns"] = ns_per_call(20000, [&](std::uint32_t i) {
    header.global_block_no = i;
    auto block = core::wrap_block(header, user);
    if (block.is_ok()) wrapped = std::move(block).value();
  });
  out["core.unwrap_ns"] = ns_per_call(20000, [&](std::uint32_t) {
    auto block = core::unwrap_block(wrapped);
    if (block.is_ok()) sink += block.value().user_data.size();
  });
  if (sink == 0) std::fprintf(stderr, "perfbench: probes produced nothing\n");

  probe_efs_core(shape, out);
}

}  // namespace perfbench
