// Stage-ledger tests: attribution bookkeeping, end-to-end stage invariants
// over a real workload, cross-server rename handoff instrumentation, and the
// acceptance check for the whole observability layer — an injected disk
// bottleneck must be localized by obs_report, with the added time attributed
// to the disk positioning stage rather than the queues.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/instance.hpp"
#include "src/obs/obs_json.hpp"
#include "src/obs/report.hpp"
#include "src/obs/stages.hpp"

namespace bridge::core {
namespace {

std::vector<std::byte> record(std::uint32_t tag) {
  std::vector<std::byte> data(efs::kUserDataBytes);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = std::byte(static_cast<std::uint8_t>(tag * 31 + i));
  }
  return data;
}

TEST(StageLedger, BeginChargeEndProducesRecordAndHistograms) {
  obs::MetricsRegistry registry;
  obs::StageLedger ledger(&registry);
  ASSERT_TRUE(ledger.enabled());

  std::uint64_t id = ledger.begin(/*pid=*/1, "Op", /*now_us=*/0);
  ASSERT_NE(id, 0u);
  EXPECT_EQ(ledger.active_request(1), id);
  // A nested begin on the same pid folds into the outer request.
  EXPECT_EQ(ledger.begin(1, "Nested", 5), 0u);

  ledger.charge(id, obs::Stage::kBridgeQueue, 10);
  ledger.charge(id, obs::Stage::kBridgeSvc, 60);
  ledger.charge_client_wait(1, 40);
  ledger.end(1, id, 100);

  EXPECT_EQ(ledger.completed(), 1u);
  EXPECT_EQ(ledger.active_request(1), 0u);
  ASSERT_EQ(ledger.slowest().size(), 1u);
  const obs::RequestRecord& r = ledger.slowest()[0];
  EXPECT_EQ(r.request_id, id);
  EXPECT_EQ(r.op, "Op");
  EXPECT_EQ(r.total_us, 100);
  EXPECT_EQ(r.stage_us[static_cast<int>(obs::Stage::kBridgeQueue)], 10);
  EXPECT_EQ(r.stage_us[static_cast<int>(obs::Stage::kBridgeSvc)], 60);
  EXPECT_EQ(r.stage_us[static_cast<int>(obs::Stage::kClientWait)], 40);

  const obs::Histogram* total = registry.find_histogram("op.Op.total_us");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->count(), 1u);
  EXPECT_EQ(total->sum(), 100u);
  const obs::Histogram* queue =
      registry.find_histogram("op.Op.bridge_queue_us");
  ASSERT_NE(queue, nullptr);
  EXPECT_EQ(queue->sum(), 10u);
  // Stages never charged emit no histogram at all.
  EXPECT_EQ(registry.find_histogram("op.Op.disk_pos_us"), nullptr);
}

TEST(StageLedger, ClientWaitOnlyChargesTheOriginator) {
  // A server that adopts the request (set_active around its handler) waits
  // on its OWN downstream; that time is measured by the bridge/lfs stages,
  // so charge_client_wait from a non-originator pid must be a no-op.
  obs::MetricsRegistry registry;
  obs::StageLedger ledger(&registry);
  std::uint64_t id = ledger.begin(/*pid=*/1, "Op", 0);
  ASSERT_NE(id, 0u);

  std::uint64_t prev = ledger.set_active(/*pid=*/2, id);
  EXPECT_EQ(prev, 0u);
  ledger.charge_client_wait(/*pid=*/2, 500);  // adopted: ignored
  ledger.charge_client_wait(/*pid=*/1, 70);   // originator: counted
  ledger.set_active(2, prev);
  ledger.end(1, id, 90);

  ASSERT_EQ(ledger.slowest().size(), 1u);
  EXPECT_EQ(
      ledger.slowest()[0].stage_us[static_cast<int>(obs::Stage::kClientWait)],
      70);
}

TEST(StageLedger, TopKIsBoundedAndSortedDeterministically) {
  obs::MetricsRegistry registry;
  obs::StageLedger ledger(&registry);
  ledger.set_top_k(2);
  for (std::int64_t total : {5, 10, 7, 10}) {
    std::uint64_t id = ledger.begin(1, "Op", 0);
    ledger.end(1, id, total);
  }
  ASSERT_EQ(ledger.slowest().size(), 2u);
  // total desc, then request id asc: the FIRST of the two 10us requests wins.
  EXPECT_EQ(ledger.slowest()[0].total_us, 10);
  EXPECT_EQ(ledger.slowest()[0].request_id, 2u);
  EXPECT_EQ(ledger.slowest()[1].total_us, 10);
  EXPECT_EQ(ledger.slowest()[1].request_id, 4u);
}

TEST(StageLedger, EndToEndStageInvariantsHold) {
  // Run a real workload and check the INCLUSIVE stage containment chain on
  // every recorded request: total >= bridge stages, bridge_svc >= LFS
  // stages, lfs_svc >= disk stages.
  auto cfg = SystemConfig::paper_profile(2, /*data_blocks_per_lfs=*/256);
  BridgeInstance inst(cfg);
  inst.run_client("c", [&](sim::Context&, BridgeClient& client) {
    ASSERT_TRUE(client.create("f").is_ok());
    auto open = client.open("f");
    ASSERT_TRUE(open.is_ok());
    for (std::uint32_t i = 0; i < 16; ++i) {
      ASSERT_TRUE(client.seq_write(open.value().session, record(i)).is_ok());
    }
    auto reopen = client.open("f");
    ASSERT_TRUE(reopen.is_ok());
    for (std::uint32_t i = 0; i < 16; ++i) {
      ASSERT_TRUE(client.seq_read(reopen.value().session).is_ok());
    }
  });
  inst.run();

  const obs::StageLedger& stages = inst.runtime().stages();
  EXPECT_EQ(stages.inflight(), 0u);
  EXPECT_GE(stages.completed(), 34u);  // create + 2 opens + 16 + 16
  ASSERT_FALSE(stages.slowest().empty());
  for (const obs::RequestRecord& r : stages.slowest()) {
    auto stage = [&](obs::Stage s) {
      return r.stage_us[static_cast<std::size_t>(s)];
    };
    EXPECT_GE(r.total_us, stage(obs::Stage::kBridgeSvc)) << r.op;
    EXPECT_GE(r.total_us,
              stage(obs::Stage::kBridgeQueue) + stage(obs::Stage::kBridgeSvc))
        << r.op;
    EXPECT_GE(stage(obs::Stage::kBridgeSvc),
              stage(obs::Stage::kLfsQueue) + stage(obs::Stage::kLfsSvc))
        << r.op;
    EXPECT_GE(stage(obs::Stage::kLfsSvc),
              stage(obs::Stage::kDiskPos) + stage(obs::Stage::kDiskXfer))
        << r.op;
    // client_wait is the whole round trip for a simple (non-composite) op.
    EXPECT_EQ(stage(obs::Stage::kClientWait), r.total_us) << r.op;
  }

  // The per-op breakdown histograms materialized for the ops we ran.
  auto& registry = inst.runtime().metrics();
  const obs::Histogram* writes =
      registry.find_histogram("op.SeqWrite.total_us");
  ASSERT_NE(writes, nullptr);
  EXPECT_EQ(writes->count(), 16u);
  const obs::Histogram* reads = registry.find_histogram("op.SeqRead.total_us");
  ASSERT_NE(reads, nullptr);
  EXPECT_EQ(reads->count(), 16u);
  ASSERT_NE(registry.find_histogram("op.Create.total_us"), nullptr);
}

/// Sum of `sum_us` over every op.*.<stage>_us histogram in a parsed obs doc.
double stage_total(const obs::JsonValue& doc, const std::string& stage) {
  const obs::JsonValue* hists = doc.find_path({"metrics", "histograms"});
  if (hists == nullptr) return 0;
  std::string suffix = "." + stage + "_us";
  double sum = 0;
  for (const auto& [name, h] : hists->object) {
    if (name.rfind("op.", 0) != 0) continue;
    if (name.size() <= suffix.size() ||
        name.substr(name.size() - suffix.size()) != suffix) {
      continue;
    }
    const obs::JsonValue* s = h.find("sum_us");
    if (s != nullptr) sum += s->num_or(0);
  }
  return sum;
}

/// Build the bottleneck workload; when `inflate_disk0`, disk 0's
/// distance-dependent seek cost is 10x the configured value.  Returns the
/// parsed obs document.
std::string bottleneck_run(bool inflate_disk0) {
  auto cfg = SystemConfig::paper_profile(2, /*data_blocks_per_lfs=*/512);
  cfg.disk_latency.seek_per_track = sim::usec(200);
  BridgeInstance inst(cfg);
  if (inflate_disk0) {
    disk::LatencyModel hot = inst.lfs(0).disk().latency();
    hot.seek_per_track = cfg.disk_latency.seek_per_track * std::int64_t{10};
    inst.lfs(0).disk().set_latency(hot);
  }
  inst.run_client("c", [&](sim::Context&, BridgeClient& client) {
    ASSERT_TRUE(client.create("f").is_ok());
    auto open = client.open("f");
    ASSERT_TRUE(open.is_ok());
    for (std::uint32_t i = 0; i < 256; ++i) {
      ASSERT_TRUE(client.seq_write(open.value().session, record(i)).is_ok());
    }
    // Scattered random reads: strides larger than the cache force misses,
    // and the track jumps make the seek cost visible on both disks.
    BridgeFileId id = open.value().meta.id;
    for (std::uint32_t i = 0; i < 96; ++i) {
      ASSERT_TRUE(client.random_read(id, (i * 61) % 256).is_ok());
    }
  });
  inst.run();
  return inst.obs_json();
}

TEST(StageLedger, InjectedDiskBottleneckIsLocalized) {
  std::string base_doc = bottleneck_run(/*inflate_disk0=*/false);
  std::string hot_doc = bottleneck_run(/*inflate_disk0=*/true);

  obs::JsonValue base, hot;
  ASSERT_TRUE(obs::parse_json(base_doc, base).is_ok());
  ASSERT_TRUE(obs::parse_json(hot_doc, hot).is_ok());

  // The report names the inflated disk as the top saturated component.
  std::string report = obs::render_report(hot, obs::ReportOptions{});
  EXPECT_NE(report.find("top saturated component: disk.n0"),
            std::string::npos)
      << report;

  // And the slow disk is visibly busier than its twin.
  const obs::JsonValue* u0 =
      hot.find_path({"metrics", "gauges", "disk.n0.utilization"});
  const obs::JsonValue* u1 =
      hot.find_path({"metrics", "gauges", "disk.n1.utilization"});
  ASSERT_NE(u0, nullptr);
  ASSERT_NE(u1, nullptr);
  EXPECT_GT(u0->num_or(0), u1->num_or(0));

  // The added latency lands in the disk positioning stage, not the queues:
  // most of the end-to-end growth is disk_pos, and the queue stages grow by
  // at most a sliver of it.
  double delta_total =
      stage_total(hot, "total") - stage_total(base, "total");
  double delta_pos =
      stage_total(hot, "disk_pos") - stage_total(base, "disk_pos");
  double delta_queues =
      (stage_total(hot, "bridge_queue") + stage_total(hot, "lfs_queue")) -
      (stage_total(base, "bridge_queue") + stage_total(base, "lfs_queue"));
  ASSERT_GT(delta_total, 0.0);
  EXPECT_GT(delta_pos, 0.5 * delta_total);
  EXPECT_LT(delta_queues, 0.25 * delta_total);
}

/// First name of the form `prefix<i>` whose directory home is `home`.
std::string name_with_home(const std::string& prefix, std::uint32_t home,
                           std::uint32_t k) {
  for (int i = 0;; ++i) {
    std::string name = prefix + std::to_string(i);
    if (directory_home(name, k) == home) return name;
  }
}

TEST(StageLedger, CrossServerRenameHandoffIsAttributed) {
  auto cfg = SystemConfig::paper_profile(4, 2048);
  cfg.num_bridge_servers = 2;
  BridgeInstance inst(cfg);
  inst.runtime().tracer().enable();
  inst.run_client("c", [&](sim::Context&, BridgeClient& client) {
    std::string from = name_with_home("hfrom", 0, 2);
    std::string to = name_with_home("hto", 1, 2);
    ASSERT_TRUE(client.create(from).is_ok());
    auto open = client.open(from);
    ASSERT_TRUE(open.is_ok());
    ASSERT_TRUE(client.seq_write(open.value().session, record(1)).is_ok());
    auto renamed = client.rename(from, to);
    ASSERT_TRUE(renamed.is_ok()) << renamed.status().to_string();
  });
  inst.run();
  ASSERT_EQ(inst.server(0).stats().renames_out, 1u);

  // The handoff interval landed in its own histogram ...
  const obs::Histogram* handoff =
      inst.runtime().metrics().find_histogram("rename.handoff_us");
  ASSERT_NE(handoff, nullptr);
  EXPECT_EQ(handoff->count(), 1u);
  EXPECT_GT(handoff->sum(), 0u);

  // ... in the Rename request's stage breakdown ...
  bool found = false;
  for (const obs::RequestRecord& r : inst.runtime().stages().slowest()) {
    if (r.op != "Rename") continue;
    found = true;
    std::int64_t parked =
        r.stage_us[static_cast<std::size_t>(obs::Stage::kRenameHandoff)];
    EXPECT_GT(parked, 0);
    EXPECT_LE(parked, r.total_us);
  }
  EXPECT_TRUE(found) << "rename request missing from the slowest list";

  // ... and as a span on the trace timeline.
  EXPECT_NE(
      inst.runtime().tracer().chrome_trace_json().find("rename.handoff"),
      std::string::npos);
}

TEST(StageLedger, FanOutsAcrossServersAreOneRequestEach) {
  auto cfg = SystemConfig::paper_profile(4, 2048);
  cfg.num_bridge_servers = 2;
  BridgeInstance inst(cfg);
  std::uint64_t before = 0;
  std::uint64_t after = 0;
  inst.run_client("c", [&](sim::Context&, BridgeClient& client) {
    std::string on0 = name_with_home("fan", 0, 2);
    std::string on1 = name_with_home("fan", 1, 2);
    ASSERT_TRUE(client.create(on0).is_ok());
    ASSERT_TRUE(client.create(on1).is_ok());
    before = inst.runtime().stages().completed();
    auto listing = client.list("");
    ASSERT_TRUE(listing.is_ok());
    EXPECT_EQ(listing.value().size(), 2u);
    ASSERT_TRUE(client.remove_many({on0, on1}).is_ok());
    after = inst.runtime().stages().completed();
  });
  inst.run();
  EXPECT_EQ(inst.server(0).directory_size(), 0u);
  EXPECT_EQ(inst.server(1).directory_size(), 0u);
  EXPECT_EQ(after - before, 2u);
  const obs::MetricsRegistry& metrics = inst.runtime().metrics();
  for (const char* op : {"List", "DeleteMany"}) {
    const obs::Histogram* total =
        metrics.find_histogram("op." + std::string(op) + ".total_us");
    ASSERT_NE(total, nullptr) << op;
    EXPECT_EQ(total->count(), 1u) << op;
  }
}

}  // namespace
}  // namespace bridge::core
