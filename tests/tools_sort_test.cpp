// Sort tool: output sorted + permutation of input (property, multiple p and
// sizes), merge invariants, phase reporting, degenerate inputs, the Bridge
// ops a sort issues, and cleanup after a failed sort.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "src/core/instance.hpp"
#include "src/tools/sort/sort_tool.hpp"

namespace bridge::tools {
namespace {

using core::BridgeClient;
using core::BridgeInstance;
using core::SystemConfig;

SystemConfig cfg(std::uint32_t p, std::uint32_t blocks_per_lfs = 2048) {
  return SystemConfig::paper_profile(p, blocks_per_lfs);
}

/// A record whose payload starts with the little-endian key, then filler
/// derived from the key (so payload identity follows key identity).
std::vector<std::byte> keyed_record(std::uint64_t key) {
  std::vector<std::byte> data(efs::kUserDataBytes);
  util::Writer w;
  w.u64(key);
  std::copy(w.buffer().begin(), w.buffer().end(), data.begin());
  for (std::size_t i = 8; i < data.size(); ++i) {
    data[i] = std::byte(static_cast<std::uint8_t>((key * 131 + i) & 0xFF));
  }
  return data;
}

void make_keyed_file(BridgeInstance& inst, const std::string& name,
                     const std::vector<std::uint64_t>& keys) {
  inst.run_client("mkfile", [&](sim::Context&, BridgeClient& client) {
    ASSERT_TRUE(client.create(name).is_ok());
    auto open = client.open(name);
    ASSERT_TRUE(open.is_ok());
    for (auto key : keys) {
      ASSERT_TRUE(
          client.seq_write(open.value().session, keyed_record(key)).is_ok());
    }
  });
  inst.run();
}

/// Read the whole file back and return its keys in order; also verifies
/// each record's payload matches its key.
std::vector<std::uint64_t> read_keys(BridgeInstance& inst,
                                     const std::string& name) {
  auto keys = std::make_shared<std::vector<std::uint64_t>>();
  inst.run_client("readback", [&, keys](sim::Context&, BridgeClient& client) {
    auto open = client.open(name);
    ASSERT_TRUE(open.is_ok());
    for (std::uint64_t i = 0; i < open.value().meta.size_blocks; ++i) {
      auto r = client.seq_read(open.value().session);
      ASSERT_TRUE(r.is_ok());
      std::uint64_t key = record_key(r.value().data);
      EXPECT_EQ(r.value().data, keyed_record(key)) << "payload mangled";
      keys->push_back(key);
    }
  });
  inst.run();
  return *keys;
}

void check_sorted_permutation(std::vector<std::uint64_t> input,
                              const std::vector<std::uint64_t>& output) {
  ASSERT_EQ(input.size(), output.size());
  EXPECT_TRUE(std::is_sorted(output.begin(), output.end()));
  std::sort(input.begin(), input.end());
  EXPECT_EQ(input, output);
}

std::vector<std::uint64_t> random_keys(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::uint64_t> keys(n);
  for (auto& k : keys) k = rng.next_u64() % 100000;
  return keys;
}

struct SortCase {
  std::uint32_t p;
  std::uint32_t records;
  std::uint32_t in_core;
  std::uint32_t fanin = 2;
};

/// Case name from the parameters, e.g. "p2_r64_c8_f2".
std::string sort_case_name(const ::testing::TestParamInfo<SortCase>& info) {
  const SortCase& c = info.param;
  return "p" + std::to_string(c.p) + "_r" + std::to_string(c.records) + "_c" +
         std::to_string(c.in_core) + "_f" + std::to_string(c.fanin);
}

class SortProperty : public ::testing::TestWithParam<SortCase> {};

TEST_P(SortProperty, SortsToPermutation) {
  auto param = GetParam();
  BridgeInstance inst(cfg(param.p));
  auto keys = random_keys(param.records, 1234 + param.p);
  make_keyed_file(inst, "input", keys);

  SortReport report;
  inst.run_client("sorter", [&](sim::Context& ctx, BridgeClient& client) {
    SortOptions options;
    options.tuning.in_core_records = param.in_core;
    options.tuning.local_merge_fanin = param.fanin;
    auto result = run_sort_tool(ctx, client, "input", "sorted", options);
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    report = result.value();
  });
  inst.run();
  ASSERT_FALSE(inst.runtime().scheduler().deadlocked());

  EXPECT_EQ(report.records, param.records);
  // Only "input" and "sorted" remain; at p=1 the one run became "sorted".
  EXPECT_EQ(inst.server().directory_size(), 2u);
  check_sorted_permutation(keys, read_keys(inst, "sorted"));
  EXPECT_TRUE(inst.verify_all_lfs().is_ok());
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SortProperty,
    ::testing::Values(
        SortCase{2, 64, 8},       // several local merge passes
        SortCase{4, 100, 16},     // non-multiple of p
        SortCase{4, 16, 64},      // in-core only (no local merges)
        SortCase{8, 128, 8},      // deep global merge tree
        SortCase{3, 50, 8},       // non-power-of-two p
        SortCase{1, 20, 4},       // degenerate single LFS
        SortCase{8, 8, 16},       // one record per node
        SortCase{4, 3, 16},       // fewer records than nodes
        SortCase{2, 120, 8, 8},   // 8-way local merges (§5.2 fix)
        SortCase{4, 90, 8, 4},    // 4-way local merges
        SortCase{2, 64, 8, 16}),  // fan-in exceeds run count
    sort_case_name);

TEST(SortTool, DuplicateKeysSurvive) {
  BridgeInstance inst(cfg(4));
  std::vector<std::uint64_t> keys(40, 7);  // all equal
  for (std::size_t i = 0; i < 10; ++i) keys[i * 4] = i;
  make_keyed_file(inst, "input", keys);
  inst.run_client("sorter", [&](sim::Context& ctx, BridgeClient& client) {
    SortOptions options;
    options.tuning.in_core_records = 8;
    ASSERT_TRUE(run_sort_tool(ctx, client, "input", "sorted", options).is_ok());
  });
  inst.run();
  check_sorted_permutation(keys, read_keys(inst, "sorted"));
}

TEST(SortTool, AlreadySortedInput) {
  BridgeInstance inst(cfg(4));
  std::vector<std::uint64_t> keys(60);
  for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = i;
  make_keyed_file(inst, "input", keys);
  inst.run_client("sorter", [&](sim::Context& ctx, BridgeClient& client) {
    SortOptions options;
    options.tuning.in_core_records = 16;
    ASSERT_TRUE(run_sort_tool(ctx, client, "input", "sorted", options).is_ok());
  });
  inst.run();
  check_sorted_permutation(keys, read_keys(inst, "sorted"));
}

TEST(SortTool, ReverseSortedInput) {
  BridgeInstance inst(cfg(4));
  std::vector<std::uint64_t> keys(60);
  for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = keys.size() - i;
  make_keyed_file(inst, "input", keys);
  inst.run_client("sorter", [&](sim::Context& ctx, BridgeClient& client) {
    SortOptions options;
    options.tuning.in_core_records = 16;
    ASSERT_TRUE(run_sort_tool(ctx, client, "input", "sorted", options).is_ok());
  });
  inst.run();
  check_sorted_permutation(keys, read_keys(inst, "sorted"));
}

TEST(SortTool, EmptyFileSorts) {
  BridgeInstance inst(cfg(4));
  make_keyed_file(inst, "input", {});
  SortReport report;
  inst.run_client("sorter", [&](sim::Context& ctx, BridgeClient& client) {
    auto result = run_sort_tool(ctx, client, "input", "sorted");
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    report = result.value();
  });
  inst.run();
  ASSERT_FALSE(inst.runtime().scheduler().deadlocked());
  EXPECT_EQ(report.records, 0u);
  EXPECT_TRUE(read_keys(inst, "sorted").empty());
}

TEST(SortTool, PhasesAreReportedAndIntermediatesCleaned) {
  BridgeInstance inst(cfg(4));
  make_keyed_file(inst, "input", random_keys(80, 9));
  SortReport report;
  inst.run_client("sorter", [&](sim::Context& ctx, BridgeClient& client) {
    SortOptions options;
    options.tuning.in_core_records = 8;
    auto result = run_sort_tool(ctx, client, "input", "sorted", options);
    ASSERT_TRUE(result.is_ok());
    report = result.value();
  });
  inst.run();
  EXPECT_GT(report.local_phase.us(), 0);
  EXPECT_GT(report.merge_phase.us(), 0);
  EXPECT_GE(report.total.us(), report.local_phase.us() + report.merge_phase.us());
  EXPECT_EQ(report.merge_passes, 2u);  // p=4 -> log2(4) passes
  // Only "input" and "sorted" remain in the Bridge directory.
  EXPECT_EQ(inst.server().directory_size(), 2u);
  // Temp LFS files are gone; only the two files' constituents remain.
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(inst.lfs(i).core().file_count(), 2u) << "lfs " << i;
  }
}

TEST(SortTool, MissingInputFails) {
  BridgeInstance inst(cfg(2));
  inst.run_client("sorter", [&](sim::Context& ctx, BridgeClient& client) {
    EXPECT_EQ(run_sort_tool(ctx, client, "ghost", "out").status().code(),
              util::ErrorCode::kNotFound);
  });
  inst.run();
}

/// A BridgeApi that forwards to a real client and logs each call as
/// "<op> <name>" (the name only where the op takes one).
class LoggingApi final : public core::BridgeApi {
 public:
  explicit LoggingApi(BridgeClient& inner) : inner_(inner) {}
  std::vector<std::string> log;

  util::Result<core::BridgeFileId> create(
      const std::string& name, core::CreateOptions options) override {
    log.push_back("create " + name);
    return inner_.create(name, options);
  }
  util::Status remove(const std::string& name) override {
    log.push_back("remove " + name);
    return inner_.remove(name);
  }
  util::Status remove_many(const std::vector<std::string>& names) override {
    log.push_back("remove_many");
    return inner_.remove_many(names);
  }
  util::Result<core::OpenResponse> open(const std::string& name) override {
    log.push_back("open " + name);
    return inner_.open(name);
  }
  util::Result<core::SeqReadResponse> seq_read(std::uint64_t session) override {
    log.push_back("seq_read");
    return inner_.seq_read(session);
  }
  util::Result<std::uint64_t> seq_write(
      std::uint64_t session, std::span<const std::byte> data) override {
    log.push_back("seq_write");
    return inner_.seq_write(session, data);
  }
  util::Result<std::vector<std::byte>> random_read(
      core::BridgeFileId id, std::uint64_t block_no) override {
    log.push_back("random_read");
    return inner_.random_read(id, block_no);
  }
  util::Status random_write(core::BridgeFileId id, std::uint64_t block_no,
                            std::span<const std::byte> data) override {
    log.push_back("random_write");
    return inner_.random_write(id, block_no, data);
  }
  util::Result<core::SeqReadManyResponse> seq_read_many(
      std::uint64_t session, std::uint32_t max_blocks) override {
    log.push_back("seq_read_many");
    return inner_.seq_read_many(session, max_blocks);
  }
  util::Result<core::SeqWriteManyResponse> seq_write_many(
      std::uint64_t session,
      std::vector<std::vector<std::byte>> blocks) override {
    log.push_back("seq_write_many");
    return inner_.seq_write_many(session, std::move(blocks));
  }
  util::Result<core::RandomReadManyResponse> random_read_many(
      core::BridgeFileId id, std::uint64_t first_block,
      std::uint32_t count) override {
    log.push_back("random_read_many");
    return inner_.random_read_many(id, first_block, count);
  }
  util::Result<std::uint64_t> seq_seek(std::uint64_t session,
                                       std::uint64_t block_no) override {
    log.push_back("seq_seek");
    return inner_.seq_seek(session, block_no);
  }
  util::Result<std::uint64_t> truncate(core::BridgeFileId id,
                                       std::uint64_t new_size) override {
    log.push_back("truncate");
    return inner_.truncate(id, new_size);
  }
  util::Result<std::uint64_t> parallel_open(
      std::uint64_t session,
      const std::vector<sim::Address>& workers) override {
    log.push_back("parallel_open");
    return inner_.parallel_open(session, workers);
  }
  util::Result<core::ParallelReadResponse> parallel_read(
      std::uint64_t job) override {
    log.push_back("parallel_read");
    return inner_.parallel_read(job);
  }
  util::Result<core::ParallelWriteResponse> parallel_write(
      std::uint64_t job) override {
    log.push_back("parallel_write");
    return inner_.parallel_write(job);
  }
  util::Result<core::BridgeFileId> rename(const std::string& from,
                                          const std::string& to) override {
    log.push_back("rename " + from);
    return inner_.rename(from, to);
  }
  util::Result<std::vector<core::ListEntry>> list(
      const std::string& prefix) override {
    log.push_back("list");
    return inner_.list(prefix);
  }
  util::Result<core::GetInfoResponse> get_info() override {
    log.push_back("get_info");
    return inner_.get_info();
  }
  util::Result<core::ResolveResponse> resolve(core::BridgeFileId id,
                                              std::uint64_t first,
                                              std::uint32_t count) override {
    log.push_back("resolve");
    return inner_.resolve(id, first, count);
  }

 private:
  BridgeClient& inner_;
};

/// The merge pass that writes `name` ("sorted#m<k>_<j>" -> k, "sorted" ->
/// the last pass); 0 for local runs and other files.
std::uint32_t output_pass(const std::string& name, std::uint32_t passes) {
  if (name == "sorted") return passes;
  auto m = name.find("#m");
  if (m == std::string::npos) return 0;
  return static_cast<std::uint32_t>(std::stoul(name.substr(m + 2)));
}

TEST(SortTool, OpSetIsFixedAndNextPassCreatesOverlapTheMerge) {
  for (std::uint32_t p : {3u, 4u, 8u}) {
    SCOPED_TRACE("p=" + std::to_string(p));
    BridgeInstance inst(cfg(p));
    make_keyed_file(inst, "input", random_keys(12 * p, 77 + p));
    std::vector<std::string> log;
    SortReport report;
    inst.run_client("sorter", [&](sim::Context& ctx, BridgeClient& client) {
      LoggingApi api(client);
      SortOptions options;
      options.tuning.in_core_records = 8;
      auto result = run_sort_tool(ctx, api, "input", "sorted", options);
      ASSERT_TRUE(result.is_ok()) << result.status().to_string();
      report = result.value();
      log = api.log;
    });
    inst.run();

    // w = p runs: 2w-1 Creates, 1 + 2(2w-1) Opens, one remove_many per
    // pass, one get_info, and nothing else.
    std::uint32_t passes = report.merge_passes;
    EXPECT_EQ(passes, p == 8 ? 3u : 2u);
    std::map<std::string, std::uint32_t> ops;
    for (const auto& entry : log) ++ops[entry.substr(0, entry.find(' '))];
    EXPECT_EQ(ops, (std::map<std::string, std::uint32_t>{
                       {"create", 2 * p - 1},
                       {"get_info", 1},
                       {"open", 1 + 2 * (2 * p - 1)},
                       {"remove_many", passes}}));

    // Pass k+1's outputs are created while pass k merges, before its
    // remove_many; they are opened only after it.
    std::uint32_t removed = 0;
    for (const auto& entry : log) {
      if (entry == "remove_many") {
        ++removed;
        continue;
      }
      std::string name = entry.substr(entry.find(' ') + 1);
      std::uint32_t pass = output_pass(name, passes);
      if (pass < 2) continue;
      if (entry.starts_with("create ")) {
        EXPECT_EQ(removed, pass - 2) << entry;
      } else if (entry.starts_with("open ")) {
        EXPECT_GE(removed, pass - 1) << entry;
      }
    }
  }
}

/// File counts that a failed sort must leave as it found them.
struct Namespace {
  std::size_t directory = 0;
  std::vector<std::size_t> lfs_files;
};

Namespace namespace_of(BridgeInstance& inst, std::uint32_t p) {
  Namespace ns;
  ns.directory = inst.server().directory_size();
  for (std::uint32_t i = 0; i < p; ++i) {
    ns.lfs_files.push_back(inst.lfs(i).core().file_count());
  }
  return ns;
}

/// Sort "input" into "sorted" with `blocker` already in the directory;
/// expects kAlreadyExists, no worker left behind, and no file left over.
void expect_collision_cleans_up(std::uint32_t p, const std::string& blocker) {
  BridgeInstance inst(cfg(p));
  make_keyed_file(inst, "input", random_keys(10 * p, 5));
  inst.run_client("blocker", [&](sim::Context&, BridgeClient& client) {
    ASSERT_TRUE(client.create(blocker).is_ok());
  });
  inst.run();
  Namespace before = namespace_of(inst, p);

  inst.run_client("sorter", [&](sim::Context& ctx, BridgeClient& client) {
    SortOptions options;
    options.tuning.in_core_records = 8;
    auto result = run_sort_tool(ctx, client, "input", "sorted", options);
    EXPECT_EQ(result.status().code(), util::ErrorCode::kAlreadyExists)
        << result.status().to_string();
  });
  inst.run();
  EXPECT_FALSE(inst.runtime().scheduler().deadlocked());
  EXPECT_TRUE(inst.runtime().scheduler().parked_process_names().empty());
  Namespace after = namespace_of(inst, p);
  EXPECT_EQ(after.directory, before.directory);
  EXPECT_EQ(after.lfs_files, before.lfs_files);
  EXPECT_TRUE(inst.verify_all_lfs().is_ok());
}

TEST(SortTool, MidPassCollisionDrainsWorkersAndRemovesItsFiles) {
  // A pass-1 output, and a pass-2 output created while pass 1 merges.
  expect_collision_cleans_up(8, "sorted#m1_2");
  expect_collision_cleans_up(8, "sorted#m2_1");
}

TEST(SortTool, ExistingDestinationIsKeptAndItsFilesRemoved) {
  expect_collision_cleans_up(4, "sorted");
}

}  // namespace
}  // namespace bridge::tools
