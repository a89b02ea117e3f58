#include "harness/workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "src/core/buffered_stream.hpp"
#include "src/core/instance.hpp"
#include "src/core/replication.hpp"
#include "src/efs/protocol.hpp"
#include "src/sim/rng.hpp"
#include "src/tools/copy.hpp"
#include "src/tools/sort/sort_tool.hpp"
#include "src/util/serde.hpp"

namespace perfbench {

std::vector<std::byte> keyed_record(std::uint64_t key) {
  std::vector<std::byte> data(bridge::efs::kUserDataBytes);
  util::Writer w;
  w.u64(key);
  std::copy(w.buffer().begin(), w.buffer().end(), data.begin());
  for (std::size_t i = 8; i < data.size(); ++i) {
    data[i] = std::byte(static_cast<std::uint8_t>((key * 131 + i) & 0xFF));
  }
  return data;
}

namespace {

namespace efs = bridge::efs;
namespace tools = bridge::tools;

/// Clocks of one round.  Construct before booting the machine: set-up time
/// runs from construction to begin(), the timed phase from begin() to end().
/// A traced round also opens a LayerWindow and enables the program's tracer
/// for the timed phase.
class Phase {
 public:
  Phase(const RoundParams& params, RoundResult& out)
      : params_(params), out_(out), t0_(cpu_seconds()) {}

  void begin(core::BridgeInstance& inst) {
    out_.setup_host_s = cpu_seconds() - t0_;
    if (params_.traced) {
      window_.begin(inst);
      inst.runtime().tracer().enable();
    }
    t0_ = cpu_seconds();
  }

  void end(core::BridgeInstance& inst) {
    out_.timed_host_s = cpu_seconds() - t0_;
    if (params_.traced) window_.end(inst, out_.layers);
  }

 private:
  const RoundParams& params_;
  RoundResult& out_;
  double t0_;
  LayerWindow window_;
};

/// Create `name` and append keyed_record(keys[i]) one naive seq_write at a
/// time (the fill every fig_speedup point uses).
void fill_naive(core::BridgeInstance& inst, const std::string& name,
                const std::vector<std::uint64_t>& keys, RoundResult& out) {
  inst.run_client("fill", [&](sim::Context&, core::BridgeClient& client) {
    auto created = client.create(name);
    auto open = client.open(name);
    out.check(created.is_ok() && open.is_ok(), "fill: create/open " + name);
    if (!open.is_ok()) return;
    for (std::uint64_t key : keys) {
      auto st = client.seq_write(open.value().session, keyed_record(key));
      if (!st.is_ok()) {
        out.check(false, "fill " + name + ": " + st.status().to_string());
        return;
      }
    }
  });
  inst.run();
}

/// Create `name` and append block(0) .. block(count - 1) through a
/// write-behind stream, generating each block as it is appended.
void fill_stream(core::BridgeInstance& inst, const std::string& name,
                 std::uint64_t count,
                 const std::function<std::vector<std::byte>(std::uint64_t)>&
                     block,
                 RoundResult& out) {
  inst.run_client("fill", [&](sim::Context&, core::BridgeClient& client) {
    auto created = client.create(name);
    auto open = client.open(name);
    out.check(created.is_ok() && open.is_ok(), "fill: create/open " + name);
    if (!open.is_ok()) return;
    core::BufferedFileStream stream(client, open.value().session,
                                    {.write_batch = 64});
    for (std::uint64_t i = 0; i < count; ++i) {
      if (auto st = stream.write(block(i)); !st.is_ok()) {
        out.check(false, "fill " + name + ": " + st.to_string());
        return;
      }
    }
    if (auto st = stream.flush(); !st.is_ok()) {
      out.check(false, "fill " + name + ": " + st.to_string());
    }
  });
  inst.run();
}

/// Read Bridge file `name` through a plain client and check that it holds
/// exactly `count` blocks, block i equal to want(i).  Each block is compared
/// as it arrives, so the file is never held in memory whole.
void check_file(core::BridgeInstance& inst, const std::string& name,
                std::uint64_t count,
                const std::function<std::vector<std::byte>(std::uint64_t)>&
                    want,
                RoundResult& out) {
  inst.run_client("verify", [&](sim::Context&, core::BridgeClient& client) {
    auto open = client.open(name);
    if (!open.is_ok()) {
      out.check(false, "verify: open " + name);
      return;
    }
    core::BufferedFileStream in(client, open.value().session,
                                {.read_window = 64});
    std::uint64_t n = 0;
    while (true) {
      auto block = in.read();
      if (!block.is_ok()) {
        out.check(false, "verify: read " + name);
        return;
      }
      if (block.value().eof) break;
      out.check(n < count && block.value().data == want(n),
                name + " block " + std::to_string(n));
      ++n;
    }
    out.check(n == count, name + " size");
  });
  inst.run();
}

std::vector<std::uint64_t> random_keys(std::uint64_t seed, std::uint64_t n) {
  sim::Rng rng(seed);
  std::vector<std::uint64_t> keys(n);
  for (auto& key : keys) key = rng.next_u64();
  return keys;
}

/// Encode `msg` and decode it back; returns the encoded size.
template <typename T>
std::size_t roundtrip(const T& msg) {
  auto bytes = util::encode_to_bytes(msg);
  auto back = util::decode_from_bytes<T>(bytes);
  asm volatile("" : : "g"(&back) : "memory");  // keep the decode
  return bytes.size();
}

std::vector<std::vector<std::byte>> payloads(std::uint32_t n,
                                             std::size_t bytes) {
  return std::vector<std::vector<std::byte>>(
      n, std::vector<std::byte>(bytes, std::byte{0x42}));
}

// ---------------------------------------------------------------------------
// tools_p64: copy tool + sort tool on one random-keyed file at p = 64.

constexpr std::uint32_t kToolsP = 64;

std::uint64_t tools_records(std::uint64_t seed) { return 4096 + seed % 64; }

core::SystemConfig tools_config(std::uint64_t records) {
  return core::SystemConfig::paper_profile(
      kToolsP, static_cast<std::uint32_t>(6 * records / kToolsP + 384));
}

RoundResult tools_round(const RoundParams& params) {
  RoundResult out;
  Phase phase(params, out);
  const std::uint64_t records = tools_records(params.seed);
  core::BridgeInstance inst(tools_config(records));
  const auto keys = random_keys(params.seed * 7919 + 1, records);
  fill_naive(inst, "input", keys, out);

  phase.begin(inst);
  SpanLog log(params.traced);
  tools::CopyReport copy;
  tools::SortReport sort;
  // The tools' own BridgeApi calls (create, open, reads, writes, remove)
  // are the workload's ops.
  inst.run_client("tools", [&](sim::Context& ctx, core::BridgeClient& client) {
    MeasuredApi api(ctx, client, log);
    auto copied = tools::run_copy_tool(ctx, api, "input", "copy");
    out.check(copied.is_ok(), "copy tool failed");
    if (copied.is_ok()) copy = copied.value();
    tools::SortOptions options;
    options.tuning.in_core_records =
        static_cast<std::uint32_t>(records / 20 + 16);
    auto sorted = tools::run_sort_tool(ctx, api, "input", "sorted", options);
    out.check(sorted.is_ok(), "sort tool failed");
    if (sorted.is_ok()) sort = sorted.value();
  });
  inst.run();
  phase.end(inst);

  out.spans = log.spans();
  out.figures = {{"tools.copy_s", copy.elapsed.sec()},
                 {"tools.sort_s", sort.total.sec()},
                 {"tools.sort_local_s", sort.local_phase.sec()},
                 {"tools.sort_merge_s", sort.merge_phase.sec()},
                 {"tools.sort_merge_passes",
                  static_cast<double>(sort.merge_passes)}};
  out.virt_s = copy.elapsed.sec() + sort.total.sec();
  out.blocks = copy.blocks + sort.records;

  // Copy: the source holds the generated records and the destination
  // equals it block for block.
  auto record = [&](std::uint64_t i) { return keyed_record(keys[i]); };
  check_file(inst, "input", records, record, out);
  check_file(inst, "copy", records, record, out);
  // Sort: whole records, in key order, a permutation of the input keys.
  std::vector<std::uint64_t> expected = keys;
  std::sort(expected.begin(), expected.end());
  check_file(inst, "sorted", records,
             [&](std::uint64_t i) { return keyed_record(expected[i]); }, out);
  return out;
}

ProbeShape tools_probe(std::uint64_t seed) {
  const std::uint64_t records = tools_records(seed);
  efs::ReadManyResponse reply;
  reply.blocks = payloads(8, efs::kEfsDataBytes);
  return {tools_config(records).geometry.capacity_blocks(), 0.3,
          [reply] { return roundtrip(reply); }};
}

// ---------------------------------------------------------------------------
// naive_mixed: 8 closed-loop naive-view clients on one Bridge server, p = 16,
// files that fit the aggregate LFS cache, every read checked against a
// shadow model.

constexpr std::uint32_t kNaiveP = 16;
constexpr std::uint32_t kNaiveClients = 8;
constexpr std::uint32_t kNaiveFiles = 4;        ///< preloaded per client
constexpr std::uint32_t kNaiveFileBlocks = 12;  ///< preloaded per file
constexpr std::uint32_t kNaiveMaxFiles = 8;     ///< per client
constexpr std::uint32_t kNaiveMaxBlocks = 96;   ///< per client; x8 < cache
constexpr std::uint32_t kNaiveOps = 1000;       ///< per client per round

core::SystemConfig naive_config() {
  return core::SystemConfig::paper_profile(kNaiveP, 1024);
}

std::string naive_prefix(std::uint32_t client) {
  return "c" + std::to_string(client) + "/";
}

/// One client's files as the program should hold them.
struct ShadowFile {
  std::string name;
  core::BridgeFileId id = 0;
  std::vector<std::uint64_t> keys;  ///< block i holds keyed_record(keys[i])
  bool open = false;
  std::uint64_t session = 0;
  std::uint64_t read_cursor = 0;
  std::uint64_t write_cursor = 0;
};

class NaiveClient {
 public:
  NaiveClient(std::uint32_t index, std::uint64_t seed, core::BridgeApi& api,
              RoundResult& out)
      : prefix_(naive_prefix(index)),
        rng_(seed * 1000003 + index),
        api_(api),
        out_(out) {
    for (std::uint32_t f = 0; f < kNaiveFiles; ++f) {
      ShadowFile file;
      file.name = prefix_ + "f" + std::to_string(f);
      file.keys = preload_keys(index, f, seed);
      files_.push_back(std::move(file));
    }
  }

  static std::vector<std::uint64_t> preload_keys(std::uint32_t client,
                                                 std::uint32_t file,
                                                 std::uint64_t seed) {
    return random_keys(seed * 31 + client * kNaiveFiles + file,
                       kNaiveFileBlocks);
  }

  /// The op mix, per 100 ops.  Each client runs an exact deck of
  /// kNaiveOps ops in this proportion, shuffled by the seed.
  enum class Op { kSeqRead, kRandomRead, kAppend, kRandomWrite, kOpen, kList,
                  kCreate, kRemove, kRename };
  static constexpr std::pair<Op, std::uint32_t> kMix[] = {
      {Op::kSeqRead, 24}, {Op::kRandomRead, 20}, {Op::kAppend, 16},
      {Op::kRandomWrite, 12}, {Op::kOpen, 8}, {Op::kList, 8},
      {Op::kCreate, 4}, {Op::kRemove, 4}, {Op::kRename, 4}};

  void run() {
    std::vector<Op> deck;
    for (const auto& [op, share] : kMix) {
      deck.insert(deck.end(), share * kNaiveOps / 100, op);
    }
    for (std::size_t i = deck.size(); i > 1; --i) {
      std::swap(deck[i - 1], deck[rng_.next_below(i)]);
    }
    for (auto& file : files_) do_open(file);
    for (Op op : deck) {
      switch (op) {
        case Op::kSeqRead: do_seq_read(pick()); break;
        case Op::kRandomRead: do_random_read(pick()); break;
        case Op::kAppend:
          if (total_blocks() < kNaiveMaxBlocks) {
            do_append(pick());
          } else {
            do_random_write(pick());
          }
          break;
        case Op::kRandomWrite: do_random_write(pick()); break;
        case Op::kOpen: do_open(pick()); break;
        case Op::kList: do_list(); break;
        case Op::kCreate: do_create(); break;
        case Op::kRemove: do_remove(); break;
        case Op::kRename: do_rename(pick()); break;
      }
    }
  }

  std::uint64_t blocks_moved() const { return blocks_moved_; }

 private:
  ShadowFile& pick() { return files_[rng_.next_below(files_.size())]; }

  std::uint64_t total_blocks() const {
    std::uint64_t total = 0;
    for (const auto& f : files_) total += f.keys.size();
    return total;
  }

  void check(bool ok, const std::string& what) {
    out_.check(ok, prefix_ + " " + what);
  }

  bool do_open(ShadowFile& file) {
    auto open = api_.open(file.name);
    check(open.is_ok() && open.value().meta.size_blocks == file.keys.size(),
          "open " + file.name);
    if (!open.is_ok()) return false;
    file.id = open.value().meta.id;
    file.session = open.value().session;
    file.open = true;
    file.read_cursor = 0;
    file.write_cursor = file.keys.size();
    return true;
  }

  void do_seq_read(ShadowFile& file) {
    if (!file.open && !do_open(file)) return;
    auto r = api_.seq_read(file.session);
    if (file.read_cursor >= file.keys.size()) {
      check(r.is_ok() && r.value().eof, "seq_read eof " + file.name);
      return;
    }
    const std::uint64_t n = file.read_cursor++;
    ++blocks_moved_;
    check(r.is_ok() && !r.value().eof && r.value().block_no == n &&
              r.value().data == keyed_record(file.keys[n]),
          "seq_read " + file.name + " block " + std::to_string(n));
  }

  void do_random_read(ShadowFile& file) {
    if (file.keys.empty()) return do_seq_read(file);
    const std::uint64_t n = rng_.next_below(file.keys.size());
    auto r = api_.random_read(file.id, n);
    ++blocks_moved_;
    check(r.is_ok() && r.value() == keyed_record(file.keys[n]),
          "random_read " + file.name + " block " + std::to_string(n));
  }

  void do_append(ShadowFile& file) {
    if (!file.open && !do_open(file)) return;
    const std::uint64_t key = rng_.next_u64();
    auto r = api_.seq_write(file.session, keyed_record(key));
    const std::uint64_t n = file.write_cursor;
    check(r.is_ok() && r.value() == n, "seq_write " + file.name);
    if (!r.is_ok()) return;
    ++blocks_moved_;
    ++file.write_cursor;
    if (n == file.keys.size()) {
      file.keys.push_back(key);
    } else {
      file.keys[n] = key;
    }
  }

  void do_random_write(ShadowFile& file) {
    if (file.keys.empty()) return do_append(file);
    const std::uint64_t n = rng_.next_below(file.keys.size());
    const std::uint64_t key = rng_.next_u64();
    auto st = api_.random_write(file.id, n, keyed_record(key));
    check(st.is_ok(), "random_write " + file.name);
    if (!st.is_ok()) return;
    ++blocks_moved_;
    file.keys[n] = key;
  }

  void do_list() {
    auto listed = api_.list(prefix_);
    std::vector<std::pair<std::string, std::uint64_t>> want, got;
    for (const auto& f : files_) want.emplace_back(f.name, f.keys.size());
    std::sort(want.begin(), want.end());
    if (listed.is_ok()) {
      for (const auto& e : listed.value()) {
        got.emplace_back(e.name, e.size_blocks);
      }
    }
    check(listed.is_ok() && got == want, "list " + prefix_);
  }

  void do_create() {
    if (files_.size() >= kNaiveMaxFiles) return do_list();
    ShadowFile file;
    file.name = prefix_ + "n" + std::to_string(next_name_++);
    auto id = api_.create(file.name);
    check(id.is_ok(), "create " + file.name);
    if (!id.is_ok()) return;
    file.id = id.value();
    files_.push_back(std::move(file));
  }

  void do_remove() {
    if (files_.size() <= 2) return do_create();
    const std::size_t i = rng_.next_below(files_.size());
    auto st = api_.remove(files_[i].name);
    check(st.is_ok(), "remove " + files_[i].name);
    if (st.is_ok()) {
      files_.erase(files_.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }

  void do_rename(ShadowFile& file) {
    std::string to = prefix_ + "r" + std::to_string(next_name_++);
    auto id = api_.rename(file.name, to);
    check(id.is_ok(), "rename " + file.name + " -> " + to);
    if (!id.is_ok()) return;
    file.name = std::move(to);
    file.id = id.value();
    file.open = false;  // reopen under the new name before the next seq op
  }

  std::string prefix_;
  sim::Rng rng_;
  core::BridgeApi& api_;
  RoundResult& out_;
  std::vector<ShadowFile> files_;
  std::uint64_t next_name_ = 0;
  std::uint64_t blocks_moved_ = 0;
};

RoundResult naive_round(const RoundParams& params) {
  RoundResult out;
  Phase phase(params, out);
  core::BridgeInstance inst(naive_config());
  for (std::uint32_t c = 0; c < kNaiveClients; ++c) {
    for (std::uint32_t f = 0; f < kNaiveFiles; ++f) {
      const auto keys = NaiveClient::preload_keys(c, f, params.seed);
      fill_stream(inst, naive_prefix(c) + "f" + std::to_string(f),
                  keys.size(),
                  [&](std::uint64_t i) { return keyed_record(keys[i]); }, out);
    }
  }

  phase.begin(inst);
  const sim::SimTime v0 = inst.runtime().now();
  SpanLog log(params.traced);
  std::vector<std::unique_ptr<NaiveClient>> clients(kNaiveClients);
  for (std::uint32_t c = 0; c < kNaiveClients; ++c) {
    inst.run_client("naive" + std::to_string(c),
                    [&, c](sim::Context& ctx, core::BridgeClient& client) {
                      MeasuredApi api(ctx, client, log);
                      clients[c] = std::make_unique<NaiveClient>(
                          c, params.seed, api, out);
                      clients[c]->run();
                    });
  }
  inst.run();
  phase.end(inst);

  out.spans = log.spans();
  out.virt_s = (inst.runtime().now() - v0).sec();
  for (const auto& c : clients) {
    if (c != nullptr) out.blocks += c->blocks_moved();
  }
  out.check(inst.verify_all_lfs().is_ok(), "verify_all_lfs");
  return out;
}

ProbeShape naive_probe(std::uint64_t) {
  core::SeqWriteRequest req;
  req.session = 1;
  req.data = keyed_record(7);
  return {naive_config().geometry.capacity_blocks(), 0.05,
          [req] { return roundtrip(req); }};
}

// ---------------------------------------------------------------------------
// stream_scan: one file 8x the aggregate cache, read three ways at p = 16,
// in eight passes.
// The timed phase only reads.

constexpr std::uint32_t kScanP = 16;
constexpr std::uint32_t kScanWorkers = 24;  ///< parallel-open job, t > p
constexpr std::uint32_t kScanPasses = 8;    ///< over the file, per round
constexpr std::uint32_t kScanRuns = 128;    ///< random_read_many calls/pass
constexpr std::uint32_t kScanRunBlocks = 16;

std::uint64_t scan_blocks(std::uint64_t seed) {
  // 8x the aggregate cache (16 LFSs x 64 blocks), plus a seed-dependent tail.
  return 8 * kScanP * 64 + seed % 64;
}

core::SystemConfig scan_config(std::uint64_t blocks) {
  auto cfg = core::SystemConfig::paper_profile(
      kScanP, static_cast<std::uint32_t>(blocks / kScanP + 128));
  // The adaptive read path: per-file read-ahead depth and SCAN ordering.
  cfg.efs.readahead.adaptive = true;
  cfg.efs.sched.policy = bridge::disk::SchedPolicy::kScan;
  return cfg;
}

RoundResult scan_round(const RoundParams& params) {
  RoundResult out;
  Phase phase(params, out);
  const std::uint64_t n = scan_blocks(params.seed);
  core::BridgeInstance inst(scan_config(n));
  const auto keys = random_keys(params.seed * 104729 + 3, n);
  fill_stream(inst, "big", n,
              [&](std::uint64_t i) { return keyed_record(keys[i]); }, out);
  auto expect = [&](std::uint64_t block, std::span<const std::byte> data) {
    if (block >= n) return false;
    const auto want = keyed_record(keys[block]);
    return std::equal(data.begin(), data.end(), want.begin(), want.end());
  };

  // Each pass runs three concurrent closed-loop readers of the file; the
  // passes run back to back, and the random reader's targets differ in each.
  phase.begin(inst);
  const sim::SimTime t0 = inst.runtime().now();
  SpanLog log(params.traced);
  double stream_s = 0, parallel_s = 0, random_s = 0;
  sim::Rng rng(params.seed * 15485863 + 5);
  for (std::uint32_t pass = 0; pass < kScanPasses; ++pass) {
    const sim::SimTime v0 = inst.runtime().now();
    std::vector<std::uint8_t> delivered(n, 0);
    // 1. Sequential scan through the adaptive prefetch stream.
    inst.run_client("stream", [&](sim::Context& ctx,
                                  core::BridgeClient& client) {
      MeasuredApi api(ctx, client, log);
      auto open = api.open("big");
      out.check(open.is_ok(), "stream: open big");
      if (!open.is_ok()) return;
      core::BufferedFileStream stream(api, open.value().session,
                                      {.adaptive = true});
      std::uint64_t next = 0;
      while (true) {
        auto block = stream.read();
        if (!block.is_ok()) {
          out.check(false, "stream read " + block.status().to_string());
          break;
        }
        if (block.value().eof) break;
        out.check(block.value().block_no == next &&
                      expect(next, block.value().data),
                  "stream block " + std::to_string(next));
        ++next;
      }
      out.check(next == n, "stream length");
      out.blocks += next;
      stream_s += (ctx.now() - v0).sec();
    });
    // 2. A parallel-open job with more workers than LFSs.
    inst.run_client("parallel", [&](sim::Context& ctx,
                                    core::BridgeClient& client) {
      MeasuredApi api(ctx, client, log);
      std::vector<sim::Address> workers(kScanWorkers);
      auto worker = [&](sim::Context& worker_ctx, std::uint32_t w) {
        core::ParallelWorker endpoint(worker_ctx);
        workers[w] = endpoint.address();
        while (true) {
          auto d = endpoint.next_block();
          if (d.eof) break;
          const std::uint64_t b = d.global_block_no;
          out.check(expect(b, d.data), "parallel block " + std::to_string(b));
          if (b < n) ++delivered[b];
        }
      };
      for (std::uint32_t w = 0; w < kScanWorkers; ++w) {
        ctx.runtime().spawn(w % kScanP, "scan-worker" + std::to_string(w),
                            [&, w](sim::Context& c) { worker(c, w); });
      }
      ctx.sleep(sim::msec(1));  // workers publish their addresses
      auto open = api.open("big");
      auto job = open.is_ok()
                     ? api.parallel_open(open.value().session, workers)
                     : util::Result<std::uint64_t>(open.status());
      out.check(job.is_ok(), "parallel_open");
      while (job.is_ok()) {
        auto r = api.parallel_read(job.value());
        if (!r.is_ok()) {
          out.check(false, "parallel_read " + r.status().to_string());
          break;
        }
        out.blocks += r.value().blocks_delivered;
        if (r.value().eof) break;
      }
      parallel_s += (ctx.now() - v0).sec();
    });
    // 3. Random vectored reads.
    inst.run_client("random", [&](sim::Context& ctx,
                                  core::BridgeClient& client) {
      MeasuredApi api(ctx, client, log);
      auto open = api.open("big");
      out.check(open.is_ok(), "random: open big");
      if (!open.is_ok()) return;
      for (std::uint32_t i = 0; i < kScanRuns; ++i) {
        const std::uint64_t first = rng.next_below(n - kScanRunBlocks + 1);
        auto run = api.random_read_many(open.value().meta.id, first,
                                        kScanRunBlocks);
        out.check(run.is_ok() && run.value().blocks.size() == kScanRunBlocks,
                  "random_read_many at " + std::to_string(first));
        if (!run.is_ok()) continue;
        for (std::size_t b = 0; b < run.value().blocks.size(); ++b) {
          out.check(expect(first + b, run.value().blocks[b]),
                    "random block " + std::to_string(first + b));
        }
        out.blocks += run.value().blocks.size();
      }
      random_s += (ctx.now() - v0).sec();
    });
    inst.run();
    out.check(std::all_of(delivered.begin(), delivered.end(),
                          [](std::uint8_t d) { return d == 1; }),
              "parallel job delivered every block exactly once");
  }
  phase.end(inst);

  out.spans = log.spans();
  out.virt_s = (inst.runtime().now() - t0).sec();
  out.figures = {{"scan.stream_s", stream_s},
                 {"scan.parallel_s", parallel_s},
                 {"scan.random_s", random_s}};
  return out;
}

ProbeShape scan_probe(std::uint64_t seed) {
  core::SeqReadManyResponse reply;
  reply.blocks = payloads(32, efs::kUserDataBytes);
  return {scan_config(scan_blocks(seed)).geometry.capacity_blocks(), 0.8,
          [reply] { return roundtrip(reply); }};
}

// ---------------------------------------------------------------------------
// parity_rebuild: a ParityFile and a MirroredFile at p = 8; one disk fails,
// degraded reads, then the mirrored LFS, a parity data LFS and the parity
// LFS are rebuilt and compared bit for bit with their pre-failure contents.

constexpr std::uint32_t kReplP = 8;
constexpr std::uint32_t kReplVictim = 2;
constexpr std::uint32_t kReplReaders = 4;  ///< degraded readers per file

std::uint64_t repl_stripes(std::uint64_t seed) { return 480 + seed % 16; }
std::uint64_t repl_mirror_blocks(std::uint64_t seed) {
  return 1152 + seed % 32;
}

core::SystemConfig repl_config(std::uint64_t seed) {
  return core::SystemConfig::paper_profile(
      kReplP, static_cast<std::uint32_t>(
                  4 * (repl_stripes(seed) + repl_mirror_blocks(seed) / 4) +
                  256));
}

/// Raw constituent contents of the replicated files on one LFS, read
/// through its EFS client: file id -> blocks (absent constituents omitted).
using Constituents =
    std::map<std::uint32_t, std::vector<std::vector<std::byte>>>;

Constituents read_constituents(core::BridgeInstance& inst, std::uint32_t lfs,
                               RoundResult& out) {
  Constituents result;
  inst.run_client("snapshot", [&](sim::Context&, core::BridgeClient& client) {
    auto env = tools::discover(client);
    out.check(env.is_ok(), "snapshot: get_info");
    if (!env.is_ok()) return;
    auto lfs_clients = env.value().make_lfs_clients(client.rpc());
    efs::EfsClient& efs = *lfs_clients[lfs];
    for (const char* name :
         {"pfile", "pfile!parity", "mfile", "mfile!mirror"}) {
      auto open = client.open(name);
      out.check(open.is_ok(), std::string("snapshot: open ") + name);
      if (!open.is_ok()) continue;
      const std::uint32_t id = open.value().meta.lfs_file_id;
      auto info = efs.info(id);
      if (!info.is_ok()) continue;  // no constituent on this LFS
      auto& blocks = result[id];
      for (std::uint32_t b = 0; b < info.value().size_blocks; b += 64) {
        std::vector<std::uint32_t> nos;
        const std::uint32_t end = std::min(b + 64, info.value().size_blocks);
        for (std::uint32_t i = b; i < end; ++i) nos.push_back(i);
        auto run = efs.read_many(id, nos);
        out.check(run.is_ok(), "snapshot: read constituent");
        if (!run.is_ok()) break;
        for (auto& block : run.value().blocks) {
          blocks.push_back(std::move(block));
        }
      }
    }
  });
  inst.run();
  return result;
}

std::uint64_t repl_key(std::uint64_t seed, std::uint64_t file,
                       std::uint64_t block) {
  return sim::Rng(seed * 2654435761u + file * 1000003 + block).next_u64();
}

RoundResult repl_round(const RoundParams& params) {
  RoundResult out;
  Phase phase(params, out);
  const std::uint64_t seed = params.seed;
  const std::uint64_t stripes = repl_stripes(seed);
  const std::uint64_t mirrored = repl_mirror_blocks(seed);
  core::BridgeInstance inst(repl_config(seed));

  // Set-up: build both files (their append cost is reported per stripe) and
  // record what the LFSs that will fail hold.
  std::uint64_t parity_blocks = 0;
  std::uint32_t parity_lfs = 0;
  double append_s = 0;
  inst.run_client("writer", [&](sim::Context& ctx, core::BridgeClient& client) {
    auto parity = core::ParityFile::open(ctx, client, "pfile");
    auto mirror = core::MirroredFile::open(ctx, client, "mfile");
    out.check(parity.is_ok() && mirror.is_ok(), "open replicated files");
    if (!parity.is_ok() || !mirror.is_ok()) return;
    parity_lfs = parity.value().parity_lfs_index();
    out.check(parity_lfs != kReplVictim, "parity LFS is not the victim");
    const std::uint32_t width = parity.value().data_width();
    const sim::SimTime t0 = ctx.now();
    for (std::uint64_t s = 0; s < stripes; ++s) {
      std::vector<std::vector<std::byte>> stripe;
      for (std::uint32_t i = 0; i < width; ++i) {
        stripe.push_back(keyed_record(repl_key(seed, 0, parity_blocks++)));
      }
      auto st = parity.value().append_stripe(stripe);
      out.check(st.is_ok(), "parity append " + st.to_string());
    }
    append_s = (ctx.now() - t0).sec();
    for (std::uint64_t b = 0; b < mirrored; b += 16) {
      std::vector<std::vector<std::byte>> run;
      for (std::uint64_t i = b; i < std::min(b + 16, mirrored); ++i) {
        run.push_back(keyed_record(repl_key(seed, 1, i)));
      }
      auto st = mirror.value().append_many(run);
      out.check(st.is_ok(), "mirror append " + st.to_string());
    }
  });
  inst.run();
  const Constituents victim_before = read_constituents(inst, kReplVictim, out);
  const Constituents parity_before = read_constituents(inst, parity_lfs, out);

  phase.begin(inst);
  SpanLog log(params.traced);
  std::vector<std::int64_t> degraded_us;
  double degraded_s = 0;
  core::RebuildReport mirror_rb, data_rb, parity_rb;
  double mirror_s = 0, data_s = 0, parity_s = 0;

  // Spawn a client that opens both files through the measured API.
  auto with_files = [&](const std::string& name, auto body) {
    inst.run_client(name, [&, name, body](sim::Context& ctx,
                                          core::BridgeClient& client) {
      MeasuredApi api(ctx, client, log, /*client=*/false);
      auto parity = core::ParityFile::open(ctx, api, "pfile");
      auto mirror = core::MirroredFile::open(ctx, api, "mfile");
      out.check(parity.is_ok() && mirror.is_ok(),
                name + ": open replicated files");
      if (parity.is_ok() && mirror.is_ok()) {
        body(ctx, parity.value(), mirror.value());
      }
    });
  };
  auto rebuild = [&](sim::Context& ctx, auto& file, std::uint32_t lfs,
                     core::RebuildReport& report, double& seconds) {
    const sim::SimTime t0 = ctx.now();
    auto r = log.record(
        ctx, "rebuild", [&] { return file.rebuild_lfs(lfs); },
        /*client=*/false);
    seconds = (ctx.now() - t0).sec();
    out.check(r.is_ok(), "rebuild lfs " + std::to_string(lfs));
    if (r.is_ok()) report = r.value();
  };

  // Degraded: with LFS kReplVictim down, concurrent readers cover every
  // block of both files, each its own share in a seed-shuffled order.
  inst.lfs(kReplVictim).disk().fail();
  const sim::SimTime v0 = inst.runtime().now();
  for (std::uint32_t r = 0; r < 2 * kReplReaders; ++r) {
    const bool of_parity = r < kReplReaders;
    const std::uint64_t blocks = of_parity ? parity_blocks : mirrored;
    std::vector<std::uint64_t> order;
    for (std::uint64_t i = r % kReplReaders; i < blocks; i += kReplReaders) {
      order.push_back(i);
    }
    sim::Rng rng(seed * 97 + r);
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.next_below(i)]);
    }
    with_files("reader" + std::to_string(r),
               [&, of_parity, order](sim::Context& ctx,
                                     core::ParityFile& parity,
                                     core::MirroredFile& mirror) {
      for (std::uint64_t i : order) {
        bool degraded = false;
        const std::int64_t s0 = ctx.now().us();
        auto data = of_parity
                        ? log.record(ctx, "parity_read",
                                     [&] { return parity.read(i, &degraded); })
                        : log.record(ctx, "mirror_read",
                                     [&] { return mirror.read(i, &degraded); });
        if (degraded) degraded_us.push_back(ctx.now().us() - s0);
        out.check(data.is_ok() &&
                      data.value() ==
                          keyed_record(repl_key(seed, of_parity ? 0 : 1, i)),
                  std::string(of_parity ? "parity" : "mirror") +
                      " degraded read " + std::to_string(i));
      }
    });
  }
  inst.run();
  degraded_s = (inst.runtime().now() - v0).sec();

  // The disk comes back; rebuild the mirrored and the parity data LFS.
  inst.lfs(kReplVictim).disk().repair();
  with_files("rebuild", [&](sim::Context& ctx, core::ParityFile& parity,
                            core::MirroredFile& mirror) {
    rebuild(ctx, mirror, kReplVictim, mirror_rb, mirror_s);
    rebuild(ctx, parity, kReplVictim, data_rb, data_s);
  });
  inst.run();
  // Then the parity LFS fails and is rebuilt from the data LFSs.
  inst.lfs(parity_lfs).disk().fail();
  inst.lfs(parity_lfs).disk().repair();
  with_files("rebuild-parity", [&](sim::Context& ctx,
                                   core::ParityFile& parity,
                                   core::MirroredFile&) {
    rebuild(ctx, parity, parity_lfs, parity_rb, parity_s);
  });
  inst.run();
  phase.end(inst);

  out.spans = log.spans();
  const double rebuild_s = mirror_s + data_s + parity_s;
  out.virt_s = degraded_s + rebuild_s;
  out.blocks = parity_blocks + mirrored + mirror_rb.blocks_rebuilt +
               data_rb.blocks_rebuilt + parity_rb.blocks_rebuilt;
  out.figures = {
      {"core.repl.append_ms_per_stripe",
       stripes > 0 ? append_s * 1e3 / static_cast<double>(stripes) : 0},
      {"core.repl.degraded_read_ms_p50", percentile_ms(degraded_us, 0.5)},
      {"core.repl.rebuild_s", rebuild_s},
      {"core.repl.rebuild_s.mirror", mirror_s},
      {"core.repl.rebuild_s.parity_data", data_s},
      {"core.repl.rebuild_s.parity", parity_s},
      {"core.repl.rebuild_blocks",
       static_cast<double>(mirror_rb.blocks_rebuilt + data_rb.blocks_rebuilt +
                           parity_rb.blocks_rebuilt)}};
  out.check(!degraded_us.empty(), "degraded reads reconstructed blocks");

  // Rebuilt LFSs hold exactly what they held before the failures.
  out.check(read_constituents(inst, kReplVictim, out) == victim_before,
            "rebuilt LFS " + std::to_string(kReplVictim) + " bit-identical");
  out.check(read_constituents(inst, parity_lfs, out) == parity_before,
            "rebuilt parity LFS bit-identical");
  auto verified = inst.verify_all_lfs();
  out.check(verified.is_ok(), "verify_all_lfs: " + verified.to_string());
  return out;
}

ProbeShape repl_probe(std::uint64_t seed) {
  efs::WriteManyRequest req;
  req.file_id = 1000;
  req.block_nos = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15};
  req.blocks = payloads(16, efs::kEfsDataBytes);
  return {repl_config(seed).geometry.capacity_blocks(), 0.25,
          [req] { return roundtrip(req); }};
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"tools_p64", tools_round, tools_probe},
      {"naive_mixed", naive_round, naive_probe},
      {"stream_scan", scan_round, scan_probe},
      {"parity_rebuild", repl_round, repl_probe},
  };
  return all;
}

int run_crosscheck() {
  constexpr std::uint32_t p = 64;
  constexpr std::uint64_t records = 4096;
  RoundResult sink;
  double copy_s = 0, sort_s = 0;
  {
    core::BridgeInstance inst(core::SystemConfig::paper_profile(
        p, static_cast<std::uint32_t>(2 * records / p + 128)));
    fill_naive(inst, "src", random_keys(11 + p, records), sink);
    inst.run_client("copy", [&](sim::Context& ctx, core::BridgeClient& client) {
      auto r = tools::run_copy_tool(ctx, client, "src", "dst");
      if (r.is_ok()) copy_s = r.value().elapsed.sec();
    });
    inst.run();
  }
  {
    core::BridgeInstance inst(core::SystemConfig::paper_profile(
        p, static_cast<std::uint32_t>(4 * records / p + 256)));
    fill_naive(inst, "input", random_keys(13 + p, records), sink);
    inst.run_client("sort", [&](sim::Context& ctx, core::BridgeClient& client) {
      tools::SortOptions options;
      options.tuning.in_core_records = 220;
      auto r = tools::run_sort_tool(ctx, client, "input", "sorted", options);
      if (r.is_ok()) sort_s = r.value().total.sec();
    });
    inst.run();
  }
  // fig_speedup prints its rows with %.6g; compare in that form.
  char copy_text[32], sort_text[32];
  std::snprintf(copy_text, sizeof copy_text, "%.6g", copy_s);
  std::snprintf(sort_text, sizeof sort_text, "%.6g", sort_s);
  const bool ok = std::string(copy_text) == "2.0684" &&
                  std::string(sort_text) == "191.201" &&
                  sink.check_failures == 0;
  std::printf("crosscheck p=%u records=%llu: copy_s %s (fig_speedup 2.0684), "
              "sort_s %s (fig_speedup 191.201): %s\n",
              p, static_cast<unsigned long long>(records), copy_text,
              sort_text, ok ? "MATCH" : "MISMATCH");
  return ok ? 0 : 1;
}

}  // namespace perfbench
