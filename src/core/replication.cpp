#include "src/core/replication.hpp"

#include <algorithm>

#include "src/core/bridge_block.hpp"
#include "src/core/interleave.hpp"
#include "src/util/logging.hpp"

namespace bridge::core {

namespace {

constexpr std::uint32_t msg(efs::MsgType type) {
  return static_cast<std::uint32_t>(type);
}

/// Open `name`, creating it (width = all LFSs) if absent.
util::Result<FileMeta> open_or_create(BridgeApi& client,
                                      const std::string& name) {
  auto open = client.open(name);
  if (open.is_ok()) return open.value().meta;
  if (open.status().code() != util::ErrorCode::kNotFound) return open.status();
  if (auto created = client.create(name); !created.is_ok()) {
    return created.status();
  }
  auto reopened = client.open(name);
  if (!reopened.is_ok()) return reopened.status();
  return reopened.value().meta;
}

/// Local blocks held at round-robin offset `o` of a `width`-wide file with
/// `size` global blocks.
constexpr std::uint32_t offset_count(std::uint64_t size, std::uint32_t width,
                                     std::uint32_t o) {
  return static_cast<std::uint32_t>(size / width) +
         (o < size % width ? 1u : 0u);
}

/// Wrap `data` for `meta`'s constituent files.  reserved0/reserved1 pass
/// through to the Bridge block header (the parity length/fill words).
util::Result<std::vector<std::byte>> wrap_for(const FileMeta& meta,
                                              std::uint64_t global_no,
                                              std::span<const std::byte> data,
                                              std::uint32_t reserved0 = 0,
                                              std::uint32_t reserved1 = 0) {
  BridgeBlockHeader header;
  header.file_id = meta.lfs_file_id;
  header.global_block_no = global_no;
  header.width = meta.width;
  header.start_lfs = meta.start_lfs;
  header.reserved0 = reserved0;
  header.reserved1 = reserved1;
  return wrap_block(header, data);
}

util::Result<UnwrappedBlock> read_block(efs::EfsClient& lfs,
                                        const FileMeta& meta,
                                        std::uint32_t local_block) {
  auto read = lfs.read(meta.lfs_file_id, local_block);
  if (!read.is_ok()) return read.status();
  return unwrap_block(read.value());
}

util::Result<std::vector<std::byte>> read_unwrapped(efs::EfsClient& lfs,
                                                    const FileMeta& meta,
                                                    std::uint32_t local_block) {
  auto block = read_block(lfs, meta, local_block);
  if (!block.is_ok()) return block.status();
  return std::move(block.value().user_data);
}

/// Best-effort compensating truncate used on write/rebuild error paths.  The
/// caller is already failing the operation, so a rollback error must not win
/// over the write error it compensates for — but it must not vanish either:
/// a failed rollback means the constituent's length no longer matches this
/// file's bookkeeping, and the next read past the torn tail will see it.
void rollback_truncate(efs::EfsClient& lfs, efs::FileId id, std::uint32_t len,
                       const char* where) {
  if (auto r = lfs.truncate(id, len); !r.is_ok()) {
    util::LogMessage(util::LogLevel::kError, "replication")
        << where << ": rollback truncate to " << len
        << " blocks failed for lfs file " << id
        << "; constituent may retain a torn tail: " << r.status().to_string();
  }
}

// --- AsyncBatch plumbing ----------------------------------------------------
//
// The replication layer speaks the raw EFS wire ops through sim::AsyncBatch
// (the scatter-gather engine), so every multi-LFS operation has all its
// requests in flight together.  Every read is a kReadMany, one block or a
// run, exactly like the Bridge Server's pipeline.

void issue_info(sim::AsyncBatch& batch, efs::EfsClient& lfs, efs::FileId id) {
  efs::InfoRequest req{id};
  batch.call(lfs.service(), msg(efs::MsgType::kInfo),
             util::encode_to_bytes(req));
}

void issue_read_many(sim::AsyncBatch& batch, efs::EfsClient& lfs,
                     efs::FileId id, std::vector<std::uint32_t> locals) {
  efs::ReadManyRequest req{id, std::move(locals)};
  batch.call(lfs.service(), msg(efs::MsgType::kReadMany),
             util::encode_to_bytes(req));
}

void issue_write(sim::AsyncBatch& batch, efs::EfsClient& lfs, efs::FileId id,
                 std::uint32_t local_block, std::vector<std::byte> payload) {
  efs::WriteRequest req{id, local_block, std::move(payload)};
  batch.call(lfs.service(), msg(efs::MsgType::kWrite),
             util::encode_to_bytes(req));
}

void issue_write_run(sim::AsyncBatch& batch, efs::EfsClient& lfs,
                     efs::FileId id, std::vector<std::uint32_t> locals,
                     std::vector<std::vector<std::byte>> payloads) {
  // Singleton runs write through with kWrite (no preflight, no staged
  // flush), same convention as the Bridge Server's pipeline.
  if (locals.size() == 1) {
    issue_write(batch, lfs, id, locals[0], std::move(payloads[0]));
    return;
  }
  efs::WriteManyRequest req{id, std::move(locals), std::move(payloads)};
  batch.call(lfs.service(), msg(efs::MsgType::kWriteMany),
             util::encode_to_bytes(req));
}

util::Result<efs::InfoResponse> take_info(
    util::Result<std::vector<std::byte>> reply) {
  if (!reply.is_ok()) return reply.status();
  return util::decode_from_bytes<efs::InfoResponse>(reply.value());
}

util::Result<std::vector<std::vector<std::byte>>> take_read_many(
    util::Result<std::vector<std::byte>> reply, std::size_t count) {
  if (!reply.is_ok()) return reply.status();
  return efs::read_many_blocks(reply.value(), count);
}

/// The block of a one-block kReadMany reply.
util::Result<std::vector<std::byte>> take_read(
    util::Result<std::vector<std::byte>> reply) {
  auto blocks = take_read_many(std::move(reply), 1);
  if (!blocks.is_ok()) return blocks.status();
  return std::move(blocks.value()[0]);
}

/// A spare/repaired LFS starts from scratch: whatever survives of the old
/// constituent is truncated away (every lost block gets a fresh free marker,
/// so stale content cannot mask a broken rebuild) and the rebuild re-appends
/// from zero.  Truncate's track-coalesced frees make this far cheaper than a
/// per-block delete; a constituent missing entirely is created instead.
void issue_reset(sim::AsyncBatch& batch, efs::EfsClient& lfs,
                 efs::FileId id) {
  efs::TruncateRequest req{id, 0};
  batch.call(lfs.service(), msg(efs::MsgType::kTruncate),
             util::encode_to_bytes(req));
}

util::Status take_reset(util::Result<std::vector<std::byte>> reply,
                        efs::EfsClient& lfs, efs::FileId id) {
  if (reply.is_ok()) return util::ok_status();
  if (reply.status().code() != util::ErrorCode::kNotFound) {
    return reply.status();
  }
  return lfs.create(id);
}

std::vector<std::uint32_t> local_range(std::uint32_t lo, std::uint32_t hi) {
  std::vector<std::uint32_t> locals;
  locals.reserve(hi - lo);
  for (std::uint32_t l = lo; l < hi; ++l) locals.push_back(l);
  return locals;
}

// --- Rebuild engine ---------------------------------------------------------

/// One constituent a rebuild reads from (source) or re-creates (target).
struct Constituent {
  efs::EfsClient* lfs = nullptr;
  efs::FileId id = 0;
  std::uint32_t blocks = 0;  ///< local blocks it holds / must hold

  /// End of this constituent's share of window [lo, hi): [lo, end) is empty
  /// once the window runs past its last block.
  [[nodiscard]] std::uint32_t end(std::uint32_t lo, std::uint32_t hi) const {
    return std::max(lo, std::min(blocks, hi));
  }
};

/// Wrapped blocks per constituent for one window, each run starting at the
/// window's first local block.
using WindowRuns = std::vector<std::vector<std::vector<std::byte>>>;

/// The one windowed rebuild loop behind every `rebuild_lfs`.  Targets are
/// reset (batch 0, alongside window 0's reads), then windows of local blocks
/// stream through: one kReadMany per source, `reconstruct(lo, hi, runs)`
/// turns the sources' runs into each target's payloads, and one write run
/// per target lands them.  Double-buffered: the batch that carries window
/// k's writes also carries window k+1's reads, so the targets land data
/// while the sources stream ahead.  A failed write truncates every target
/// back to its window start, so any failure leaves the targets at a window
/// boundary and a retry starts clean.
template <typename Reconstruct>
util::Result<RebuildReport> run_rebuild(sim::Context& ctx, sim::RpcClient& rpc,
                                        const std::vector<Constituent>& sources,
                                        const std::vector<Constituent>& targets,
                                        std::uint32_t window_blocks,
                                        const char* where,
                                        Reconstruct&& reconstruct) {
  std::uint32_t window = std::max<std::uint32_t>(window_blocks, 1);
  std::uint32_t todo = 0;
  for (const auto& t : targets) todo = std::max(todo, t.blocks);
  auto issue_reads = [&](sim::AsyncBatch& batch, std::uint32_t lo) {
    std::uint32_t hi = std::min(todo, lo + window);
    for (const auto& s : sources) {
      if (lo < s.end(lo, hi)) {
        issue_read_many(batch, *s.lfs, s.id, local_range(lo, s.end(lo, hi)));
      }
    }
  };

  RebuildReport report;
  std::vector<std::uint32_t> pending;  ///< blocks of each in-flight write run
  std::uint32_t pending_lo = 0;
  bool reset_pending = true;
  // Take the replies riding at the front of a drained batch: the resets
  // (batch 0 only), then the previous window's writes.
  auto reap = [&](std::vector<util::Result<std::vector<std::byte>>>& replies,
                  std::size_t& b) -> util::Status {
    if (reset_pending) {
      for (const auto& t : targets) {
        if (auto st = take_reset(std::move(replies[b++]), *t.lfs, t.id);
            !st.is_ok()) {
          return st;
        }
      }
      reset_pending = false;
    }
    util::Status write_status = util::ok_status();
    for (std::size_t i = 0; i < pending.size(); ++i, ++b) {
      if (!replies[b].is_ok() && write_status.is_ok()) {
        write_status = replies[b].status();
      }
    }
    if (!write_status.is_ok()) {
      for (const auto& t : targets) {
        rollback_truncate(*t.lfs, t.id, pending_lo, where);
      }
      return write_status;
    }
    for (auto blocks : pending) report.blocks_rebuilt += blocks;
    if (!pending.empty()) ++report.windows;
    pending.clear();
    return util::ok_status();
  };

  auto batch = std::make_unique<sim::AsyncBatch>(rpc);
  for (const auto& t : targets) issue_reset(*batch, *t.lfs, t.id);
  issue_reads(*batch, 0);
  for (std::uint32_t lo = 0; lo < todo; lo += window) {
    sim::ScopedSpan window_span(ctx, "rebuild.window");
    std::uint32_t hi = std::min(todo, lo + window);
    auto replies = batch->wait_all();
    std::size_t b = 0;
    if (auto st = reap(replies, b); !st.is_ok()) return st;

    WindowRuns runs(sources.size());
    for (std::size_t i = 0; i < sources.size(); ++i) {
      std::uint32_t end = sources[i].end(lo, hi);
      if (lo == end) continue;
      auto run = take_read_many(std::move(replies[b++]), end - lo);
      if (!run.is_ok()) return run.status();
      report.blocks_read += end - lo;
      runs[i] = std::move(run).value();
    }
    auto payloads = reconstruct(lo, hi, runs);
    if (!payloads.is_ok()) return payloads.status();

    batch = std::make_unique<sim::AsyncBatch>(rpc);
    for (std::size_t t = 0; t < targets.size(); ++t) {
      std::uint32_t end = targets[t].end(lo, hi);
      if (lo == end) continue;
      pending.push_back(end - lo);
      issue_write_run(*batch, *targets[t].lfs, targets[t].id,
                      local_range(lo, end), std::move(payloads.value()[t]));
    }
    pending_lo = lo;
    if (hi < todo) issue_reads(*batch, hi);
  }

  // Drain the final window's writes (or, for an empty file, the resets).
  auto replies = batch->wait_all();
  std::size_t b = 0;
  if (auto st = reap(replies, b); !st.is_ok()) return st;
  return report;
}

/// Running XOR of one parity stripe.  A data block contributes its payload
/// and payload length; a parity block its payload and its length word
/// (reserved0, the XOR of the stripe's lengths), and its fill word.
struct StripeXor {
  std::vector<std::byte> bytes = std::vector<std::byte>(efs::kUserDataBytes);
  std::uint32_t length_xor = 0;
  std::uint32_t data_blocks = 0;   ///< data blocks folded
  std::uint32_t parity_fill = 0;   ///< folded parity block's fill word

  util::Status fold(std::span<const std::byte> raw, bool is_parity) {
    auto block = unwrap_block(raw);
    if (!block.is_ok()) return block.status();
    const auto& payload = block.value().user_data;
    for (std::size_t b = 0; b < payload.size(); ++b) bytes[b] ^= payload[b];
    if (is_parity) {
      length_xor ^= block.value().header.reserved0;
      parity_fill = block.value().header.reserved1;
    } else {
      length_xor ^= static_cast<std::uint32_t>(payload.size());
      ++data_blocks;
    }
    return util::ok_status();
  }
};

/// Fold a window of `count` stripes run by run; runs at index `parity_run`
/// and beyond are parity blocks.
util::Result<std::vector<StripeXor>> fold_window(std::uint32_t count,
                                                 const WindowRuns& runs,
                                                 std::size_t parity_run) {
  std::vector<StripeXor> stripes(count);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    for (std::size_t s = 0; s < runs[i].size(); ++s) {
      if (auto st = stripes[s].fold(runs[i][s], i >= parity_run);
          !st.is_ok()) {
        return st;
      }
    }
  }
  return stripes;
}

}  // namespace

// --- MirroredFile -----------------------------------------------------------

MirroredFile::MirroredFile(sim::Context& ctx, tools::ToolEnv env,
                           FileMeta primary, FileMeta mirror)
    : ctx_(&ctx),
      env_(std::move(env)),
      primary_(std::move(primary)),
      mirror_(std::move(mirror)) {
  rpc_ = std::make_unique<sim::RpcClient>(ctx);
  lfs_ = env_.make_lfs_clients(*rpc_);
  size_ = primary_.size_blocks;
}

util::Result<MirroredFile> MirroredFile::open(sim::Context& ctx,
                                              BridgeApi& client,
                                              const std::string& name) {
  auto env = tools::discover(client);
  if (!env.is_ok()) return env.status();
  if (env.value().num_lfs() < 2) {
    return util::invalid_argument("mirroring needs at least 2 LFSs");
  }
  auto primary = open_or_create(client, name);
  if (!primary.is_ok()) return primary.status();
  auto mirror = open_or_create(client, name + "!mirror");
  if (!mirror.is_ok()) return mirror.status();
  MirroredFile file(ctx, std::move(env).value(), std::move(primary).value(),
                    std::move(mirror).value());
  if (auto st = file.derive_size(); !st.is_ok()) return st;
  return file;
}

util::Status MirroredFile::derive_size() {
  std::uint32_t p = env_.num_lfs();
  sim::AsyncBatch batch(*rpc_);
  for (std::uint32_t i = 0; i < p; ++i) {
    issue_info(batch, *lfs_[i], primary_.lfs_file_id);
  }
  for (std::uint32_t i = 0; i < p; ++i) {
    issue_info(batch, *lfs_[i], mirror_.lfs_file_id);
  }
  auto replies = batch.wait_all();
  std::uint64_t size = 0;
  for (std::uint32_t o = 0; o < p; ++o) {
    std::uint32_t home = (primary_.start_lfs + o) % p;
    std::uint32_t partner = (home + p / 2) % p;
    auto primary_info = take_info(std::move(replies[home]));
    auto mirror_info = take_info(std::move(replies[p + partner]));
    if (!primary_info.is_ok() && !mirror_info.is_ok()) {
      return util::unavailable("double failure: cannot derive mirrored size");
    }
    // A rebuild interrupted mid-way leaves one copy short: the longer copy
    // holds the constituent's blocks.
    std::uint64_t blocks = 0;
    if (primary_info.is_ok()) blocks = primary_info.value().size_blocks;
    if (mirror_info.is_ok()) {
      blocks = std::max<std::uint64_t>(blocks, mirror_info.value().size_blocks);
    }
    size += blocks;
  }
  size_ = size;
  return util::ok_status();
}

util::Status MirroredFile::append(std::span<const std::byte> data) {
  return append_many({std::vector<std::byte>(data.begin(), data.end())});
}

util::Status MirroredFile::append_many(
    const std::vector<std::vector<std::byte>>& blocks) {
  if (blocks.empty()) return util::ok_status();
  std::uint32_t p = env_.num_lfs();

  // Group the run per constituent: blocks homed on LFS j join j's primary
  // group, their mirror copies join ((j + p/2) mod p)'s mirror group.
  struct Group {
    std::vector<std::uint32_t> locals;
    std::vector<std::vector<std::byte>> payloads;
  };
  std::vector<Group> primary_groups(p), mirror_groups(p);
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    std::uint64_t n = size_ + i;
    auto home = striped_placement(n, p, primary_.start_lfs, p);
    std::uint32_t mirror_lfs = (home.lfs_index + p / 2) % p;
    auto wrapped_primary = wrap_for(primary_, n, blocks[i]);
    if (!wrapped_primary.is_ok()) return wrapped_primary.status();
    auto wrapped_mirror = wrap_for(mirror_, n, blocks[i]);
    if (!wrapped_mirror.is_ok()) return wrapped_mirror.status();
    // The mirror file lays its blocks out with the same local numbering but
    // shifted start, so block n's mirror local number equals the home's.
    primary_groups[home.lfs_index].locals.push_back(home.local_block);
    primary_groups[home.lfs_index].payloads.push_back(
        std::move(wrapped_primary).value());
    mirror_groups[mirror_lfs].locals.push_back(home.local_block);
    mirror_groups[mirror_lfs].payloads.push_back(
        std::move(wrapped_mirror).value());
  }

  // One request per constituent touched, all in flight together.
  struct Issued {
    std::uint32_t lfs = 0;
    efs::FileId id = 0;
  };
  sim::AsyncBatch batch(*rpc_);
  std::vector<Issued> issued;
  for (std::uint32_t j = 0; j < p; ++j) {
    if (!primary_groups[j].locals.empty()) {
      issued.push_back({j, primary_.lfs_file_id});
      issue_write_run(batch, *lfs_[j], primary_.lfs_file_id,
                      std::move(primary_groups[j].locals),
                      std::move(primary_groups[j].payloads));
    }
    if (!mirror_groups[j].locals.empty()) {
      issued.push_back({j, mirror_.lfs_file_id});
      issue_write_run(batch, *lfs_[j], mirror_.lfs_file_id,
                      std::move(mirror_groups[j].locals),
                      std::move(mirror_groups[j].payloads));
    }
  }
  if (auto first_error = batch.wait_all_ok(); !first_error.is_ok()) {
    // Compensate: roll every touched constituent back to its pre-run length
    // (kTruncate is a no-op for any whose write never landed).  A truncate
    // aimed at the failed LFS itself fails too — nothing was written there.
    for (const auto& entry : issued) {
      std::uint32_t o = entry.id == primary_.lfs_file_id
                            ? (entry.lfs + p - primary_.start_lfs % p) % p
                            : ((entry.lfs + p - p / 2) % p + p -
                               primary_.start_lfs % p) %
                                  p;
      rollback_truncate(*lfs_[entry.lfs], entry.id, offset_count(size_, p, o),
                        "MirroredFile::append_many");
    }
    return first_error;
  }
  size_ += blocks.size();
  return util::ok_status();
}

util::Result<std::vector<std::byte>> MirroredFile::read(std::uint64_t n,
                                                        bool* used_mirror) {
  if (used_mirror != nullptr) *used_mirror = false;
  if (n >= size_) return util::invalid_argument("read past EOF");
  std::uint32_t p = env_.num_lfs();
  auto home = striped_placement(n, p, primary_.start_lfs, p);
  auto primary = read_unwrapped(*lfs_[home.lfs_index], primary_,
                                home.local_block);
  if (primary.is_ok()) return primary;
  if (primary.status().code() != util::ErrorCode::kUnavailable) return primary;
  std::uint32_t mirror_lfs = (home.lfs_index + p / 2) % p;
  if (used_mirror != nullptr) *used_mirror = true;
  return read_unwrapped(*lfs_[mirror_lfs], mirror_, home.local_block);
}

util::Result<RebuildReport> MirroredFile::rebuild_lfs(
    std::uint32_t failed_idx, RebuildOptions options) {
  std::uint32_t p = env_.num_lfs();
  if (failed_idx >= p) return util::invalid_argument("no such LFS");

  // LFS f held two constituents: the primary blocks homed on f (mirrored on
  // partner = f + p/2) and the mirror copies of blocks homed on g = f - p/2.
  // Source t holds the surviving copy of target t's blocks.
  std::uint32_t partner = (failed_idx + p / 2) % p;
  std::uint32_t g = (failed_idx + p - p / 2) % p;
  std::uint32_t start = primary_.start_lfs % p;
  const std::uint32_t offsets[2] = {(failed_idx + p - start) % p,
                                    (g + p - start) % p};
  const FileMeta* metas[2] = {&primary_, &mirror_};
  std::uint32_t primary_count = offset_count(size_, p, offsets[0]);
  std::uint32_t mirror_count = offset_count(size_, p, offsets[1]);
  std::vector<Constituent> sources = {
      {lfs_[partner].get(), mirror_.lfs_file_id, primary_count},
      {lfs_[g].get(), primary_.lfs_file_id, mirror_count}};
  std::vector<Constituent> targets = {
      {lfs_[failed_idx].get(), primary_.lfs_file_id, primary_count},
      {lfs_[failed_idx].get(), mirror_.lfs_file_id, mirror_count}};

  // Rewrap each surviving copy for the constituent being rebuilt, verifying
  // the checksum and global position en route.
  auto rewrap = [&](std::uint32_t lo, std::uint32_t,
                    const WindowRuns& runs) -> util::Result<WindowRuns> {
    WindowRuns payloads(2);
    for (std::size_t t = 0; t < 2; ++t) {
      for (std::size_t i = 0; i < runs[t].size(); ++i) {
        auto block = unwrap_block(runs[t][i]);
        if (!block.is_ok()) return block.status();
        std::uint64_t global = (lo + i) * p + offsets[t];
        if (block.value().header.global_block_no != global) {
          return util::corrupt("surviving copy holds the wrong global block");
        }
        auto wrapped = wrap_for(*metas[t], global, block.value().user_data);
        if (!wrapped.is_ok()) return wrapped.status();
        payloads[t].push_back(std::move(wrapped).value());
      }
    }
    return payloads;
  };
  return run_rebuild(*ctx_, *rpc_, sources, targets, options.window_blocks,
                     "MirroredFile::rebuild_lfs", rewrap);
}

// --- ParityFile -------------------------------------------------------------

ParityFile::ParityFile(sim::Context& ctx, tools::ToolEnv env, FileMeta data,
                       FileMeta parity)
    : ctx_(&ctx),
      env_(std::move(env)),
      data_(std::move(data)),
      parity_(std::move(parity)) {
  rpc_ = std::make_unique<sim::RpcClient>(ctx);
  lfs_ = env_.make_lfs_clients(*rpc_);
  size_ = data_.size_blocks;
}

util::Result<ParityFile> ParityFile::open(sim::Context& ctx,
                                          BridgeApi& client,
                                          const std::string& name) {
  auto env = tools::discover(client);
  if (!env.is_ok()) return env.status();
  if (env.value().num_lfs() < 3) {
    return util::invalid_argument("parity needs at least 3 LFSs");
  }
  std::uint32_t data_width = env.value().num_lfs() - 1;
  auto open = client.open(name);
  FileMeta data;
  if (open.is_ok()) {
    data = open.value().meta;
  } else if (open.status().code() == util::ErrorCode::kNotFound) {
    CreateOptions options;
    options.width = data_width;
    options.start_lfs = 0;
    if (auto created = client.create(name, options); !created.is_ok()) {
      return created.status();
    }
    auto reopened = client.open(name);
    if (!reopened.is_ok()) return reopened.status();
    data = reopened.value().meta;
  } else {
    return open.status();
  }
  // Parity lives as a width-1 file on the last LFS.
  auto parity_open = client.open(name + "!parity");
  FileMeta parity;
  if (parity_open.is_ok()) {
    parity = parity_open.value().meta;
  } else if (parity_open.status().code() == util::ErrorCode::kNotFound) {
    CreateOptions options;
    options.width = 1;
    options.start_lfs = data_width;
    if (auto created = client.create(name + "!parity", options);
        !created.is_ok()) {
      return created.status();
    }
    auto reopened = client.open(name + "!parity");
    if (!reopened.is_ok()) return reopened.status();
    parity = reopened.value().meta;
  } else {
    return parity_open.status();
  }
  ParityFile file(ctx, std::move(env).value(), std::move(data),
                  std::move(parity));
  if (auto st = file.derive_size(); !st.is_ok()) return st;
  return file;
}

util::Status ParityFile::derive_size() {
  std::uint32_t width = data_width();
  std::uint32_t total = env_.num_lfs();
  sim::AsyncBatch batch(*rpc_);
  for (std::uint32_t o = 0; o < width; ++o) {
    issue_info(batch, *lfs_[(data_.start_lfs + o) % total],
               data_.lfs_file_id);
  }
  issue_info(batch, *lfs_[parity_lfs_index()], parity_.lfs_file_id);
  auto replies = batch.wait_all();

  std::uint64_t known_sum = 0;
  std::uint32_t unknown = 0;
  for (std::uint32_t o = 0; o < width; ++o) {
    auto info = take_info(std::move(replies[o]));
    if (info.is_ok()) {
      known_sum += info.value().size_blocks;
    } else {
      ++unknown;
    }
  }
  if (unknown > 1) {
    return util::unavailable("double failure: cannot derive parity size");
  }
  // The parity file knows the stripe count, and its last block's fill word
  // says how full the last stripe is.  A rebuild interrupted mid-way leaves
  // a data constituent short, and the counts alone cannot always tell: one
  // block missing from the constituent that holds the last block leaves
  // exactly the counts of a file one block shorter.  So the fill word is
  // read on every open, and the longer derivation wins.  When the parity
  // constituent cannot answer (its LFS is down, or its disk failed), every
  // data constituent answering still sizes the file.
  auto parity_failed = [&](util::Status status) {
    if (unknown > 0) return status;
    size_ = known_sum;
    return util::ok_status();
  };
  auto parity_info = take_info(std::move(replies[width]));
  if (!parity_info.is_ok()) {
    return parity_failed(
        util::unavailable("double failure: cannot derive parity size"));
  }
  std::uint64_t stripes = parity_info.value().size_blocks;
  std::uint64_t from_parity = 0;
  if (stripes > 0) {
    auto last = read_block(*lfs_[parity_lfs_index()], parity_,
                           static_cast<std::uint32_t>(stripes - 1));
    if (!last.is_ok()) return parity_failed(last.status());
    std::uint32_t fill = last.value().header.reserved1;
    if (fill == 0 || fill > width) {
      return util::corrupt("parity fill word out of range");
    }
    from_parity = (stripes - 1) * width + fill;
  }
  size_ = std::max(known_sum, from_parity);
  return util::ok_status();
}

util::Status ParityFile::append_stripe(
    const std::vector<std::vector<std::byte>>& blocks) {
  std::uint32_t width = data_width();
  std::uint32_t total = env_.num_lfs();
  if (blocks.empty() || blocks.size() > width) {
    return util::invalid_argument("stripe must hold 1..p-1 blocks");
  }
  if (size_ % width != 0) {
    return util::invalid_argument("previous stripe incomplete");
  }
  std::uint32_t stripe = static_cast<std::uint32_t>(size_ / width);

  // Build the whole stripe first: wrapped data blocks plus the parity block,
  // whose reserved words carry the XOR of the payload lengths and the fill
  // count (what reconstruction needs to return short blocks byte-identical).
  std::vector<std::byte> parity(efs::kUserDataBytes, std::byte{0});
  std::uint32_t length_xor = 0;
  std::vector<std::vector<std::byte>> wrapped(blocks.size());
  std::vector<std::uint32_t> data_lfs(blocks.size());
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    if (blocks[i].size() > efs::kUserDataBytes) {
      return util::invalid_argument("block too large");
    }
    std::uint64_t n = size_ + i;
    auto placement = striped_placement(n, width, data_.start_lfs, total);
    auto w = wrap_for(data_, n, blocks[i]);
    if (!w.is_ok()) return w.status();
    wrapped[i] = std::move(w).value();
    data_lfs[i] = placement.lfs_index;
    for (std::size_t b = 0; b < blocks[i].size(); ++b) {
      parity[b] ^= blocks[i][b];
    }
    length_xor ^= static_cast<std::uint32_t>(blocks[i].size());
  }
  auto parity_wrapped =
      wrap_for(parity_, stripe, parity, length_xor,
               static_cast<std::uint32_t>(blocks.size()));
  if (!parity_wrapped.is_ok()) return parity_wrapped.status();

  // Every data block of a stripe lives on a distinct LFS: one write per
  // LFS, data and parity all in flight together.
  sim::AsyncBatch batch(*rpc_);
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    issue_write(batch, *lfs_[data_lfs[i]], data_.lfs_file_id, stripe,
                std::move(wrapped[i]));
  }
  issue_write(batch, *lfs_[parity_lfs_index()], parity_.lfs_file_id, stripe,
              std::move(parity_wrapped).value());
  if (auto first_error = batch.wait_all_ok(); !first_error.is_ok()) {
    // Compensate: every constituent of this stripe rolls back to `stripe`
    // local blocks — no torn stripe whose parity silently XORs garbage.
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      rollback_truncate(*lfs_[data_lfs[i]], data_.lfs_file_id, stripe,
                        "ParityFile::append_stripe");
    }
    rollback_truncate(*lfs_[parity_lfs_index()], parity_.lfs_file_id, stripe,
                      "ParityFile::append_stripe");
    return first_error;
  }
  size_ += blocks.size();
  return util::ok_status();
}

util::Result<std::vector<std::byte>> ParityFile::read(std::uint64_t n,
                                                      bool* reconstructed) {
  if (reconstructed != nullptr) *reconstructed = false;
  if (n >= size_) return util::invalid_argument("read past EOF");
  std::uint32_t width = data_width();
  std::uint32_t total = env_.num_lfs();
  auto placement = striped_placement(n, width, data_.start_lfs, total);
  auto direct = read_unwrapped(*lfs_[placement.lfs_index], data_,
                               placement.local_block);
  if (direct.is_ok()) return direct;
  if (direct.status().code() != util::ErrorCode::kUnavailable) return direct;

  // Reconstruct: gather the stripe's surviving data blocks and the parity
  // block in one concurrent round, then XOR.
  if (reconstructed != nullptr) *reconstructed = true;
  std::uint64_t stripe = n / width;
  std::uint64_t stripe_first = stripe * width;
  std::uint64_t stripe_end = std::min<std::uint64_t>(stripe_first + width,
                                                     size_);
  sim::AsyncBatch batch(*rpc_);
  for (std::uint64_t m = stripe_first; m < stripe_end; ++m) {
    if (m == n) continue;
    auto sibling_place = striped_placement(m, width, data_.start_lfs, total);
    issue_read_many(batch, *lfs_[sibling_place.lfs_index], data_.lfs_file_id,
                    {sibling_place.local_block});
  }
  issue_read_many(batch, *lfs_[parity_lfs_index()], parity_.lfs_file_id,
                  {static_cast<std::uint32_t>(stripe)});
  auto replies = batch.wait_all();  // siblings in stripe order, then parity

  StripeXor stripe_xor;
  for (std::size_t b = 0; b + 1 < replies.size(); ++b) {
    auto raw = take_read(std::move(replies[b]));
    if (!raw.is_ok()) {
      return util::unavailable("double failure: cannot reconstruct");
    }
    if (auto st = stripe_xor.fold(raw.value(), /*is_parity=*/false);
        !st.is_ok()) {
      return st;
    }
  }
  auto parity_raw = take_read(std::move(replies.back()));
  if (!parity_raw.is_ok()) return parity_raw.status();
  if (auto st = stripe_xor.fold(parity_raw.value(), /*is_parity=*/true);
      !st.is_ok()) {
    return st;
  }
  if (stripe_xor.parity_fill != stripe_end - stripe_first) {
    return util::corrupt("parity fill word disagrees with file size");
  }
  // The failed block's true length: XOR of the stripe's lengths (parity
  // header) against the surviving lengths.
  if (stripe_xor.length_xor > efs::kUserDataBytes) {
    return util::corrupt("reconstructed length out of range");
  }
  stripe_xor.bytes.resize(stripe_xor.length_xor);
  return std::move(stripe_xor.bytes);
}

util::Result<RebuildReport> ParityFile::rebuild_lfs(std::uint32_t failed_idx,
                                                    RebuildOptions options) {
  std::uint32_t width = data_width();
  std::uint32_t total = env_.num_lfs();
  if (failed_idx >= total) return util::invalid_argument("no such LFS");
  std::vector<Constituent> data;
  for (std::uint32_t o = 0; o < width; ++o) {
    data.push_back({lfs_[(data_.start_lfs + o) % total].get(),
                    data_.lfs_file_id, offset_count(size_, width, o)});
  }
  Constituent parity{lfs_[parity_lfs_index()].get(), parity_.lfs_file_id,
                     static_cast<std::uint32_t>((size_ + width - 1) / width)};

  if (failed_idx == parity_lfs_index()) {
    // Parity block s is the XOR of stripe s's data payloads; its header
    // words carry the stripe's length XOR and fill count.
    auto recompute = [&](std::uint32_t lo, std::uint32_t hi,
                         const WindowRuns& runs) -> util::Result<WindowRuns> {
      auto stripes = fold_window(hi - lo, runs, runs.size());
      if (!stripes.is_ok()) return stripes.status();
      WindowRuns payloads(1);
      for (std::uint32_t s = lo; s < hi; ++s) {
        const auto& x = stripes.value()[s - lo];
        auto wrapped = wrap_for(parity_, s, x.bytes, x.length_xor,
                                x.data_blocks);
        if (!wrapped.is_ok()) return wrapped.status();
        payloads[0].push_back(std::move(wrapped).value());
      }
      return payloads;
    };
    return run_rebuild(*ctx_, *rpc_, data, {parity}, options.window_blocks,
                       "ParityFile::rebuild_lfs", recompute);
  }

  std::uint32_t o_f = (failed_idx + total - data_.start_lfs % total) % total;
  if (o_f >= width) {
    return util::invalid_argument("LFS holds no data constituent");
  }
  // Lost block s is the XOR of stripe s's surviving data blocks and its
  // parity block; the parity length word re-derives its exact byte length.
  Constituent target = data[o_f];
  data.erase(data.begin() + o_f);
  data.push_back(parity);
  auto reconstruct = [&](std::uint32_t lo, std::uint32_t hi,
                         const WindowRuns& runs) -> util::Result<WindowRuns> {
    auto stripes = fold_window(hi - lo, runs, runs.size() - 1);
    if (!stripes.is_ok()) return stripes.status();
    WindowRuns payloads(1);
    for (std::uint32_t s = lo; s < hi; ++s) {
      const auto& x = stripes.value()[s - lo];
      if (x.length_xor > efs::kUserDataBytes) {
        return util::corrupt("reconstructed length out of range");
      }
      auto wrapped = wrap_for(
          data_, static_cast<std::uint64_t>(s) * width + o_f,
          std::span<const std::byte>(x.bytes).first(x.length_xor));
      if (!wrapped.is_ok()) return wrapped.status();
      payloads[0].push_back(std::move(wrapped).value());
    }
    return payloads;
  };
  return run_rebuild(*ctx_, *rpc_, data, {target}, options.window_blocks,
                     "ParityFile::rebuild_lfs", reconstruct);
}

}  // namespace bridge::core
