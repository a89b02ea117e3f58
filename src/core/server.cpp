#include "src/core/server.hpp"

#include <algorithm>
#include <cmath>

#include "src/core/bridge_block.hpp"
#include "src/sim/race_annotate.hpp"
#include "src/util/logging.hpp"

namespace bridge::core {

namespace {
using Reply = sim::AsyncBatch::Reply;

constexpr std::uint32_t msg(BridgeMsg m) { return static_cast<std::uint32_t>(m); }
constexpr std::uint32_t msg(efs::MsgType m) {
  return static_cast<std::uint32_t>(m);
}
}  // namespace

void BridgeServerStats::publish(obs::MetricsRegistry& registry,
                                const std::string& prefix) const {
  registry.counter(prefix + ".requests").set(requests);
  registry.counter(prefix + ".blocks_forwarded").set(blocks_forwarded);
  registry.counter(prefix + ".parallel_rounds").set(parallel_rounds);
  registry.counter(prefix + ".vectored_batches").set(vectored_batches);
  registry.counter(prefix + ".vectored_blocks").set(vectored_blocks);
  registry.counter(prefix + ".renames_local").set(renames_local);
  registry.counter(prefix + ".renames_out").set(renames_out);
  registry.counter(prefix + ".renames_in").set(renames_in);
  registry.counter(prefix + ".rename_aborts").set(rename_aborts);
  registry.counter(prefix + ".lists").set(lists);
}

BridgeServer::BridgeServer(sim::Runtime& rt, sim::NodeId node,
                           BridgeConfig config,
                           std::vector<sim::Address> lfs_services,
                           std::vector<std::uint32_t> lfs_nodes,
                           BridgeFileId file_id_base)
    : rt_(rt),
      node_(node),
      config_(config),
      lfs_services_(std::move(lfs_services)),
      lfs_nodes_(std::move(lfs_nodes)) {
  next_file_id_ = file_id_base;
  home_ = file_id_home(file_id_base);
  mailbox_ = std::make_unique<sim::Mailbox>(rt.scheduler(), node);
}

void BridgeServer::start() {
  if (started_) return;
  started_ = true;
  rt_.spawn(node_, "bridge-server", [this](sim::Context& ctx) {
    ctx.set_daemon();
    serve(ctx);
  });
}

void BridgeServer::serve(sim::Context& ctx) {
  sim::RpcClient rpc(ctx);
  Wire wire{ctx, rpc};
  std::string lane = "bridge.n" + std::to_string(node_);
  obs::Histogram& queue_us = rt_.metrics().histogram(lane + ".queue_us");
  obs::Histogram& service_us = rt_.metrics().histogram(lane + ".service_us");
  obs::Tracer& tracer = rt_.tracer();
  while (true) {
    sim::Envelope env = mailbox_->recv();
    ++stats_.requests;
    // Queue wait vs service split (the §5 server-bottleneck question):
    // sent_at -> dequeue is wire latency plus time parked behind earlier
    // requests; dequeue -> reply is this server's own service time.
    sim::SimTime queued = ctx.now() - env.sent_at;
    queue_us.record(static_cast<std::uint64_t>(queued.us()));
    rt_.stages().charge(env.trace.request_id, obs::Stage::kBridgeQueue,
                        queued.us());
    if (tracer.enabled()) {
      tracer.complete(node_, ctx.pid(), "bridge.queue", env.sent_at.us(),
                      queued.us(), env.trace);
    }
    sim::SimTime t0 = ctx.now();
    {
      // Adopt the originating request for the handler's duration so every
      // downstream RPC and disk access charges the right ledger row.
      sim::AdoptedRequest adopted(ctx, env.trace.request_id);
      sim::ScopedSpan span(
          ctx, bridge_msg_name(static_cast<BridgeMsg>(env.type)), env.trace);
      handle(wire, env);
    }
    sim::SimTime serviced = ctx.now() - t0;
    service_us.record(static_cast<std::uint64_t>(serviced.us()));
    rt_.stages().charge(env.trace.request_id, obs::Stage::kBridgeSvc,
                        serviced.us());
  }
}

void BridgeServer::handle(Wire& wire, const sim::Envelope& env) {
  wire.ctx.charge(config_.request_cpu);
  try {
    switch (static_cast<BridgeMsg>(env.type)) {
      case BridgeMsg::kCreate: return handle_create(wire, env);
      case BridgeMsg::kDelete: return handle_delete(wire, env);
      case BridgeMsg::kOpen: return handle_open(wire, env);
      case BridgeMsg::kSeqRead: return handle_seq_read(wire, env);
      case BridgeMsg::kRandomRead: return handle_random_read(wire, env);
      case BridgeMsg::kSeqWrite: return handle_seq_write(wire, env);
      case BridgeMsg::kRandomWrite: return handle_random_write(wire, env);
      case BridgeMsg::kParallelOpen: return handle_parallel_open(wire, env);
      case BridgeMsg::kParallelRead: return handle_parallel_read(wire, env);
      case BridgeMsg::kParallelWrite: return handle_parallel_write(wire, env);
      case BridgeMsg::kGetInfo: return handle_get_info(wire, env);
      case BridgeMsg::kDeleteMany: return handle_delete_many(wire, env);
      case BridgeMsg::kResolve: return handle_resolve(wire, env);
      case BridgeMsg::kSeqReadMany: return handle_seq_read_many(wire, env);
      case BridgeMsg::kSeqWriteMany: return handle_seq_write_many(wire, env);
      case BridgeMsg::kRandomReadMany:
        return handle_random_read_many(wire, env);
      case BridgeMsg::kTruncate: return handle_truncate(wire, env);
      case BridgeMsg::kSeqSeek: return handle_seq_seek(wire, env);
      case BridgeMsg::kRename: return handle_rename(wire, env);
      case BridgeMsg::kList: return handle_list(wire, env);
      case BridgeMsg::kRenameInstall: return handle_rename_install(wire, env);
      case BridgeMsg::kRenameAck: return handle_rename_ack(wire, env);
      default: break;
    }
    if (env.reply_to.valid()) {
      sim::send_reply(wire.ctx, env,
                      util::invalid_argument("unknown Bridge message type"));
    }
  } catch (const util::StatusError& e) {
    // Posted notifications (peer acks) carry no reply address; a decode
    // failure on one has nobody to answer.
    if (env.reply_to.valid()) sim::send_reply(wire.ctx, env, e.status());
  }
}

BridgeServer::FileRecord* BridgeServer::find_by_name(const std::string& name) {
  auto it = directory_.find(name);
  return it == directory_.end() ? nullptr : &it->second;
}

util::Result<BridgeServer::SessionFile> BridgeServer::find_session(
    std::uint64_t session_id) {
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return util::not_found("no such session");
  Session& session = it->second;
  FileRecord* record = find_by_name(session.name);
  if (record == nullptr) {
    return util::not_found("file deleted: " + session.name);
  }
  return SessionFile{session, *record};
}

BridgeServer::FileRecord* BridgeServer::find_by_id(BridgeFileId id) {
  auto it = id_index_.find(id);
  return it == id_index_.end() ? nullptr : find_by_name(it->second);
}

FileMeta BridgeServer::meta_of(const FileRecord& record) const {
  FileMeta meta;
  meta.id = record.id;
  meta.name = record.name;
  meta.distribution = static_cast<std::uint8_t>(record.placement.distribution());
  meta.width = record.placement.width();
  meta.start_lfs = record.placement.start_lfs();
  meta.chunk_blocks = record.placement.chunk_blocks();
  meta.size_blocks = record.placement.size_blocks();
  meta.lfs_file_id = record.lfs_file_id;
  return meta;
}

void BridgeServer::handle_create(Wire& wire, const sim::Envelope& env) {
  util::Reader r(env.payload);
  auto req = CreateFileRequest::decode(r);
  if (req.name.empty()) {
    return sim::send_reply(wire.ctx, env, util::invalid_argument("empty name"));
  }
  if (find_by_name(req.name) != nullptr) {
    return sim::send_reply(wire.ctx, env,
                           util::already_exists("file " + req.name));
  }
  if (pending_from_.count(req.name) != 0) {
    // The name is detached by an in-flight outbound rename; creating it now
    // would collide with the reinstated record if the peer aborts.
    return sim::send_reply(
        wire.ctx, env,
        util::unavailable("file " + req.name + " has a rename in flight"));
  }
  if (file_id_home(next_file_id_) != home_) {
    return sim::send_reply(
        wire.ctx, env,
        util::out_of_space("bridge file-id slice exhausted on home " +
                           std::to_string(home_)));
  }
  std::uint32_t p = num_lfs();
  std::uint32_t width = (req.width == 0 || req.width > p) ? p : req.width;
  auto dist = static_cast<Distribution>(req.distribution);
  if (dist == Distribution::kChunked && req.chunk_blocks == 0) {
    return sim::send_reply(
        wire.ctx, env,
        util::invalid_argument("chunked file needs chunk_blocks"));
  }

  FileRecord record;
  record.id = next_file_id_++;
  record.name = req.name;
  record.lfs_file_id = record.id;
  record.placement = PlacementMap(dist, width, req.start_lfs, p,
                                  req.chunk_blocks, req.hash_seed);

  wire.ctx.charge(config_.create_base_cpu);
  // "The Create operation must create an LFS file on each disk.  Bridge gets
  // some parallelism by starting all the LFS operations before waiting for
  // them, but the initiation and termination are sequential" (§4.5).  Only
  // the disks the file spans need one: a width-w file pays 2w sequential
  // steps, and a full-width file the paper's 2p.
  // With tree_create, an embedded binary tree pays one dispatch and one
  // reply step per tree level instead of one per LFS.
  auto span = record.placement.lfs_span();
  std::int64_t levels = 0;
  sim::SimTime dispatch_each = config_.create_dispatch_cpu;
  sim::SimTime reply_each = config_.create_reply_cpu;
  if (config_.tree_create) {
    levels = static_cast<std::int64_t>(
        std::ceil(std::log2(double(span.size()) + 1.0)));
    dispatch_each = reply_each = sim::SimTime{0};
  }
  auto payload = util::encode_to_bytes(efs::CreateRequest{record.lfs_file_id});
  sim::AsyncBatch batch(wire.rpc);
  wire.ctx.charge(config_.create_dispatch_cpu * levels);
  for (std::uint32_t i : span) {
    wire.ctx.charge(dispatch_each);
    batch.call(lfs_services_[i], msg(efs::MsgType::kCreate), payload);
  }
  auto created = batch.wait_each([&](std::size_t, const Reply& reply) {
    if (reply.is_ok()) wire.ctx.charge(reply_each);
    return reply.status();
  });
  if (!created.is_ok()) return sim::send_reply(wire.ctx, env, created);
  wire.ctx.charge(config_.create_reply_cpu * levels);

  BRIDGE_RACE_WRITE(wire.ctx, &directory_, 0, "bridge.directory");
  id_index_[record.id] = record.name;
  directory_[record.name] = std::move(record);
  CreateFileResponse resp{directory_[req.name].id};
  sim::send_reply(wire.ctx, env, util::ok_status(), util::encode_to_bytes(resp));
}

void BridgeServer::handle_delete(Wire& wire, const sim::Envelope& env) {
  util::Reader r(env.payload);
  auto req = DeleteFileRequest::decode(r);
  sim::send_reply(wire.ctx, env, remove_files(wire, {&req.name, 1}));
}

void BridgeServer::handle_delete_many(Wire& wire, const sim::Envelope& env) {
  util::Reader r(env.payload);
  auto req = DeleteManyRequest::decode(r);
  sim::send_reply(wire.ctx, env, remove_files(wire, req.names));
}

util::Status BridgeServer::remove_files(Wire& wire,
                                        std::span<const std::string> names) {
  // Resolve every name before any LFS I/O, so an unknown name deletes
  // nothing.
  std::vector<const FileRecord*> records;
  records.reserve(names.size());
  for (const auto& name : names) {
    const FileRecord* record = find_by_name(name);
    if (record == nullptr) return util::not_found("file " + name);
    records.push_back(record);
  }
  // "The Delete operation runs in parallel on all instances of the LFS"
  // (§4.5).  Every constituent delete of every file is in flight before any
  // is waited for, so the per-LFS work of different files overlaps.
  sim::AsyncBatch batch(wire.rpc);
  for (const FileRecord* record : records) {
    auto payload =
        util::encode_to_bytes(efs::DeleteRequest{record->lfs_file_id});
    for (std::uint32_t i : record->placement.lfs_span()) {
      batch.call(lfs_services_[i], msg(efs::MsgType::kDelete), payload);
    }
  }
  // A constituent that an earlier, partly failed Delete already removed
  // answers kNotFound.  It is gone either way, so a retry completes.
  auto removed = batch.wait_each([](std::size_t, const Reply& reply) {
    if (reply.status().code() == util::ErrorCode::kNotFound) {
      return util::ok_status();
    }
    return reply.status();
  });
  if (!removed.is_ok()) return removed;
  BRIDGE_RACE_WRITE(wire.ctx, &directory_, 0, "bridge.directory");
  for (const auto& name : names) {
    if (const FileRecord* record = find_by_name(name)) {
      id_index_.erase(record->id);
      directory_.erase(name);
    }
  }
  return util::ok_status();
}

util::Result<std::vector<efs::InfoResponse>> BridgeServer::lfs_infos(
    Wire& wire, const FileRecord& record, std::span<const std::uint32_t> lfss) {
  auto payload = util::encode_to_bytes(efs::InfoRequest{record.lfs_file_id});
  sim::AsyncBatch batch(wire.rpc);
  for (std::uint32_t lfs : lfss) {
    batch.call(lfs_services_[lfs], msg(efs::MsgType::kInfo), payload);
  }
  std::vector<efs::InfoResponse> infos;
  infos.reserve(lfss.size());
  auto st = batch.wait_each([&](std::size_t, const Reply& reply) {
    infos.push_back(util::decode_from_bytes<efs::InfoResponse>(reply.value()));
    return util::ok_status();
  });
  if (!st.is_ok()) return st;
  return infos;
}

util::Status BridgeServer::refresh_size(Wire& wire, FileRecord& record) {
  // Tools append to LFS files directly, so the authoritative size is the sum
  // of the constituent sizes ("initial reads of file header and directory
  // information" are part of what Open pays for, §4.5).
  auto infos = lfs_infos(wire, record, record.placement.lfs_span());
  if (!infos.is_ok()) return infos.status();
  std::uint64_t total = 0;
  for (const auto& info : infos.value()) total += info.size_blocks;
  BRIDGE_RACE_WRITE(wire.ctx, &kPlacementRaceAnchor, record.lfs_file_id,
                    "bridge.placement");
  record.placement.set_size_closed_form(total);
  return util::ok_status();
}

void BridgeServer::handle_open(Wire& wire, const sim::Envelope& env) {
  util::Reader r(env.payload);
  auto req = OpenRequest::decode(r);
  BRIDGE_RACE_READ(wire.ctx, &directory_, 0, "bridge.directory");
  FileRecord* record = find_by_name(req.name);
  if (record == nullptr) {
    return sim::send_reply(wire.ctx, env, util::not_found("file " + req.name));
  }
  wire.ctx.charge(config_.open_cpu);
  if (auto st = refresh_size(wire, *record); !st.is_ok()) {
    return sim::send_reply(wire.ctx, env, st);
  }
  Session session;
  session.name = record->name;
  session.read_cursor = 0;
  session.write_cursor = record->placement.size_blocks();
  std::uint64_t session_id = next_session_++;
  sessions_[session_id] = session;

  OpenResponse resp;
  resp.meta = meta_of(*record);
  resp.session = session_id;
  sim::send_reply(wire.ctx, env, util::ok_status(), util::encode_to_bytes(resp));
}

util::Result<std::vector<std::vector<std::byte>>> BridgeServer::read_run(
    Wire& wire, FileRecord& record, std::uint64_t first, std::uint32_t count) {
  BRIDGE_RACE_READ(wire.ctx, &kPlacementRaceAnchor, record.lfs_file_id,
                   "bridge.placement");
  // Place the whole run before any I/O so a bad range costs nothing.
  struct LfsGroup {
    std::vector<std::uint32_t> run_pos;       ///< index within the run
    std::vector<std::uint32_t> local_blocks;  ///< same order as run_pos
  };
  std::vector<LfsGroup> groups(num_lfs());
  for (std::uint32_t i = 0; i < count; ++i) {
    auto placed = record.placement.place(first + i);
    if (!placed.is_ok()) return placed.status();
    auto& group = groups[placed.value().lfs_index];
    group.run_pos.push_back(i);
    group.local_blocks.push_back(placed.value().local_block);
  }

  // Fan one kReadMany out per involved LFS, all in flight at once.
  sim::AsyncBatch batch(wire.rpc);
  std::vector<std::uint32_t> batch_lfs;
  for (std::uint32_t lfs = 0; lfs < groups.size(); ++lfs) {
    const auto& group = groups[lfs];
    if (group.local_blocks.empty()) continue;
    efs::ReadManyRequest req{record.lfs_file_id, group.local_blocks};
    batch.call(lfs_services_[lfs], msg(efs::MsgType::kReadMany),
               util::encode_to_bytes(req));
    batch_lfs.push_back(lfs);
  }
  if (count > 1) {
    ++stats_.vectored_batches;
    stats_.vectored_blocks += count;
  }

  // Gather: replies arrive in any order; AsyncBatch surfaces them in issue
  // order and drains everything even when one LFS fails mid-batch.
  auto replies = batch.wait_all();
  std::vector<std::vector<std::byte>> out(count);
  util::Status first_error = util::ok_status();
  for (std::size_t b = 0; b < replies.size(); ++b) {
    if (!replies[b].is_ok()) {
      if (first_error.is_ok()) first_error = replies[b].status();
      continue;
    }
    const auto& group = groups[batch_lfs[b]];
    auto payloads =
        efs::read_many_blocks(replies[b].value(), group.run_pos.size());
    if (!payloads.is_ok()) {
      if (first_error.is_ok()) first_error = payloads.status();
      continue;
    }
    for (std::size_t j = 0; j < group.run_pos.size(); ++j) {
      auto data = forward_block(wire, record, first + group.run_pos[j],
                                payloads.value()[j]);
      if (!data.is_ok()) {
        if (first_error.is_ok()) first_error = data.status();
        continue;
      }
      out[group.run_pos[j]] = std::move(data).value();
    }
  }
  if (!first_error.is_ok()) return first_error;
  return out;
}

util::Result<std::vector<std::byte>> BridgeServer::forward_block(
    Wire& wire, const FileRecord& record, std::uint64_t n,
    std::span<const std::byte> lfs_block) {
  auto unwrapped = unwrap_block(lfs_block);
  if (!unwrapped.is_ok()) return unwrapped.status();
  if (unwrapped.value().header.global_block_no != n ||
      unwrapped.value().header.file_id != record.lfs_file_id) {
    return util::corrupt("Bridge header does not match requested block");
  }
  wire.ctx.charge(config_.forward_cpu);
  ++stats_.blocks_forwarded;
  return std::move(unwrapped.value().user_data);
}

util::Status BridgeServer::write_run(
    Wire& wire, FileRecord& record, std::uint64_t first,
    std::span<const std::vector<std::byte>> user_blocks) {
  BRIDGE_RACE_WRITE(wire.ctx, &kPlacementRaceAnchor, record.lfs_file_id,
                    "bridge.placement");
  std::uint64_t original_size = record.placement.size_blocks();
  auto rollback = [&] {
    if (record.placement.size_blocks() > original_size) {
      record.placement.truncate(original_size);
    }
  };

  // Stage 1: assign a placement to every block of the run (overwrites via
  // place, appends via append / linked scatter), wrapping payloads as we go.
  // Any failure here rolls the size bookkeeping straight back.
  struct LfsGroup {
    std::vector<std::uint32_t> local_blocks;
    std::vector<std::vector<std::byte>> wrapped;
    std::uint32_t appends = 0;  ///< blocks of this group that grow the file
    std::uint32_t first_append = 0;  ///< local size before this run's appends
  };
  std::vector<LfsGroup> groups(num_lfs());
  for (std::size_t i = 0; i < user_blocks.size(); ++i) {
    std::uint64_t n = first + i;
    std::uint64_t size = record.placement.size_blocks();
    bool is_append = n >= size;
    util::Result<Placement> placed(util::internal_error("unset"));
    if (n < size) {
      placed = record.placement.place(n);
    } else if (record.placement.distribution() == Distribution::kLinked) {
      // Linked "disordered" files (§3): blocks scatter arbitrarily; the
      // directory records each placement explicitly.
      std::uint32_t p = num_lfs();
      std::uint32_t lfs = static_cast<std::uint32_t>(
          util::mix64(record.placement.hash_seed() ^ (n * 0x9E3779B9ull)) % p);
      Placement scatter{lfs, record.placement.next_local(lfs)};
      if (auto st = record.placement.append_linked(scatter); !st.is_ok()) {
        rollback();
        return st;
      }
      placed = scatter;
    } else {
      placed = record.placement.append();
    }
    if (!placed.is_ok()) {
      rollback();
      return placed.status();
    }

    BridgeBlockHeader header;
    header.file_id = record.lfs_file_id;
    header.global_block_no = n;
    header.width = record.placement.width();
    header.start_lfs = record.placement.start_lfs();
    auto wrapped = wrap_block(header, user_blocks[i]);
    if (!wrapped.is_ok()) {
      rollback();
      return wrapped.status();
    }
    auto& group = groups[placed.value().lfs_index];
    group.local_blocks.push_back(placed.value().local_block);
    group.wrapped.push_back(std::move(wrapped).value());
    if (is_append && group.appends++ == 0) {
      group.first_append = placed.value().local_block;
    }
  }

  // Preflight: when an appending run spans several LFSs, one LFS could run
  // out of space after its peers already committed, stranding physical
  // blocks the directory no longer accounts for.  One concurrent Info round
  // checks every appending group's free count before anything is written
  // (the Bridge Server is the only writer of constituent files during the
  // run — it is a monitor — so the counts cannot go stale mid-run).
  // Single-LFS runs skip this: the LFS itself preflights kWriteMany, and a
  // single-block write either happens whole or not at all.
  std::uint32_t involved = 0;
  bool grows = false;
  for (const auto& group : groups) {
    if (!group.local_blocks.empty()) ++involved;
    if (group.appends > 0) grows = true;
  }
  if (grows && involved >= 2) {
    std::vector<std::uint32_t> appending;
    for (std::uint32_t lfs = 0; lfs < groups.size(); ++lfs) {
      if (groups[lfs].appends > 0) appending.push_back(lfs);
    }
    auto infos = lfs_infos(wire, record, appending);
    if (!infos.is_ok()) {
      rollback();
      return infos.status();
    }
    for (std::size_t k = 0; k < appending.size(); ++k) {
      if (infos.value()[k].free_blocks < groups[appending[k]].appends) {
        rollback();
        return util::out_of_space("LFS " + std::to_string(appending[k]) +
                                  " cannot hold this run's appends");
      }
    }
  }

  // Stage 2: scatter — one concurrent request per involved LFS.  Singleton
  // groups keep the plain write envelope; larger groups go vectored (the
  // LFS preflights appends so an out-of-space run fails without leaving a
  // partial tail behind).
  sim::AsyncBatch batch(wire.rpc);
  std::vector<std::uint32_t> issued;  ///< LFS of each batch call
  for (std::uint32_t lfs = 0; lfs < groups.size(); ++lfs) {
    auto& group = groups[lfs];
    if (group.local_blocks.empty()) continue;
    issued.push_back(lfs);
    if (group.local_blocks.size() == 1) {
      efs::WriteRequest req{record.lfs_file_id, group.local_blocks[0],
                            std::move(group.wrapped[0])};
      batch.call(lfs_services_[lfs], msg(efs::MsgType::kWrite),
                 util::encode_to_bytes(req));
    } else {
      efs::WriteManyRequest req{record.lfs_file_id,
                                std::move(group.local_blocks),
                                std::move(group.wrapped)};
      batch.call(lfs_services_[lfs], msg(efs::MsgType::kWriteMany),
                 util::encode_to_bytes(req));
    }
  }
  if (user_blocks.size() > 1) {
    ++stats_.vectored_batches;
    stats_.vectored_blocks += user_blocks.size();
  }

  // Gather completions; one failed LFS fails the run whole.  Every LFS
  // whose appends did land truncates them away again, or the next Open's
  // size refresh would count blocks the directory has rolled back.
  std::vector<std::uint32_t> committed;
  auto st = batch.wait_each([&](std::size_t i, const Reply& reply) {
    if (reply.is_ok() && groups[issued[i]].appends > 0) {
      committed.push_back(issued[i]);
    }
    return reply.status();
  });
  if (!st.is_ok()) {
    rollback();
    if (!committed.empty()) {
      sim::AsyncBatch undo(wire.rpc);
      for (std::uint32_t lfs : committed) {
        efs::TruncateRequest req{record.lfs_file_id, groups[lfs].first_append};
        undo.call(lfs_services_[lfs], msg(efs::MsgType::kTruncate),
                  util::encode_to_bytes(req));
      }
      // The run's own error is the one to report; a truncate that fails
      // here leaves the stray tail the run would have left without it, and
      // is logged.
      (void)undo.wait_each([&](std::size_t k, const Reply& reply) {
        if (!reply.is_ok()) {
          util::LogMessage(util::LogLevel::kError, "bridge")
              << "write_run rollback: truncate of LFS " << committed[k]
              << " to " << groups[committed[k]].first_append
              << " blocks failed; its constituent keeps a stray tail: "
              << reply.status().to_string();
        }
        return reply.status();
      });
    }
    return st;
  }
  wire.ctx.charge(config_.forward_cpu *
                  static_cast<std::int64_t>(user_blocks.size()));
  stats_.blocks_forwarded += user_blocks.size();
  return util::ok_status();
}

// Each single-block naive op is its run twin with a run of one; the wire
// ops stay as the paper's naive view names them.

util::Result<SeqReadManyResponse> BridgeServer::seq_read(
    Wire& wire, std::uint64_t session_id, std::uint32_t max_blocks) {
  auto found = find_session(session_id);
  if (!found.is_ok()) return found.status();
  auto [session, record] = found.value();
  if (max_blocks == 0) return util::invalid_argument("empty read run");
  SeqReadManyResponse resp;
  resp.first_block_no = session.read_cursor;
  std::uint64_t size = record.placement.size_blocks();
  if (session.read_cursor >= size) {
    resp.eof = true;
    return resp;
  }
  std::uint32_t count = static_cast<std::uint32_t>(std::min<std::uint64_t>(
      std::min<std::uint64_t>(max_blocks, kMaxRunBlocks),
      size - session.read_cursor));
  auto run = read_run(wire, record, session.read_cursor, count);
  // On any failure the cursor is untouched: the client can fall back to
  // single-block reads from exactly where it stood.
  if (!run.is_ok()) return run.status();
  resp.blocks = std::move(run).value();
  session.read_cursor += count;
  resp.eof = session.read_cursor >= size;
  return resp;
}

void BridgeServer::handle_seq_read(Wire& wire, const sim::Envelope& env) {
  util::Reader r(env.payload);
  auto req = SeqReadRequest::decode(r);
  auto run = seq_read(wire, req.session, 1);
  if (!run.is_ok()) return sim::send_reply(wire.ctx, env, run.status());
  // A single-block read reports eof only when it returns no block.
  SeqReadResponse resp;
  resp.block_no = run.value().first_block_no;
  resp.eof = run.value().blocks.empty();
  if (!resp.eof) resp.data = std::move(run.value().blocks[0]);
  sim::send_reply(wire.ctx, env, util::ok_status(), util::encode_to_bytes(resp));
}

void BridgeServer::handle_seq_read_many(Wire& wire, const sim::Envelope& env) {
  util::Reader r(env.payload);
  auto req = SeqReadManyRequest::decode(r);
  auto run = seq_read(wire, req.session, req.max_blocks);
  if (!run.is_ok()) return sim::send_reply(wire.ctx, env, run.status());
  sim::send_reply(wire.ctx, env, util::ok_status(),
                  util::encode_to_bytes(run.value()));
}

util::Result<std::uint64_t> BridgeServer::seq_write(
    Wire& wire, std::uint64_t session_id,
    std::span<const std::vector<std::byte>> blocks) {
  auto found = find_session(session_id);
  if (!found.is_ok()) return found.status();
  auto [session, record] = found.value();
  if (blocks.empty() || blocks.size() > kMaxRunBlocks) {
    return util::invalid_argument("write run must move 1..256 blocks");
  }
  std::uint64_t first = session.write_cursor;
  // write_run rolls the file size back on failure; the cursor stays put too.
  if (auto st = write_run(wire, record, first, blocks); !st.is_ok()) return st;
  session.write_cursor += blocks.size();
  return first;
}

void BridgeServer::handle_seq_write(Wire& wire, const sim::Envelope& env) {
  util::Reader r(env.payload);
  auto req = SeqWriteRequest::decode(r);
  auto first = seq_write(wire, req.session, {&req.data, 1});
  if (!first.is_ok()) return sim::send_reply(wire.ctx, env, first.status());
  SeqWriteResponse resp{first.value()};
  sim::send_reply(wire.ctx, env, util::ok_status(), util::encode_to_bytes(resp));
}

void BridgeServer::handle_seq_write_many(Wire& wire, const sim::Envelope& env) {
  util::Reader r(env.payload);
  auto req = SeqWriteManyRequest::decode(r);
  auto first = seq_write(wire, req.session, req.blocks);
  if (!first.is_ok()) return sim::send_reply(wire.ctx, env, first.status());
  SeqWriteManyResponse resp{first.value(),
                            static_cast<std::uint32_t>(req.blocks.size())};
  sim::send_reply(wire.ctx, env, util::ok_status(), util::encode_to_bytes(resp));
}

util::Result<std::vector<std::vector<std::byte>>> BridgeServer::random_read(
    Wire& wire, BridgeFileId id, std::uint64_t first, std::uint32_t count) {
  FileRecord* record = find_by_id(id);
  if (record == nullptr) return util::not_found("no such file id");
  if (count == 0 || count > kMaxRunBlocks) {
    return util::invalid_argument("read run must move 1..256 blocks");
  }
  return read_run(wire, *record, first, count);
}

void BridgeServer::handle_random_read(Wire& wire, const sim::Envelope& env) {
  util::Reader r(env.payload);
  auto req = RandomReadRequest::decode(r);
  auto run = random_read(wire, req.id, req.block_no, 1);
  if (!run.is_ok()) return sim::send_reply(wire.ctx, env, run.status());
  RandomReadResponse resp{std::move(run.value()[0])};
  sim::send_reply(wire.ctx, env, util::ok_status(), util::encode_to_bytes(resp));
}

void BridgeServer::handle_random_read_many(Wire& wire,
                                           const sim::Envelope& env) {
  util::Reader r(env.payload);
  auto req = RandomReadManyRequest::decode(r);
  auto run = random_read(wire, req.id, req.first_block, req.count);
  if (!run.is_ok()) return sim::send_reply(wire.ctx, env, run.status());
  RandomReadManyResponse resp{std::move(run).value()};
  sim::send_reply(wire.ctx, env, util::ok_status(), util::encode_to_bytes(resp));
}

void BridgeServer::handle_random_write(Wire& wire, const sim::Envelope& env) {
  util::Reader r(env.payload);
  auto req = RandomWriteRequest::decode(r);
  FileRecord* record = find_by_id(req.id);
  if (record == nullptr) {
    return sim::send_reply(wire.ctx, env, util::not_found("no such file id"));
  }
  if (req.block_no > record->placement.size_blocks()) {
    return sim::send_reply(wire.ctx, env,
                           util::invalid_argument("write would leave a gap"));
  }
  sim::send_reply(wire.ctx, env,
                  write_run(wire, *record, req.block_no, {&req.data, 1}));
}

void BridgeServer::handle_seq_seek(Wire& wire, const sim::Envelope& env) {
  util::Reader r(env.payload);
  auto req = SeqSeekRequest::decode(r);
  auto found = find_session(req.session);
  if (!found.is_ok()) return sim::send_reply(wire.ctx, env, found.status());
  auto [session, record] = found.value();
  // Clamp instead of failing: seeking to (or past) EOF is how a reader
  // positions for "read returns eof", mirroring lseek semantics.
  session.read_cursor =
      std::min<std::uint64_t>(req.block_no, record.placement.size_blocks());
  SeqSeekResponse resp{session.read_cursor};
  sim::send_reply(wire.ctx, env, util::ok_status(), util::encode_to_bytes(resp));
}

void BridgeServer::handle_truncate(Wire& wire, const sim::Envelope& env) {
  util::Reader r(env.payload);
  auto req = TruncateFileRequest::decode(r);
  FileRecord* record = find_by_id(req.id);
  if (record == nullptr) {
    return sim::send_reply(wire.ctx, env, util::not_found("no such file id"));
  }
  // Replica constituents have coupled sizes maintained by their access
  // methods (MirroredFile / ParityFile roll partial appends back with their
  // own truncates); shrinking one out from under them would tear every
  // mirror pair or stripe behind the new tail.  Reject with a clean error.
  const std::string& name = record->name;
  if (name.ends_with("!mirror") || name.ends_with("!parity") ||
      directory_.count(name + "!mirror") != 0 ||
      directory_.count(name + "!parity") != 0) {
    return sim::send_reply(
        wire.ctx, env,
        util::invalid_argument("truncate: " + name +
                               " belongs to a mirrored/parity group; shrink "
                               "it through its access method"));
  }
  std::uint64_t size = record->placement.size_blocks();
  if (req.new_size_blocks > size) {
    return sim::send_reply(
        wire.ctx, env,
        util::invalid_argument("truncate cannot grow a file"));
  }
  TruncateFileResponse resp{req.new_size_blocks};
  if (req.new_size_blocks == size) {
    return sim::send_reply(wire.ctx, env, util::ok_status(),
                           util::encode_to_bytes(resp));
  }

  // How many tail blocks each constituent loses.  O(blocks removed):
  // place() is closed-form or a table lookup.
  std::vector<std::uint64_t> removed(num_lfs(), 0);
  for (std::uint64_t n = req.new_size_blocks; n < size; ++n) {
    auto placed = record->placement.place(n);
    if (!placed.is_ok()) return sim::send_reply(wire.ctx, env, placed.status());
    ++removed[placed.value().lfs_index];
  }

  // Current constituent sizes, gathered from the involved LFSs in one
  // concurrent round (tools may have appended past our record).
  std::vector<std::uint32_t> involved;
  for (std::uint32_t i = 0; i < num_lfs(); ++i) {
    if (removed[i] != 0) involved.push_back(i);
  }
  auto infos = lfs_infos(wire, *record, involved);
  if (!infos.is_ok()) return sim::send_reply(wire.ctx, env, infos.status());
  std::vector<std::uint32_t> new_local(involved.size(), 0);
  for (std::size_t k = 0; k < involved.size(); ++k) {
    std::uint32_t size_blocks = infos.value()[k].size_blocks;
    std::uint64_t rm = removed[involved[k]];
    if (size_blocks < rm) {
      return sim::send_reply(
          wire.ctx, env,
          util::corrupt("constituent on LFS " + std::to_string(involved[k]) +
                        " shorter than the tail being truncated"));
    }
    new_local[k] = size_blocks - static_cast<std::uint32_t>(rm);
  }

  // Fan the constituent truncates out concurrently.  EFS kTruncate to a
  // smaller-or-equal size is idempotent, so a partial failure (some
  // constituents shrunk, others not) is repaired by retrying this op:
  // already-shrunk constituents see a no-op.
  sim::AsyncBatch batch(wire.rpc);
  for (std::size_t k = 0; k < involved.size(); ++k) {
    efs::TruncateRequest lfs_req{record->lfs_file_id, new_local[k]};
    batch.call(lfs_services_[involved[k]], msg(efs::MsgType::kTruncate),
               util::encode_to_bytes(lfs_req));
  }
  if (auto st = batch.wait_all_ok(); !st.is_ok()) {
    return sim::send_reply(wire.ctx, env, st);
  }

  // Commit: directory bookkeeping and session cursors — write_run appends
  // at the file size, so a cursor past the new end must be pulled back or
  // the next sequential write would land far beyond EOF.
  BRIDGE_RACE_WRITE(wire.ctx, &kPlacementRaceAnchor, record->lfs_file_id,
                    "bridge.placement");
  record->placement.truncate(req.new_size_blocks);
  // NOLINT(bridge-unordered-iter): clamp-with-min is commutative and touches
  // each session independently — no observable effect of visit order.
  for (auto& [sid, session] : sessions_) {
    if (session.name != record->name) continue;
    session.read_cursor = std::min(session.read_cursor, req.new_size_blocks);
    session.write_cursor = std::min(session.write_cursor, req.new_size_blocks);
  }
  sim::send_reply(wire.ctx, env, util::ok_status(), util::encode_to_bytes(resp));
}

void BridgeServer::handle_parallel_open(Wire& wire, const sim::Envelope& env) {
  util::Reader r(env.payload);
  auto req = ParallelOpenRequest::decode(r);
  auto it = sessions_.find(req.session);
  if (it == sessions_.end()) {
    return sim::send_reply(wire.ctx, env, util::not_found("no such session"));
  }
  if (req.workers.empty()) {
    return sim::send_reply(wire.ctx, env,
                           util::invalid_argument("parallel open needs workers"));
  }
  Job job;
  job.name = it->second.name;
  job.workers = req.workers;
  job.cursor = 0;
  std::uint64_t job_id = next_job_++;
  jobs_[job_id] = std::move(job);
  ParallelOpenResponse resp{job_id};
  sim::send_reply(wire.ctx, env, util::ok_status(), util::encode_to_bytes(resp));
}

void BridgeServer::handle_parallel_read(Wire& wire, const sim::Envelope& env) {
  util::Reader r(env.payload);
  auto req = ParallelReadRequest::decode(r);
  auto it = jobs_.find(req.job);
  if (it == jobs_.end()) {
    return sim::send_reply(wire.ctx, env, util::not_found("no such job"));
  }
  Job& job = it->second;
  FileRecord* record = find_by_name(job.name);
  if (record == nullptr) {
    return sim::send_reply(wire.ctx, env, util::not_found("file deleted"));
  }
  BRIDGE_RACE_READ(wire.ctx, &kPlacementRaceAnchor, record->lfs_file_id,
                   "bridge.placement");
  std::uint64_t size = record->placement.size_blocks();
  std::uint32_t t = static_cast<std::uint32_t>(job.workers.size());
  std::uint32_t p = num_lfs();
  std::uint32_t delivered = 0;

  // "If the width of a parallel open is greater than p, the server will
  // perform groups of p disk accesses in parallel until the high-level
  // request is satisfied" (§4.1).
  while (delivered < t && job.cursor < size) {
    std::uint32_t round =
        std::min<std::uint32_t>(std::min<std::uint64_t>(t - delivered, p),
                                size - job.cursor);
    ++stats_.parallel_rounds;
    // Place the whole round before any I/O, then send one one-block
    // kReadMany per block: per-block requests let each block be forwarded
    // as soon as its reply is in.
    std::vector<Placement> placed;
    placed.reserve(round);
    for (std::uint32_t i = 0; i < round; ++i) {
      auto place = record->placement.place(job.cursor + i);
      if (!place.is_ok()) return sim::send_reply(wire.ctx, env, place.status());
      placed.push_back(place.value());
    }
    sim::AsyncBatch batch(wire.rpc);
    for (const Placement& block : placed) {
      efs::ReadManyRequest lfs_req{record->lfs_file_id, {block.local_block}};
      batch.call(lfs_services_[block.lfs_index], msg(efs::MsgType::kReadMany),
                 util::encode_to_bytes(lfs_req));
    }
    std::vector<WorkerData> deliveries(round);
    auto st = batch.wait_each([&](std::size_t i, const Reply& reply) {
      auto blocks = efs::read_many_blocks(reply.value(), 1);
      if (!blocks.is_ok()) return blocks.status();
      std::uint64_t n = job.cursor + i;
      auto data = forward_block(wire, *record, n, blocks.value()[0]);
      if (!data.is_ok()) return data.status();
      deliveries[i].global_block_no = n;
      deliveries[i].data = std::move(data).value();
      return util::ok_status();
    });
    if (!st.is_ok()) return sim::send_reply(wire.ctx, env, st);
    // Workers receive the round only once every block of it is in.
    for (std::uint32_t i = 0; i < round; ++i) {
      sim::Envelope note;
      note.type = msg(BridgeMsg::kWorkerData);
      note.payload = util::encode_to_bytes(deliveries[i]);
      sim::post(wire.ctx, job.workers[delivered + i], std::move(note));
    }
    delivered += round;
    job.cursor += round;
  }

  bool eof = job.cursor >= size;
  if (eof) {
    // Lock-step: every worker gets an EOF marker once the file is exhausted
    // (ordered after any data it just received) so receive loops terminate.
    for (std::uint32_t i = 0; i < t; ++i) {
      WorkerData delivery;
      delivery.eof = true;
      sim::Envelope note;
      note.type = msg(BridgeMsg::kWorkerData);
      note.payload = util::encode_to_bytes(delivery);
      sim::post(wire.ctx, job.workers[i], std::move(note));
    }
  }
  ParallelReadResponse resp{delivered, eof};
  sim::send_reply(wire.ctx, env, util::ok_status(), util::encode_to_bytes(resp));
}

void BridgeServer::handle_parallel_write(Wire& wire, const sim::Envelope& env) {
  util::Reader r(env.payload);
  auto req = ParallelWriteRequest::decode(r);
  auto it = jobs_.find(req.job);
  if (it == jobs_.end()) {
    return sim::send_reply(wire.ctx, env, util::not_found("no such job"));
  }
  Job& job = it->second;
  FileRecord* record = find_by_name(job.name);
  if (record == nullptr) {
    return sim::send_reply(wire.ctx, env, util::not_found("file deleted"));
  }
  BRIDGE_RACE_WRITE(wire.ctx, &kPlacementRaceAnchor, record->lfs_file_id,
                    "bridge.placement");
  std::uint32_t t = static_cast<std::uint32_t>(job.workers.size());
  std::uint32_t p = num_lfs();
  std::uint32_t written = 0;

  std::uint32_t next_worker = 0;
  while (next_worker < t && !job.writers_drained) {
    std::uint32_t round = std::min(t - next_worker, p);
    ++stats_.parallel_rounds;
    // Solicit one block from each worker in this round.
    std::uint64_t first = record->placement.size_blocks();
    sim::AsyncBatch batch(wire.rpc);
    for (std::uint32_t i = 0; i < round; ++i) {
      WorkerGiveRequest give{first + i};
      batch.call(job.workers[next_worker + i], msg(BridgeMsg::kWorkerGive),
                 util::encode_to_bytes(give));
    }
    // Keep the prefix before the first drained worker so block order stays
    // gap-free; the replies after it are drained and dropped.
    std::vector<std::vector<std::byte>> blocks;
    auto st = batch.wait_each([&](std::size_t, const Reply& reply) {
      auto give = util::decode_from_bytes<WorkerGiveResponse>(reply.value());
      if (!give.has_data) job.writers_drained = true;
      if (!job.writers_drained) blocks.push_back(std::move(give.data));
      return util::ok_status();
    });
    if (!st.is_ok()) return sim::send_reply(wire.ctx, env, st);
    if (auto appended = write_run(wire, *record, first, blocks);
        !appended.is_ok()) {
      return sim::send_reply(wire.ctx, env, appended);
    }
    written += static_cast<std::uint32_t>(blocks.size());
    next_worker += round;
  }
  ParallelWriteResponse resp{written};
  sim::send_reply(wire.ctx, env, util::ok_status(), util::encode_to_bytes(resp));
}

void BridgeServer::handle_resolve(Wire& wire, const sim::Envelope& env) {
  util::Reader r(env.payload);
  auto req = ResolveRequest::decode(r);
  FileRecord* record = find_by_id(req.id);
  if (record == nullptr) {
    return sim::send_reply(wire.ctx, env, util::not_found("no such file id"));
  }
  BRIDGE_RACE_READ(wire.ctx, &kPlacementRaceAnchor, record->lfs_file_id,
                   "bridge.placement");
  ResolveResponse resp;
  resp.placements.reserve(req.count);
  for (std::uint32_t i = 0; i < req.count; ++i) {
    auto placed = record->placement.place(req.first_block + i);
    if (!placed.is_ok()) return sim::send_reply(wire.ctx, env, placed.status());
    resp.placements.push_back(placed.value());
  }
  // Directory lookups are in-memory table reads: cheap per entry.
  wire.ctx.charge(sim::usec(2) * static_cast<std::int64_t>(req.count));
  sim::send_reply(wire.ctx, env, util::ok_status(), util::encode_to_bytes(resp));
}

void BridgeServer::handle_rename(Wire& wire, const sim::Envelope& env) {
  util::Reader r(env.payload);
  auto req = RenameRequest::decode(r);
  if (req.to.empty()) {
    return sim::send_reply(wire.ctx, env,
                           util::invalid_argument("empty target name"));
  }
  BRIDGE_RACE_READ(wire.ctx, &directory_, 0, "bridge.directory");
  FileRecord* record = find_by_name(req.from);
  if (record == nullptr) {
    return sim::send_reply(wire.ctx, env, util::not_found("file " + req.from));
  }
  if (req.to == req.from) {
    RenameResponse resp{record->id};
    return sim::send_reply(wire.ctx, env, util::ok_status(),
                           util::encode_to_bytes(resp));
  }
  // Replica constituents are paired by name convention; renaming one out of
  // its group would orphan the sibling.  Same guard as truncate.
  if (req.from.ends_with("!mirror") || req.from.ends_with("!parity") ||
      directory_.count(req.from + "!mirror") != 0 ||
      directory_.count(req.from + "!parity") != 0) {
    return sim::send_reply(
        wire.ctx, env,
        util::invalid_argument("rename: " + req.from +
                               " belongs to a mirrored/parity group"));
  }
  std::uint32_t dst =
      peers_.empty() ? home_ : directory_home(req.to, peers_.size());
  if (dst == home_) {
    if (find_by_name(req.to) != nullptr || pending_from_.count(req.to) != 0) {
      return sim::send_reply(wire.ctx, env,
                             util::already_exists("file " + req.to));
    }
    BRIDGE_RACE_WRITE(wire.ctx, &directory_, 0, "bridge.directory");
    FileRecord moved = std::move(*record);
    directory_.erase(req.from);
    moved.name = req.to;
    id_index_[moved.id] = req.to;
    BridgeFileId id = moved.id;
    directory_[req.to] = std::move(moved);
    // Open sessions and parallel jobs follow the file to its new name.
    // NOLINT(bridge-unordered-iter): per-session rewrite, order-insensitive
    for (auto& [sid, session] : sessions_) {
      if (session.name == req.from) session.name = req.to;
    }
    // NOLINT(bridge-unordered-iter): per-job rewrite, order-insensitive
    for (auto& [jid, job] : jobs_) {
      if (job.name == req.from) job.name = req.to;
    }
    ++stats_.renames_local;
    RenameResponse resp{id};
    return sim::send_reply(wire.ctx, env, util::ok_status(),
                           util::encode_to_bytes(resp));
  }

  // Cross-server: PVFS-style prepare/commit.  Prepare DETACHES the record
  // from this directory — from here on exactly one server holds a mutable
  // copy of the placement — and parks the client reply in pending_renames_.
  // The serve loop keeps draining requests while the peer installs, so
  // opposing concurrent renames (A->B on s1, B->A on s2) cannot deadlock.
  BRIDGE_RACE_WRITE(wire.ctx, &directory_, 0, "bridge.directory");
  BRIDGE_RACE_WRITE(wire.ctx, &kPlacementRaceAnchor, record->lfs_file_id,
                    "bridge.placement");
  PendingRename pending;
  pending.client_env = env;
  pending.record = std::move(*record);
  pending.from = req.from;
  pending.to = req.to;
  pending.parked_at = wire.ctx.now();
  id_index_.erase(pending.record.id);
  directory_.erase(req.from);
  pending_from_.insert(req.from);

  std::uint64_t seq = next_rename_seq_++;
  RenameInstallRequest install;
  install.seq = seq;
  install.to = req.to;
  install.lfs_file_id = pending.record.lfs_file_id;
  install.placement = pending.record.placement;
  sim::Envelope note;
  note.type = msg(BridgeMsg::kRenameInstall);
  note.reply_to = mailbox_->address();  // acks return through the serve loop
  note.payload = util::encode_to_bytes(install);
  sim::post(wire.ctx, peers_[dst], std::move(note));
  pending_renames_[seq] = std::move(pending);
  ++stats_.renames_out;
  // No reply yet: handle_rename_ack answers the client on commit or abort.
}

void BridgeServer::handle_rename_install(Wire& wire, const sim::Envelope& env) {
  util::Reader r(env.payload);
  auto req = RenameInstallRequest::decode(r);
  RenameAck ack;
  ack.seq = req.seq;
  BRIDGE_RACE_READ(wire.ctx, &directory_, 0, "bridge.directory");
  if (find_by_name(req.to) != nullptr || pending_from_.count(req.to) != 0) {
    ack.code = static_cast<std::uint8_t>(util::ErrorCode::kAlreadyExists);
    ack.error = "file " + req.to;
  } else if (file_id_home(next_file_id_) != home_) {
    ack.code = static_cast<std::uint8_t>(util::ErrorCode::kOutOfSpace);
    ack.error = "bridge file-id slice exhausted on home " +
                std::to_string(home_);
  } else {
    BRIDGE_RACE_WRITE(wire.ctx, &directory_, 0, "bridge.directory");
    BRIDGE_RACE_WRITE(wire.ctx, &kPlacementRaceAnchor, req.lfs_file_id,
                      "bridge.placement");
    FileRecord record;
    record.id = next_file_id_++;
    record.name = req.to;
    record.lfs_file_id = req.lfs_file_id;
    record.placement = std::move(req.placement);
    ack.new_id = record.id;
    id_index_[record.id] = record.name;
    directory_[req.to] = std::move(record);
    ++stats_.renames_in;
  }
  sim::Envelope note;
  note.type = msg(BridgeMsg::kRenameAck);
  note.payload = util::encode_to_bytes(ack);
  sim::post(wire.ctx, env.reply_to, std::move(note));
}

void BridgeServer::handle_rename_ack(Wire& wire, const sim::Envelope& env) {
  util::Reader r(env.payload);
  auto ack = RenameAck::decode(r);
  auto it = pending_renames_.find(ack.seq);
  if (it == pending_renames_.end()) return;  // duplicate or stale ack
  PendingRename pending = std::move(it->second);
  pending_renames_.erase(it);
  pending_from_.erase(pending.from);
  // The handoff leg — prepare detach to ack arrival — is time the client's
  // rename spent parked with NO server actively working on it; without this
  // span and charge it is invisible in both traces and the ledger.
  sim::SimTime handoff = wire.ctx.now() - pending.parked_at;
  rt_.metrics()
      .histogram("rename.handoff_us")
      .record(static_cast<std::uint64_t>(handoff.us()));
  rt_.stages().charge(pending.client_env.trace.request_id,
                      obs::Stage::kRenameHandoff, handoff.us());
  obs::Tracer& tracer = rt_.tracer();
  if (tracer.enabled()) {
    tracer.complete(node_, wire.ctx.pid(), "rename.handoff",
                    pending.parked_at.us(), handoff.us(),
                    pending.client_env.trace);
  }
  if (ack.code == static_cast<std::uint8_t>(util::ErrorCode::kOk)) {
    // Commit: the destination owns the record now; the old id is dead
    // (routed clients re-derive the home from the new id's tag).
    RenameResponse resp{ack.new_id};
    return sim::send_reply(wire.ctx, pending.client_env, util::ok_status(),
                           util::encode_to_bytes(resp));
  }
  // Abort: reinstate under the original name.  Safe because create/install
  // into `from` was refused via pending_from_ while the record was detached.
  ++stats_.rename_aborts;
  rt_.flight().record(wire.ctx.now().us(), node_, "rename.abort",
                      pending.from + " -> " + pending.to + ": " + ack.error);
  BRIDGE_RACE_WRITE(wire.ctx, &directory_, 0, "bridge.directory");
  BRIDGE_RACE_WRITE(wire.ctx, &kPlacementRaceAnchor,
                    pending.record.lfs_file_id, "bridge.placement");
  id_index_[pending.record.id] = pending.from;
  directory_[pending.from] = std::move(pending.record);
  sim::send_reply(wire.ctx, pending.client_env,
                  util::Status(static_cast<util::ErrorCode>(ack.code),
                               "rename " + pending.from + " -> " + pending.to +
                                   ": " + ack.error));
}

void BridgeServer::handle_list(Wire& wire, const sim::Envelope& env) {
  util::Reader r(env.payload);
  auto req = ListRequest::decode(r);
  BRIDGE_RACE_READ(wire.ctx, &directory_, 0, "bridge.directory");
  std::vector<const FileRecord*> records;
  records.reserve(directory_.size());
  // NOLINT(bridge-unordered-iter): order-insensitive collection, sorted below
  for (const auto& [name, record] : directory_) {
    if (name.compare(0, req.prefix.size(), req.prefix) != 0) continue;
    records.push_back(&record);
  }
  std::sort(records.begin(), records.end(),
            [](const FileRecord* a, const FileRecord* b) {
              return a->name < b->name;
            });
  ListResponse resp;
  resp.entries.reserve(records.size());
  for (const FileRecord* record : records) {
    ListEntry entry;
    entry.name = record->name;
    entry.id = record->id;
    entry.size_blocks = record->placement.size_blocks();
    entry.distribution =
        static_cast<std::uint8_t>(record->placement.distribution());
    resp.entries.push_back(std::move(entry));
  }
  // Directory scans are in-memory table reads: cheap per entry.
  wire.ctx.charge(sim::usec(2) *
                  static_cast<std::int64_t>(resp.entries.size() + 1));
  ++stats_.lists;
  sim::send_reply(wire.ctx, env, util::ok_status(), util::encode_to_bytes(resp));
}

void BridgeServer::encode_state(util::Writer& w) const {
  w.u32(0xB81DD1C7);  // directory snapshot magic
  w.u32(next_file_id_);
  w.u32(static_cast<std::uint32_t>(directory_.size()));
  // Snapshot bytes must be a function of the directory *contents*: two
  // replicas holding identical directories must produce identical snapshots,
  // so serialize in sorted-name order rather than hash-bucket order.
  std::vector<const FileRecord*> records;
  records.reserve(directory_.size());
  // NOLINT(bridge-unordered-iter): order-insensitive collection, sorted below
  for (const auto& [name, record] : directory_) {
    records.push_back(&record);
  }
  std::sort(records.begin(), records.end(),
            [](const FileRecord* a, const FileRecord* b) {
              return a->name < b->name;
            });
  for (const FileRecord* record : records) {
    w.str(record->name);
    w.u32(record->id);
    w.u32(record->lfs_file_id);
    record->placement.encode(w);
  }
}

util::Status BridgeServer::decode_state(util::Reader& r) {
  if (r.u32() != 0xB81DD1C7) {
    return util::corrupt("bad Bridge directory snapshot");
  }
  next_file_id_ = r.u32();
  std::uint32_t count = r.u32();
  directory_.clear();
  id_index_.clear();
  sessions_.clear();
  jobs_.clear();
  pending_renames_.clear();
  pending_from_.clear();
  for (std::uint32_t i = 0; i < count; ++i) {
    FileRecord record;
    record.name = r.str();
    record.id = r.u32();
    record.lfs_file_id = r.u32();
    record.placement = PlacementMap::decode(r);
    id_index_[record.id] = record.name;
    directory_[record.name] = std::move(record);
  }
  return util::ok_status();
}

void BridgeServer::handle_get_info(Wire& wire, const sim::Envelope& env) {
  GetInfoResponse resp;
  resp.num_lfs = num_lfs();
  resp.lfs_services = lfs_services_;
  resp.lfs_nodes = lfs_nodes_;
  sim::send_reply(wire.ctx, env, util::ok_status(), util::encode_to_bytes(resp));
}

}  // namespace bridge::core
