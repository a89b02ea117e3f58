// Client-side API for the Bridge Server: the naive sequential view, the
// parallel-open view, and Get Info (the doorway to the tool view).
//
// One client serves a machine with one Bridge Server (the paper's prototype)
// or with k of them (the "distributed collection of processes" of §4.1, the
// directory partitioned by name).  Every call goes to the home its argument
// names — a name's directory_home, or the home byte of the file id, session
// or job handle the server minted — so the client holds no per-file state.
// remove_many and list fan out to every home they touch.  Cross-server
// renames are a server-to-server protocol: the old name's home coordinates.
#pragma once

#include <algorithm>
#include <deque>
#include <functional>
#include <iterator>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/api.hpp"
#include "src/core/protocol.hpp"
#include "src/sim/rpc.hpp"
#include "src/util/status.hpp"

namespace bridge::core {

class BridgeClient final : public BridgeApi {
 public:
  /// `servers[h]` is the Bridge Server homed at directory index h.
  BridgeClient(sim::Context& ctx, const std::vector<sim::Address>& servers) {
    for (const auto& server : servers) links_.emplace_back(ctx, server);
  }

  util::Result<BridgeFileId> create(const std::string& name,
                                    CreateOptions options = {}) override {
    CreateFileRequest req;
    req.name = name;
    req.distribution = static_cast<std::uint8_t>(options.distribution);
    req.width = options.width;
    req.start_lfs = options.start_lfs;
    req.chunk_blocks = options.chunk_blocks;
    req.hash_seed = options.hash_seed;
    return ask(BridgeMsg::kCreate, name_home(name), req,
               &CreateFileResponse::id);
  }

  util::Status remove(const std::string& name) override {
    DeleteFileRequest req{name};
    return call(BridgeMsg::kDelete, name_home(name), util::encode_to_bytes(req))
        .status();
  }

  /// Delete several files with their LFS work overlapped ("discard the old
  /// files in parallel", §5.2).  Each home gets one kDeleteMany with its
  /// share of the batch; a home that fails does not stop the others, and
  /// the first error is returned.
  util::Status remove_many(const std::vector<std::string>& names) override {
    std::vector<DeleteManyRequest> parts(links_.size());
    for (const auto& name : names) {
      parts[name_home(name)].names.push_back(name);
    }
    Sends sends;
    for (std::size_t home = 0; home < parts.size(); ++home) {
      // An empty batch still makes its one round trip, to server 0.
      if (!parts[home].names.empty() || (names.empty() && home == 0)) {
        sends.emplace_back(home, util::encode_to_bytes(parts[home]));
      }
    }
    auto ignore_body = [](std::span<const std::byte>) {
      return util::ok_status();
    };
    return fan_out(BridgeMsg::kDeleteMany, sends, ignore_body);
  }

  util::Result<OpenResponse> open(const std::string& name) override {
    return ask<OpenResponse>(BridgeMsg::kOpen, name_home(name),
                             OpenRequest{name});
  }

  util::Result<SeqReadResponse> seq_read(std::uint64_t session) override {
    return ask<SeqReadResponse>(BridgeMsg::kSeqRead, handle_owner(session),
                                SeqReadRequest{session});
  }

  util::Result<std::vector<std::byte>> random_read(
      BridgeFileId id, std::uint64_t block_no) override {
    return ask(BridgeMsg::kRandomRead, file_home(id),
               RandomReadRequest{id, block_no}, &RandomReadResponse::data);
  }

  util::Result<std::uint64_t> seq_write(
      std::uint64_t session, std::span<const std::byte> data) override {
    SeqWriteRequest req;
    req.session = session;
    req.data.assign(data.begin(), data.end());
    return ask(BridgeMsg::kSeqWrite, handle_owner(session), req,
               &SeqWriteResponse::block_no);
  }

  util::Status random_write(BridgeFileId id, std::uint64_t block_no,
                            std::span<const std::byte> data) override {
    RandomWriteRequest req;
    req.id = id;
    req.block_no = block_no;
    req.data.assign(data.begin(), data.end());
    return call(BridgeMsg::kRandomWrite, file_home(id),
                util::encode_to_bytes(req))
        .status();
  }

  util::Result<SeqReadManyResponse> seq_read_many(
      std::uint64_t session, std::uint32_t max_blocks) override {
    return ask<SeqReadManyResponse>(BridgeMsg::kSeqReadMany,
                                    handle_owner(session),
                                    SeqReadManyRequest{session, max_blocks});
  }

  util::Result<SeqWriteManyResponse> seq_write_many(
      std::uint64_t session,
      std::vector<std::vector<std::byte>> blocks) override {
    return ask<SeqWriteManyResponse>(
        BridgeMsg::kSeqWriteMany, handle_owner(session),
        SeqWriteManyRequest{session, std::move(blocks)});
  }

  util::Result<RandomReadManyResponse> random_read_many(
      BridgeFileId id, std::uint64_t first_block,
      std::uint32_t count) override {
    return ask<RandomReadManyResponse>(
        BridgeMsg::kRandomReadMany, file_home(id),
        RandomReadManyRequest{id, first_block, count});
  }

  util::Result<std::uint64_t> seq_seek(std::uint64_t session,
                                       std::uint64_t block_no) override {
    return ask(BridgeMsg::kSeqSeek, handle_owner(session),
               SeqSeekRequest{session, block_no}, &SeqSeekResponse::block_no);
  }

  util::Result<std::uint64_t> truncate(BridgeFileId id,
                                       std::uint64_t new_size_blocks) override {
    return ask(BridgeMsg::kTruncate, file_home(id),
               TruncateFileRequest{id, new_size_blocks},
               &TruncateFileResponse::size_blocks);
  }

  /// Group `workers` into a job on an open session; the caller becomes the
  /// job controller (§4.1).
  util::Result<std::uint64_t> parallel_open(
      std::uint64_t session, const std::vector<sim::Address>& workers) override {
    ParallelOpenRequest req;
    req.session = session;
    req.workers = workers;
    return ask(BridgeMsg::kParallelOpen, handle_owner(session), req,
               &ParallelOpenResponse::job);
  }

  /// Transfer one block to every worker (t blocks total, in groups of p).
  util::Result<ParallelReadResponse> parallel_read(std::uint64_t job) override {
    return ask<ParallelReadResponse>(BridgeMsg::kParallelRead,
                                     handle_owner(job),
                                     ParallelReadRequest{job});
  }

  /// Collect one block from every worker and append them in worker order.
  util::Result<ParallelWriteResponse> parallel_write(std::uint64_t job) override {
    return ask<ParallelWriteResponse>(BridgeMsg::kParallelWrite,
                                      handle_owner(job),
                                      ParallelWriteRequest{job});
  }

  /// The home of the OLD name coordinates; the reply carries the post-rename
  /// id (a new one, from the destination's slice, if the file moved homes).
  util::Result<BridgeFileId> rename(const std::string& from,
                                    const std::string& to) override {
    return ask(BridgeMsg::kRename, name_home(from), RenameRequest{from, to},
               &RenameResponse::id);
  }

  /// One kList to every server, then the union sorted by name (a name has
  /// one home, so no two entries tie).
  util::Result<std::vector<ListEntry>> list(
      const std::string& prefix) override {
    auto payload = util::encode_to_bytes(ListRequest{prefix});
    Sends sends;
    for (std::size_t home = 0; home < links_.size(); ++home) {
      sends.emplace_back(home, payload);
    }
    std::vector<ListEntry> entries;
    auto status = fan_out(
        BridgeMsg::kList, sends, [&](std::span<const std::byte> body) {
          auto part = util::decode_from_bytes<ListResponse>(body).entries;
          entries.insert(entries.end(), std::make_move_iterator(part.begin()),
                         std::make_move_iterator(part.end()));
          return util::ok_status();
        });
    if (!status.is_ok()) return status;
    std::sort(entries.begin(), entries.end(),
              [](const ListEntry& a, const ListEntry& b) {
                return a.name < b.name;
              });
    return entries;
  }

  /// Machine structure is the same from every server; server 0 answers.
  util::Result<GetInfoResponse> get_info() override {
    auto reply = call(BridgeMsg::kGetInfo, std::size_t{0}, {});
    if (!reply.is_ok()) return reply.status();
    return util::decode_from_bytes<GetInfoResponse>(reply.value());
  }

  util::Result<ResolveResponse> resolve(BridgeFileId id, std::uint64_t first,
                                        std::uint32_t count) override {
    return ask<ResolveResponse>(BridgeMsg::kResolve, file_home(id),
                                ResolveRequest{id, first, count});
  }

  /// The underlying RPC client, shared with EfsClient instances by tools
  /// that talk to the LFS level directly.
  [[nodiscard]] sim::RpcClient& rpc() noexcept { return links_.front().rpc; }

 private:
  /// (home, payload) pairs of one fan-out.
  using Sends = std::vector<std::pair<std::size_t, std::vector<std::byte>>>;

  /// The op class of `type` in the stage ledger: the message name without
  /// its "bridge." prefix ("Create", "SeqRead", ...).
  static std::string_view op_name(BridgeMsg type) {
    std::string_view op = bridge_msg_name(type);
    if (op.rfind("bridge.", 0) == 0) op.remove_prefix(7);
    return op;
  }

  [[nodiscard]] std::size_t name_home(const std::string& name) const {
    return directory_home(name, links_.size());
  }
  /// Home of a session or job handle, or of a file id: the server that
  /// minted it.  A home outside the group — a corrupt id, or one minted by a
  /// differently sized group — is not_found, NOT masked with a modulo:
  /// routing it to an arbitrary server would turn a caller bug into
  /// wrong-file data access.
  [[nodiscard]] util::Result<std::size_t> minted_home(std::uint64_t home,
                                                      const char* what,
                                                      std::uint64_t id) const {
    if (home < links_.size()) return static_cast<std::size_t>(home);
    return util::not_found(std::string(what) + " " + std::to_string(id) +
                           " is homed on server " + std::to_string(home) +
                           " of " + std::to_string(links_.size()));
  }
  [[nodiscard]] util::Result<std::size_t> handle_owner(
      std::uint64_t handle) const {
    return minted_home(handle_home(handle), "id", handle);
  }
  [[nodiscard]] util::Result<std::size_t> file_home(BridgeFileId id) const {
    return minted_home(file_id_home(id), "file id", id);
  }

  /// One round trip to server `home` (a home that is an error sends
  /// nothing and is the call's result).  Every client operation is one
  /// end-to-end request in the stage ledger; nested calls (a composite op
  /// re-entering call) fold into the outer request automatically.
  util::Result<std::vector<std::byte>> call(
      BridgeMsg type, const util::Result<std::size_t>& home,
      std::span<const std::byte> payload) {
    if (!home.is_ok()) return home.status();
    sim::ScopedRequest request(rpc().context(), op_name(type));
    Link& link = links_[home.value()];
    return link.rpc.call(link.server, static_cast<std::uint32_t>(type),
                         payload);
  }

  /// call() with `req` encoded and the reply decoded as a `Response`.
  template <typename Response, typename Request>
  util::Result<Response> ask(BridgeMsg type,
                             const util::Result<std::size_t>& home,
                             const Request& req) {
    auto reply = call(type, home, util::encode_to_bytes(req));
    if (!reply.is_ok()) return reply.status();
    return util::decode_from_bytes<Response>(reply.value());
  }

  /// ask() for the one field of the response that the caller wants.
  template <typename Response, typename Field, typename Request>
  util::Result<Field> ask(BridgeMsg type,
                          const util::Result<std::size_t>& home,
                          const Request& req, Field Response::*field) {
    auto resp = ask<Response>(type, home, req);
    if (!resp.is_ok()) return resp.status();
    return std::move(resp.value().*field);
  }

  /// Send every payload to its home, all in flight before any reply is
  /// awaited, and hand each reply body to `on_reply` in send order.  The
  /// fan-out is one request in the stage ledger; a lone send is a plain
  /// call().  Every reply is drained, and the first error is returned.
  template <typename OnReply>
  util::Status fan_out(BridgeMsg type, const Sends& sends, OnReply on_reply) {
    auto handle = [&](const util::Result<std::vector<std::byte>>& reply) {
      return reply.is_ok() ? on_reply(reply.value()) : reply.status();
    };
    if (sends.size() == 1) {
      return handle(call(type, sends[0].first, sends[0].second));
    }
    sim::ScopedRequest request(rpc().context(), op_name(type));
    std::vector<std::uint64_t> pending;
    for (const auto& [home, payload] : sends) {
      Link& link = links_[home];
      pending.push_back(link.rpc.call_async(
          link.server, static_cast<std::uint32_t>(type), payload));
    }
    util::Status first_error = util::ok_status();
    for (std::size_t i = 0; i < sends.size(); ++i) {
      auto status = handle(links_[sends[i].first].rpc.wait_reply(pending[i]));
      if (!status.is_ok() && first_error.is_ok()) first_error = status;
    }
    return first_error;
  }

  /// One Bridge Server and this client's reply mailbox for it.  A mailbox
  /// per server means a fan-out's replies from one server never wake the
  /// client while it waits on another.
  struct Link {
    Link(sim::Context& ctx, sim::Address address) : server(address), rpc(ctx) {}
    sim::Address server;
    sim::RpcClient rpc;
  };
  std::deque<Link> links_;  ///< indexed by home; a deque never moves a Link
};

/// Worker-side endpoint for parallel-open jobs.  A worker process creates
/// one, registers its address() via the controller's parallel_open, then
/// either consumes blocks (reads) or supplies them (writes).
class ParallelWorker {
 public:
  explicit ParallelWorker(sim::Context& ctx)
      : ctx_(ctx), box_(ctx.runtime().scheduler(), ctx.node()) {}

  [[nodiscard]] sim::Address address() noexcept { return box_.address(); }

  /// Block until the server delivers this worker's next block (or EOF).
  WorkerData next_block() {
    while (true) {
      sim::Envelope env = box_.recv();
      if (env.type == static_cast<std::uint32_t>(BridgeMsg::kWorkerData)) {
        return util::decode_from_bytes<WorkerData>(env.payload);
      }
      // A stray solicitation during a read job: report empty.
      reply_no_data(env);
    }
  }

  /// Block until the server solicits a block, then answer with `provider()`
  /// (nullopt = drained).  Returns false once drained.
  bool serve_give(
      const std::function<std::optional<std::vector<std::byte>>()>& provider) {
    sim::Envelope env = box_.recv();
    if (env.type != static_cast<std::uint32_t>(BridgeMsg::kWorkerGive)) {
      return true;  // ignore unexpected deliveries
    }
    auto data = provider();
    WorkerGiveResponse resp;
    resp.has_data = data.has_value();
    if (data) resp.data = std::move(*data);
    sim::send_reply(ctx_, env, util::ok_status(), util::encode_to_bytes(resp));
    return resp.has_data;
  }

 private:
  void reply_no_data(const sim::Envelope& env) {
    if (env.type == static_cast<std::uint32_t>(BridgeMsg::kWorkerGive)) {
      WorkerGiveResponse resp;
      sim::send_reply(ctx_, env, util::ok_status(), util::encode_to_bytes(resp));
    }
  }

  sim::Context& ctx_;
  sim::Mailbox box_;
};

}  // namespace bridge::core
