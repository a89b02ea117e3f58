// Typed EFS client.
//
// Wraps an RpcClient with the EFS protocol.  The client holds no per-file
// state: every request names its file and blocks in full (§4.3 statelessness),
// so any number of clients can talk to one server in any interleaving.
#pragma once

#include "src/efs/protocol.hpp"
#include "src/sim/rpc.hpp"
#include "src/util/status.hpp"

namespace bridge::efs {

class EfsClient {
 public:
  /// `service` is the EFS server's mailbox address.  The client uses the
  /// calling process's RpcClient (one per process), so several EfsClients —
  /// one per LFS the caller talks to — can share it.
  EfsClient(sim::RpcClient& rpc, sim::Address service)
      : rpc_(&rpc), service_(service) {}

  [[nodiscard]] sim::Address service() const noexcept { return service_; }

  util::Status create(FileId id) {
    CreateRequest req{id};
    auto reply = rpc_->call(service_, static_cast<std::uint32_t>(MsgType::kCreate),
                            util::encode_to_bytes(req));
    return reply.status();
  }

  util::Status remove(FileId id) {
    DeleteRequest req{id};
    auto reply = rpc_->call(service_, static_cast<std::uint32_t>(MsgType::kDelete),
                            util::encode_to_bytes(req));
    return reply.status();
  }

  util::Result<InfoResponse> info(FileId id) {
    InfoRequest req{id};
    auto reply = rpc_->call(service_, static_cast<std::uint32_t>(MsgType::kInfo),
                            util::encode_to_bytes(req));
    if (!reply.is_ok()) return reply.status();
    return util::decode_from_bytes<InfoResponse>(reply.value());
  }

  /// Read one block (a one-block kReadMany): its kEfsDataBytes payload.
  util::Result<std::vector<std::byte>> read(FileId id, std::uint32_t block_no) {
    auto resp = read_many(id, {block_no});
    if (!resp.is_ok()) return resp.status();
    return std::move(resp.value().blocks[0]);
  }

  util::Status write(FileId id, std::uint32_t block_no,
                     std::span<const std::byte> data) {
    WriteRequest req{id, block_no,
                     std::vector<std::byte>(data.begin(), data.end())};
    auto reply = rpc_->call(service_, static_cast<std::uint32_t>(MsgType::kWrite),
                            util::encode_to_bytes(req));
    return reply.status();
  }

  /// Vectored read: fetch `block_nos` (request order preserved) in one
  /// round trip.  The reply holds exactly one block per block number.
  util::Result<ReadManyResponse> read_many(FileId id,
                                           std::vector<std::uint32_t> block_nos) {
    std::size_t count = block_nos.size();
    ReadManyRequest req{id, std::move(block_nos)};
    auto reply = rpc_->call(service_,
                            static_cast<std::uint32_t>(MsgType::kReadMany),
                            util::encode_to_bytes(req));
    if (!reply.is_ok()) return reply.status();
    auto blocks = read_many_blocks(reply.value(), count);
    if (!blocks.is_ok()) return blocks.status();
    return ReadManyResponse{std::move(blocks).value()};
  }

  /// Vectored write: apply (block_nos[i], blocks[i]) in one round trip.
  util::Status write_many(FileId id, std::vector<std::uint32_t> block_nos,
                          std::vector<std::vector<std::byte>> blocks) {
    WriteManyRequest req{id, std::move(block_nos), std::move(blocks)};
    auto reply = rpc_->call(service_,
                            static_cast<std::uint32_t>(MsgType::kWriteMany),
                            util::encode_to_bytes(req));
    return reply.status();
  }

  /// Truncate to `new_size_blocks` constituent blocks (the compensation op
  /// for torn multi-LFS appends).
  util::Result<TruncateResponse> truncate(FileId id,
                                          std::uint32_t new_size_blocks) {
    TruncateRequest req{id, new_size_blocks};
    auto reply = rpc_->call(service_,
                            static_cast<std::uint32_t>(MsgType::kTruncate),
                            util::encode_to_bytes(req));
    if (!reply.is_ok()) return reply.status();
    return util::decode_from_bytes<TruncateResponse>(reply.value());
  }

  util::Status sync() {
    auto reply = rpc_->call(service_, static_cast<std::uint32_t>(MsgType::kSync), {});
    return reply.status();
  }

 private:
  sim::RpcClient* rpc_;
  sim::Address service_;
};

}  // namespace bridge::efs
