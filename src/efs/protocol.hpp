// EFS wire protocol: the request/response structs of the LFS level.
//
// Every request is stateless and self-describing: it names the file and the
// local block numbers it touches, and nothing else.  The 1988 EFS took a
// caller-supplied disk address so it could walk a block chain from there
// (§4.3); the v2 extent map answers every lookup directly, so no request
// carries a disk address and no reply returns one.
//
// Each struct names its fields once, in wire order, and util::serde encodes
// them by type.  Every data request lists `file_id` first:
// EfsServer::estimate_track reads it (and the first block number) straight
// off the payload to pick a disk queue position without a full decode.
#pragma once

#include <cstdint>
#include <tuple>
#include <vector>

#include "src/efs/layout.hpp"
#include "src/util/serde.hpp"

namespace bridge::efs {

enum class MsgType : std::uint32_t {
  kCreate = 0x100,
  kDelete = 0x101,
  kInfo = 0x102,
  // 0x103 was the single-block read; a one-block kReadMany is the same
  // request size and the same work, so it is retired.
  /// Write-through of one block.  Kept beside kWriteMany because the two are
  /// different disk policies: kWriteMany preflights the run and stages its
  /// blocks for a per-track flush after the metadata persist.
  kWrite = 0x104,
  kSync = 0x105,
  /// Vectored ops: one envelope carries a whole run of block numbers, so the
  /// per-message latency is paid once per run instead of once per block and
  /// the server can feed back-to-back blocks straight out of the track
  /// cache.  Every read, one block or many, is a kReadMany.
  kReadMany = 0x106,
  kWriteMany = 0x107,
  /// Truncate a constituent file to a given block count, freeing the tail.
  /// The compensation primitive: the Bridge Server and the replication layer
  /// use it to roll a constituent back after a partial multi-LFS failure.
  kTruncate = 0x108,
};

/// Stable op name for trace span labels ("efs.ReadMany", ...).
constexpr const char* efs_msg_name(MsgType type) noexcept {
  switch (type) {
    case MsgType::kCreate: return "efs.Create";
    case MsgType::kDelete: return "efs.Delete";
    case MsgType::kInfo: return "efs.Info";
    case MsgType::kWrite: return "efs.Write";
    case MsgType::kSync: return "efs.Sync";
    case MsgType::kReadMany: return "efs.ReadMany";
    case MsgType::kWriteMany: return "efs.WriteMany";
    case MsgType::kTruncate: return "efs.Truncate";
  }
  return "efs.Unknown";
}

struct CreateRequest {
  FileId file_id = kInvalidFileId;
  static auto fields(auto& m) { return std::tie(m.file_id); }
};

struct DeleteRequest {
  FileId file_id = kInvalidFileId;
  static auto fields(auto& m) { return std::tie(m.file_id); }
};

struct InfoRequest {
  FileId file_id = kInvalidFileId;
  static auto fields(auto& m) { return std::tie(m.file_id); }
};

struct InfoResponse {
  std::uint32_t size_blocks = 0;
  std::uint32_t free_blocks = 0;  ///< whole-LFS free count (append preflight)
  static auto fields(auto& m) { return std::tie(m.size_blocks, m.free_blocks); }
};

/// Write one block through to disk.  The reply carries no payload.
struct WriteRequest {
  FileId file_id = kInvalidFileId;
  std::uint32_t block_no = 0;
  std::vector<std::byte> data;  ///< kEfsDataBytes payload
  static auto fields(auto& m) {
    return std::tie(m.file_id, m.block_no, m.data);
  }
};

/// Vectored read: fetch `block_nos` (any order, any gaps — true scatter) in
/// one request.  The response returns the blocks in request order.
struct ReadManyRequest {
  FileId file_id = kInvalidFileId;
  std::vector<std::uint32_t> block_nos;
  static auto fields(auto& m) { return std::tie(m.file_id, m.block_nos); }
};

struct ReadManyResponse {
  std::vector<std::vector<std::byte>> blocks;  ///< blocks[i] = block_nos[i]
  static auto fields(auto& m) { return std::tie(m.blocks); }
};

/// The blocks of an encoded kReadMany reply, which must hold exactly
/// `count` (one per requested block number).
inline util::Result<std::vector<std::vector<std::byte>>> read_many_blocks(
    std::span<const std::byte> reply, std::size_t count) {
  auto resp = util::decode_from_bytes<ReadManyResponse>(reply);
  if (resp.blocks.size() != count) {
    return util::corrupt("LFS returned a short vectored read");
  }
  return std::move(resp.blocks);
}

/// Vectored write: apply (block_nos[i], blocks[i]) pairs in order.  Appends
/// are preflighted against the allocation bitmap (including any extent-table
/// growth they would force) so an out-of-space run fails whole,
/// leaving the constituent file untouched (no partial tail for the Bridge
/// Server to roll back).  The reply carries no payload.  The two vectors
/// carry separate counts, so a mismatched request survives the wire and is
/// rejected by the server, not by the decoder.
struct WriteManyRequest {
  FileId file_id = kInvalidFileId;
  std::vector<std::uint32_t> block_nos;
  std::vector<std::vector<std::byte>> blocks;  ///< kEfsDataBytes payloads
  static auto fields(auto& m) {
    return std::tie(m.file_id, m.block_nos, m.blocks);
  }
};

/// Truncate `file_id` to `new_size_blocks` (must not exceed the current
/// size; equal is a no-op).  Tail blocks are explicitly freed, the chain is
/// re-closed, and the directory entry is persisted before the reply.
struct TruncateRequest {
  FileId file_id = kInvalidFileId;
  std::uint32_t new_size_blocks = 0;
  static auto fields(auto& m) {
    return std::tie(m.file_id, m.new_size_blocks);
  }
};

struct TruncateResponse {
  std::uint32_t size_blocks = 0;  ///< size after the truncate
  static auto fields(auto& m) { return std::tie(m.size_blocks); }
};

}  // namespace bridge::efs
