// EFS wire protocol: request/response structs and their serialization.
//
// Every request is stateless and self-describing: it names the file and the
// local block numbers it touches, and nothing else.  The 1988 EFS took a
// caller-supplied disk address so it could walk a block chain from there
// (§4.3); the v2 extent map answers every lookup directly, so no request
// carries a disk address and no reply returns one.
#pragma once

#include <cstdint>
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
  void encode(util::Writer& w) const { w.u32(file_id); }
  static CreateRequest decode(util::Reader& r) { return {r.u32()}; }
};

struct DeleteRequest {
  FileId file_id = kInvalidFileId;
  void encode(util::Writer& w) const { w.u32(file_id); }
  static DeleteRequest decode(util::Reader& r) { return {r.u32()}; }
};

struct InfoRequest {
  FileId file_id = kInvalidFileId;
  void encode(util::Writer& w) const { w.u32(file_id); }
  static InfoRequest decode(util::Reader& r) { return {r.u32()}; }
};

struct InfoResponse {
  std::uint32_t size_blocks = 0;
  std::uint32_t free_blocks = 0;  ///< whole-LFS free count (append preflight)
  void encode(util::Writer& w) const {
    w.u32(size_blocks);
    w.u32(free_blocks);
  }
  static InfoResponse decode(util::Reader& r) {
    InfoResponse resp;
    resp.size_blocks = r.u32();
    resp.free_blocks = r.u32();
    return resp;
  }
};

/// Write one block through to disk.  The reply carries no payload.
struct WriteRequest {
  FileId file_id = kInvalidFileId;
  std::uint32_t block_no = 0;
  std::vector<std::byte> data;  ///< kEfsDataBytes payload
  void encode(util::Writer& w) const {
    w.u32(file_id);
    w.u32(block_no);
    w.bytes(data);
  }
  static WriteRequest decode(util::Reader& r) {
    WriteRequest req;
    req.file_id = r.u32();
    req.block_no = r.u32();
    req.data = r.bytes();
    return req;
  }
};

/// Vectored read: fetch `block_nos` (any order, any gaps — true scatter) in
/// one request.  The response returns the blocks in request order.
struct ReadManyRequest {
  FileId file_id = kInvalidFileId;
  std::vector<std::uint32_t> block_nos;
  void encode(util::Writer& w) const {
    w.u32(file_id);
    w.u32(static_cast<std::uint32_t>(block_nos.size()));
    for (auto n : block_nos) w.u32(n);
  }
  static ReadManyRequest decode(util::Reader& r) {
    ReadManyRequest req;
    req.file_id = r.u32();
    std::uint32_t n = r.u32();
    req.block_nos.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) req.block_nos.push_back(r.u32());
    return req;
  }
};

struct ReadManyResponse {
  std::vector<std::vector<std::byte>> blocks;  ///< blocks[i] = block_nos[i]
  void encode(util::Writer& w) const {
    w.u32(static_cast<std::uint32_t>(blocks.size()));
    for (const auto& b : blocks) w.bytes(b);
  }
  static ReadManyResponse decode(util::Reader& r) {
    ReadManyResponse resp;
    std::uint32_t n = r.u32();
    resp.blocks.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) resp.blocks.push_back(r.bytes());
    return resp;
  }
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
/// Server to roll back).  The reply carries no payload.
struct WriteManyRequest {
  FileId file_id = kInvalidFileId;
  std::vector<std::uint32_t> block_nos;
  std::vector<std::vector<std::byte>> blocks;  ///< kEfsDataBytes payloads
  void encode(util::Writer& w) const {
    w.u32(file_id);
    w.u32(static_cast<std::uint32_t>(block_nos.size()));
    for (auto n : block_nos) w.u32(n);
    // Payload count is carried separately so a malformed (mismatched)
    // request survives the wire and is rejected by the server, not by the
    // decoder.
    w.u32(static_cast<std::uint32_t>(blocks.size()));
    for (const auto& b : blocks) w.bytes(b);
  }
  static WriteManyRequest decode(util::Reader& r) {
    WriteManyRequest req;
    req.file_id = r.u32();
    std::uint32_t n = r.u32();
    req.block_nos.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) req.block_nos.push_back(r.u32());
    std::uint32_t m = r.u32();
    req.blocks.reserve(m);
    for (std::uint32_t i = 0; i < m; ++i) req.blocks.push_back(r.bytes());
    return req;
  }
};

/// Truncate `file_id` to `new_size_blocks` (must not exceed the current
/// size; equal is a no-op).  Tail blocks are explicitly freed, the chain is
/// re-closed, and the directory entry is persisted before the reply.
struct TruncateRequest {
  FileId file_id = kInvalidFileId;
  std::uint32_t new_size_blocks = 0;
  void encode(util::Writer& w) const {
    w.u32(file_id);
    w.u32(new_size_blocks);
  }
  static TruncateRequest decode(util::Reader& r) {
    TruncateRequest req;
    req.file_id = r.u32();
    req.new_size_blocks = r.u32();
    return req;
  }
};

struct TruncateResponse {
  std::uint32_t size_blocks = 0;  ///< size after the truncate
  void encode(util::Writer& w) const { w.u32(size_blocks); }
  static TruncateResponse decode(util::Reader& r) { return {r.u32()}; }
};

}  // namespace bridge::efs
