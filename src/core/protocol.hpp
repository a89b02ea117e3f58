// Bridge Server wire protocol — the command set of Table 1.
//
//   Create File | Delete File | Open | Sequential Read | Random Read |
//   Sequential Write | Random Write | Parallel Open | Get Info
//
// plus the worker-side messages the server exchanges with parallel-open
// workers (block delivery for reads, block solicitation for writes).
//
// Each struct names its fields once, in wire order (`fields`), and
// util::serde encodes them by type; nested structs with a field list
// (FileMeta, ListEntry, Placement) nest.  Three layouts are hand-written
// through serde's encode/decode customization point: sim::Address (a
// mailbox capability), PlacementMap (its decode validates the map and
// derives per-LFS bookkeeping) and GetInfoResponse below.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "src/core/distribution.hpp"
#include "src/sim/rpc.hpp"
#include "src/util/hash.hpp"
#include "src/util/serde.hpp"

namespace bridge::core {

using BridgeFileId = std::uint32_t;

// --- Distributed-directory addressing ---------------------------------------
//
// When the directory is partitioned across k Bridge Servers, every durable
// identifier must be routable WITHOUT consulting any client-side map (a map
// keyed by raw per-server ids clobbers whenever two servers mint the same
// id, and it goes stale on delete).  The top byte of a BridgeFileId is its
// home server index — each server mints ids from its own 2^24-wide slice —
// so the id itself says where the file's directory entry lives, exactly as
// session/job ids carry their home in the top byte of the 64-bit handle.

/// Top byte of a BridgeFileId carries the minting server's home index.
inline constexpr std::uint32_t kFileIdHomeShift = 24;
inline constexpr BridgeFileId kFileIdLocalMask =
    (BridgeFileId{1} << kFileIdHomeShift) - 1;

/// Home server index encoded in a file id.
constexpr std::uint32_t file_id_home(BridgeFileId id) noexcept {
  return id >> kFileIdHomeShift;
}

/// First id of server `home`'s slice (offset past the reserved low ids so a
/// single-server machine keeps the historical 1000-based id space).
constexpr BridgeFileId make_file_id_base(std::uint32_t home) noexcept {
  return (home << kFileIdHomeShift) | BridgeFileId{1000};
}

/// Which server owns directory entry `name` in a k-server partition.  Shared
/// by RoutedBridgeClient (request routing) and BridgeServer (cross-server
/// rename: the source computes the destination of the new name), so the two
/// sides can never disagree about a name's home.
inline std::uint32_t directory_home(std::string_view name,
                                    std::size_t num_servers) {
  auto bytes = std::span<const std::byte>(
      reinterpret_cast<const std::byte*>(name.data()), name.size());
  return num_servers <= 1 ? 0 : util::fnv1a_32(bytes) % num_servers;
}

/// Upper bound on the blocks one vectored request may move.  Bounds server
/// memory per request and keeps a single client from parking the server on
/// one giant run while other clients starve.
inline constexpr std::uint32_t kMaxRunBlocks = 256;

enum class BridgeMsg : std::uint32_t {
  kCreate = 0x200,
  kDelete = 0x201,
  kOpen = 0x202,
  kSeqRead = 0x203,
  kRandomRead = 0x204,
  kSeqWrite = 0x205,
  kRandomWrite = 0x206,
  kParallelOpen = 0x207,
  kParallelRead = 0x208,
  kParallelWrite = 0x209,
  kGetInfo = 0x20A,
  /// Extension beyond Table 1: delete a batch of files with all LFS work
  /// overlapped ("Discard the old files in parallel", §5.2).
  kDeleteMany = 0x20B,
  /// Extension: resolve a range of global block numbers to (LFS, local)
  /// placements.  Closed-form for round-robin/chunked files, but hashed and
  /// linked ("disordered") placements live only in the Bridge directory, so
  /// tools that operate on them — notably the off-line reorganizer §3
  /// mentions — must ask the server.
  kResolve = 0x20C,
  /// Vectored naive-view ops: one envelope moves a run of blocks, letting
  /// the server keep every involved LFS in flight at once instead of one
  /// blocking LFS hop per client round trip (the §4.1 central-server
  /// bottleneck).  The single-block ops above remain wire-compatible.
  kSeqReadMany = 0x20D,
  kSeqWriteMany = 0x20E,
  kRandomReadMany = 0x20F,
  /// Extension: shrink an open file to `new_size_blocks`, fanning per-LFS
  /// truncates to the constituents and keeping the server's PlacementMap /
  /// size bookkeeping in step (ROADMAP "Naive-API truncate").
  kTruncate = 0x210,
  /// Extension: reposition a session's sequential read cursor (clamped to
  /// the file size).  Lets window-buffered readers (BufferedFileStream)
  /// serve random-access programs without reopening the file.
  kSeqSeek = 0x211,
  /// Extension: rename a directory entry.  Local when both names hash to the
  /// same home; otherwise the source server coordinates a PVFS-style
  /// prepare/commit handoff with the destination (kRenameInstall/kRenameAck
  /// below) — the entry is detached from the source before the record ships,
  /// so exactly one server can ever mutate the file's placement.
  kRename = 0x212,
  /// Extension: list directory entries (optionally under a name prefix),
  /// sorted by name.  A routed client fans this out to every server and
  /// merges the sorted partitions deterministically — the "Scalable Unix
  /// Commands" global-listing pattern.
  kList = 0x213,
  // Server -> server messages for the cross-server rename handoff:
  /// Coordinator -> destination: install the detached record under its new
  /// name (the prepare).  Carries the whole directory record; no file data
  /// moves — constituent LFS files are untouched by rename.
  kRenameInstall = 0x282,
  /// Destination -> coordinator: commit (new id minted at the destination)
  /// or abort (e.g. the new name already exists).  Posted straight to the
  /// coordinator's service mailbox so neither server ever blocks on the
  /// other — ordering comes from these message edges alone.
  kRenameAck = 0x283,
  // Server -> worker messages for parallel jobs:
  kWorkerData = 0x280,  ///< one-way block delivery (parallel read)
  kWorkerGive = 0x281,  ///< request/reply block solicitation (parallel write)
};

/// Stable op name for trace span labels ("bridge.Open", ...).
constexpr const char* bridge_msg_name(BridgeMsg type) noexcept {
  switch (type) {
    case BridgeMsg::kCreate: return "bridge.Create";
    case BridgeMsg::kDelete: return "bridge.Delete";
    case BridgeMsg::kOpen: return "bridge.Open";
    case BridgeMsg::kSeqRead: return "bridge.SeqRead";
    case BridgeMsg::kRandomRead: return "bridge.RandomRead";
    case BridgeMsg::kSeqWrite: return "bridge.SeqWrite";
    case BridgeMsg::kRandomWrite: return "bridge.RandomWrite";
    case BridgeMsg::kParallelOpen: return "bridge.ParallelOpen";
    case BridgeMsg::kParallelRead: return "bridge.ParallelRead";
    case BridgeMsg::kParallelWrite: return "bridge.ParallelWrite";
    case BridgeMsg::kGetInfo: return "bridge.GetInfo";
    case BridgeMsg::kDeleteMany: return "bridge.DeleteMany";
    case BridgeMsg::kResolve: return "bridge.Resolve";
    case BridgeMsg::kSeqReadMany: return "bridge.SeqReadMany";
    case BridgeMsg::kSeqWriteMany: return "bridge.SeqWriteMany";
    case BridgeMsg::kRandomReadMany: return "bridge.RandomReadMany";
    case BridgeMsg::kTruncate: return "bridge.Truncate";
    case BridgeMsg::kSeqSeek: return "bridge.SeqSeek";
    case BridgeMsg::kRename: return "bridge.Rename";
    case BridgeMsg::kList: return "bridge.List";
    case BridgeMsg::kRenameInstall: return "bridge.RenameInstall";
    case BridgeMsg::kRenameAck: return "bridge.RenameAck";
    case BridgeMsg::kWorkerData: return "bridge.WorkerData";
    case BridgeMsg::kWorkerGive: return "bridge.WorkerGive";
  }
  return "bridge.Unknown";
}

/// Summary of a Bridge file returned by Open.
struct FileMeta {
  BridgeFileId id = 0;
  std::string name;
  std::uint8_t distribution = 0;  ///< Distribution enum value
  std::uint32_t width = 0;        ///< interleaving breadth
  std::uint32_t start_lfs = 0;
  std::uint32_t chunk_blocks = 0;
  std::uint64_t size_blocks = 0;
  std::uint32_t lfs_file_id = 0;  ///< constituent file id on every LFS
  static auto fields(auto& m) {
    return std::tie(m.id, m.name, m.distribution, m.width, m.start_lfs,
                    m.chunk_blocks, m.size_blocks, m.lfs_file_id);
  }
};

struct CreateFileRequest {
  std::string name;
  std::uint8_t distribution = 0;
  std::uint32_t width = 0;  ///< 0 = interleave across all LFSs
  std::uint32_t start_lfs = 0;
  std::uint32_t chunk_blocks = 0;  ///< chunked only: per-LFS capacity
  std::uint64_t hash_seed = 0;     ///< hashed only
  static auto fields(auto& m) {
    return std::tie(m.name, m.distribution, m.width, m.start_lfs,
                    m.chunk_blocks, m.hash_seed);
  }
};

struct CreateFileResponse {
  BridgeFileId id = 0;
  static auto fields(auto& m) { return std::tie(m.id); }
};

struct DeleteFileRequest {
  std::string name;
  static auto fields(auto& m) { return std::tie(m.name); }
};

struct DeleteManyRequest {
  std::vector<std::string> names;
  static auto fields(auto& m) { return std::tie(m.names); }
};

struct OpenRequest {
  std::string name;
  static auto fields(auto& m) { return std::tie(m.name); }
};

struct OpenResponse {
  FileMeta meta;
  std::uint64_t session = 0;
  static auto fields(auto& m) { return std::tie(m.meta, m.session); }
};

struct SeqReadRequest {
  std::uint64_t session = 0;
  static auto fields(auto& m) { return std::tie(m.session); }
};

struct SeqReadResponse {
  bool eof = false;
  std::uint64_t block_no = 0;
  std::vector<std::byte> data;  ///< user payload (<= 960 bytes)
  static auto fields(auto& m) { return std::tie(m.eof, m.block_no, m.data); }
};

struct RandomReadRequest {
  BridgeFileId id = 0;
  std::uint64_t block_no = 0;
  static auto fields(auto& m) { return std::tie(m.id, m.block_no); }
};

struct RandomReadResponse {
  std::vector<std::byte> data;
  static auto fields(auto& m) { return std::tie(m.data); }
};

struct SeqWriteRequest {
  std::uint64_t session = 0;
  std::vector<std::byte> data;
  static auto fields(auto& m) { return std::tie(m.session, m.data); }
};

struct SeqWriteResponse {
  std::uint64_t block_no = 0;
  static auto fields(auto& m) { return std::tie(m.block_no); }
};

struct RandomWriteRequest {
  BridgeFileId id = 0;
  std::uint64_t block_no = 0;
  std::vector<std::byte> data;
  static auto fields(auto& m) { return std::tie(m.id, m.block_no, m.data); }
};

/// Sequential read of up to `max_blocks` blocks from the session cursor.
struct SeqReadManyRequest {
  std::uint64_t session = 0;
  std::uint32_t max_blocks = 0;
  static auto fields(auto& m) { return std::tie(m.session, m.max_blocks); }
};

struct SeqReadManyResponse {
  bool eof = false;  ///< cursor reached end of file after this run
  std::uint64_t first_block_no = 0;
  std::vector<std::vector<std::byte>> blocks;  ///< global-block order
  static auto fields(auto& m) {
    return std::tie(m.eof, m.first_block_no, m.blocks);
  }
};

/// Sequential append of a run of blocks at the session write cursor.  The
/// run either commits whole (cursor advances by blocks.size()) or fails
/// whole (cursor and file size unchanged).
struct SeqWriteManyRequest {
  std::uint64_t session = 0;
  std::vector<std::vector<std::byte>> blocks;
  static auto fields(auto& m) { return std::tie(m.session, m.blocks); }
};

struct SeqWriteManyResponse {
  std::uint64_t first_block_no = 0;
  std::uint32_t count = 0;
  static auto fields(auto& m) { return std::tie(m.first_block_no, m.count); }
};

/// Reposition a session's sequential read cursor to `block_no` (clamped to
/// the file size, so seeking past EOF parks the cursor at EOF).
struct SeqSeekRequest {
  std::uint64_t session = 0;
  std::uint64_t block_no = 0;
  static auto fields(auto& m) { return std::tie(m.session, m.block_no); }
};

struct SeqSeekResponse {
  std::uint64_t block_no = 0;  ///< cursor position after the (clamped) seek
  static auto fields(auto& m) { return std::tie(m.block_no); }
};

/// Rename `from` to `to`.  Sent to the server that homes `from`.
struct RenameRequest {
  std::string from;
  std::string to;
  static auto fields(auto& m) { return std::tie(m.from, m.to); }
};

struct RenameResponse {
  /// The file's id after the rename.  Unchanged for a local rename; freshly
  /// minted from the destination's slice for a cross-server move, so the
  /// top byte routes to the entry's new home (stale pre-rename ids resolve
  /// to not_found at the old home, never to another file's data).
  BridgeFileId id = 0;
  static auto fields(auto& m) { return std::tie(m.id); }
};

/// Coordinator -> destination: install this detached directory record under
/// `to` (cross-server rename prepare).  `seq` keys the coordinator's pending
/// table and is echoed in the ack.
struct RenameInstallRequest {
  std::uint64_t seq = 0;
  std::string to;
  std::uint32_t lfs_file_id = 0;
  PlacementMap placement;
  static auto fields(auto& m) {
    return std::tie(m.seq, m.to, m.lfs_file_id, m.placement);
  }
};

/// Destination -> coordinator: commit (code=kOk, `new_id` minted from the
/// destination's slice) or abort (code + reason, e.g. kAlreadyExists).
struct RenameAck {
  std::uint64_t seq = 0;
  std::uint8_t code = 0;  ///< util::ErrorCode value; 0 = committed
  BridgeFileId new_id = 0;
  std::string error;
  static auto fields(auto& m) {
    return std::tie(m.seq, m.code, m.new_id, m.error);
  }
};

/// List directory entries whose names start with `prefix` ("" = all).
struct ListRequest {
  std::string prefix;
  static auto fields(auto& m) { return std::tie(m.prefix); }
};

/// One directory entry in a listing.  `size_blocks` is the directory's
/// bookkeeping size (refreshed on Open, not here — a listing is a cheap
/// in-memory sweep, the metadata-storm survival property).
struct ListEntry {
  std::string name;
  BridgeFileId id = 0;
  std::uint64_t size_blocks = 0;
  std::uint8_t distribution = 0;
  static auto fields(auto& m) {
    return std::tie(m.name, m.id, m.size_blocks, m.distribution);
  }
};

/// Entries sorted by name (each server sorts its partition; the routed
/// client's k-way merge then yields one globally sorted listing).
struct ListResponse {
  std::vector<ListEntry> entries;
  static auto fields(auto& m) { return std::tie(m.entries); }
};

/// Random read of `count` consecutive blocks starting at `first_block`.
struct RandomReadManyRequest {
  BridgeFileId id = 0;
  std::uint64_t first_block = 0;
  std::uint32_t count = 0;
  static auto fields(auto& m) { return std::tie(m.id, m.first_block, m.count); }
};

struct RandomReadManyResponse {
  std::vector<std::vector<std::byte>> blocks;  ///< blocks[i] = first+i
  static auto fields(auto& m) { return std::tie(m.blocks); }
};

/// Shrink file `id` to `new_size_blocks` global blocks.  Growing is not
/// supported (write at the end to extend); equal size is a no-op.
struct TruncateFileRequest {
  BridgeFileId id = 0;
  std::uint64_t new_size_blocks = 0;
  static auto fields(auto& m) { return std::tie(m.id, m.new_size_blocks); }
};

struct TruncateFileResponse {
  std::uint64_t size_blocks = 0;  ///< file size after the truncate
  static auto fields(auto& m) { return std::tie(m.size_blocks); }
};

struct ParallelOpenRequest {
  std::uint64_t session = 0;
  std::vector<sim::Address> workers;
  static auto fields(auto& m) { return std::tie(m.session, m.workers); }
};

struct ParallelOpenResponse {
  std::uint64_t job = 0;
  static auto fields(auto& m) { return std::tie(m.job); }
};

struct ParallelReadRequest {
  std::uint64_t job = 0;
  static auto fields(auto& m) { return std::tie(m.job); }
};

struct ParallelReadResponse {
  std::uint32_t blocks_delivered = 0;
  bool eof = false;
  static auto fields(auto& m) { return std::tie(m.blocks_delivered, m.eof); }
};

struct ParallelWriteRequest {
  std::uint64_t job = 0;
  static auto fields(auto& m) { return std::tie(m.job); }
};

struct ParallelWriteResponse {
  std::uint32_t blocks_written = 0;
  static auto fields(auto& m) { return std::tie(m.blocks_written); }
};

struct ResolveRequest {
  BridgeFileId id = 0;
  std::uint64_t first_block = 0;
  std::uint32_t count = 0;
  static auto fields(auto& m) { return std::tie(m.id, m.first_block, m.count); }
};

struct ResolveResponse {
  std::vector<Placement> placements;  ///< placements[i] = block first+i
  static auto fields(auto& m) { return std::tie(m.placements); }
};

/// Get Info: everything a tool needs to talk to the LFS level directly.
/// Hand-written layout: both arrays are sized by the one `num_lfs`, not by
/// counts of their own.
struct GetInfoResponse {
  std::uint32_t num_lfs = 0;
  std::vector<sim::Address> lfs_services;  ///< index i = LFS i
  std::vector<std::uint32_t> lfs_nodes;    ///< node hosting LFS i

  void encode(util::Writer& w) const {
    w.u32(num_lfs);
    for (const auto& a : lfs_services) a.encode(w);
    for (auto n : lfs_nodes) w.u32(n);
  }
  static GetInfoResponse decode(util::Reader& r) {
    GetInfoResponse resp;
    resp.num_lfs = r.count();
    resp.lfs_services.resize(resp.num_lfs);
    for (auto& a : resp.lfs_services) a = sim::Address::decode(r);
    resp.lfs_nodes.resize(resp.num_lfs);
    for (auto& n : resp.lfs_nodes) n = r.u32();
    return resp;
  }
};

/// Server -> worker one-way delivery during a parallel read.
struct WorkerData {
  bool eof = false;
  std::uint64_t global_block_no = 0;
  std::vector<std::byte> data;
  static auto fields(auto& m) {
    return std::tie(m.eof, m.global_block_no, m.data);
  }
};

/// Server -> worker solicitation during a parallel write (request).
struct WorkerGiveRequest {
  std::uint64_t global_block_no = 0;
  static auto fields(auto& m) { return std::tie(m.global_block_no); }
};

/// Worker's reply: its next block (or has_data=false when drained).
struct WorkerGiveResponse {
  bool has_data = false;
  std::vector<std::byte> data;
  static auto fields(auto& m) { return std::tie(m.has_data, m.data); }
};

}  // namespace bridge::core
