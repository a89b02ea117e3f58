// The Bridge Server: glue that makes p local file systems look like one.
//
// "The Bridge Server is the interface between the Bridge file system and
// user programs.  Its function is to glue the local file systems together
// into a single logical structure" (§4.1).  It implements the three system
// views: the naive sequential interface (requests transparently forwarded to
// the right LFS), the parallel-open interface (jobs moving t blocks per
// operation in lock step, with virtual parallelism when t > p), and Get Info
// for tools.  It is also the monitor around all directory operations —
// Create, Delete and Open happen only here (§4.2).
//
// Like the prototype it is a single centralized process by default; the
// paper notes the same functionality could be distributed if it became a
// bottleneck.  With SystemConfig::num_bridge_servers = k, each of k servers
// owns a name partition of the directory and mints every file id, session
// and job handle with its own home in the top byte.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/core/config.hpp"
#include "src/core/protocol.hpp"
#include "src/efs/protocol.hpp"
#include "src/sim/rpc.hpp"
#include "src/sim/runtime.hpp"

namespace bridge::core {

/// Race-detector anchor for per-file placement state.  Placement accesses are
/// keyed by (&kPlacementRaceAnchor, lfs_file_id) rather than the FileRecord's
/// own address so the pre- and post-rename copies of one file's placement —
/// which live in different BridgeServer directories — name the SAME logical
/// object.  The kRenameInstall/kRenameAck message edges are then exactly what
/// makes the ownership handoff race-free, and the detector verifies that
/// mechanically.  lfs_file_id works as the sub-key because servers mint from
/// disjoint id slices (it is unique machine-wide) and it survives rename.
inline constexpr char kPlacementRaceAnchor = 0;

struct BridgeServerStats {
  std::uint64_t requests = 0;
  std::uint64_t blocks_forwarded = 0;
  std::uint64_t parallel_rounds = 0;
  std::uint64_t vectored_batches = 0;  ///< multi-block runs served
  std::uint64_t vectored_blocks = 0;   ///< blocks moved by those runs
  std::uint64_t renames_local = 0;     ///< renames resolved within one home
  std::uint64_t renames_out = 0;       ///< cross-server renames coordinated
  std::uint64_t renames_in = 0;        ///< records installed for a peer
  std::uint64_t rename_aborts = 0;     ///< cross-server renames rolled back
  std::uint64_t lists = 0;             ///< directory listings served

  void reset() noexcept { *this = BridgeServerStats{}; }

  /// Publish counters under `prefix` (e.g. "bridge.n8").
  void publish(obs::MetricsRegistry& registry, const std::string& prefix) const;

  /// Phase delta: activity since `b` was captured.
  friend BridgeServerStats operator-(BridgeServerStats a,
                                     const BridgeServerStats& b) noexcept {
    a.requests -= b.requests;
    a.blocks_forwarded -= b.blocks_forwarded;
    a.parallel_rounds -= b.parallel_rounds;
    a.vectored_batches -= b.vectored_batches;
    a.vectored_blocks -= b.vectored_blocks;
    a.renames_local -= b.renames_local;
    a.renames_out -= b.renames_out;
    a.renames_in -= b.renames_in;
    a.rename_aborts -= b.rename_aborts;
    a.lists -= b.lists;
    return a;
  }
};

class BridgeServer {
 public:
  /// `lfs_services[i]` / `lfs_nodes[i]` locate LFS instance i.
  /// `file_id_base` partitions the LFS file-id space when several Bridge
  /// Servers share one machine (each needs disjoint constituent ids); its
  /// home byte is also the home of every session and job handle minted here.
  BridgeServer(sim::Runtime& rt, sim::NodeId node, BridgeConfig config,
               std::vector<sim::Address> lfs_services,
               std::vector<std::uint32_t> lfs_nodes,
               BridgeFileId file_id_base = 1000);

  /// Spawn the daemon service loop.  Call once, before Runtime::run.
  void start();

  [[nodiscard]] sim::Address address() noexcept { return mailbox_->address(); }
  [[nodiscard]] std::uint32_t num_lfs() const noexcept {
    return static_cast<std::uint32_t>(lfs_services_.size());
  }
  [[nodiscard]] const BridgeServerStats& stats() const noexcept {
    return stats_;
  }
  /// Zero the counters (phase measurement without rebuilding the instance).
  void reset_stats() noexcept { stats_.reset(); }
  [[nodiscard]] sim::NodeId node() const noexcept { return node_; }
  /// Wire this server into a routed group: `peers[i]` is the service address
  /// of the Bridge Server homed at directory index i (`peers[home()]` is this
  /// server).  Enables the cross-server rename path.  Call before start().
  void set_peers(std::vector<sim::Address> peers) { peers_ = std::move(peers); }
  /// This server's home index within its routed group: the top byte of
  /// `file_id_base`, and of every id and handle it mints.
  [[nodiscard]] std::uint32_t home() const noexcept { return home_; }
  /// Number of Bridge files currently in the directory (tests).
  [[nodiscard]] std::size_t directory_size() const noexcept {
    return directory_.size();
  }

  /// Serialize the durable server state — the directory (including
  /// hashed/linked placement tables) and the file-id allocator.  Sessions
  /// and jobs are deliberately excluded: they are soft state, consistent
  /// with the semi-stateless Open of §4.1.  Call while the simulation is
  /// idle (administrative shutdown).
  void encode_state(util::Writer& w) const;
  /// A directory snapshot read by decode_state, not yet in effect.
  struct State;
  /// Decode state saved by encode_state without touching this server, so
  /// a caller can check every server's snapshot before installing any.
  util::Result<State> decode_state(util::Reader& r) const;
  /// Put a decoded snapshot in effect.  Call before the serve loop runs.
  void install_state(State state);

 private:
  struct FileRecord {
    BridgeFileId id = 0;
    std::string name;
    efs::FileId lfs_file_id = 0;
    PlacementMap placement;
  };
  struct Session {
    std::string name;
    std::uint64_t read_cursor = 0;
    std::uint64_t write_cursor = 0;
  };

 public:
  struct State {
    BridgeFileId next_file_id = 0;
    std::unordered_map<std::string, FileRecord> directory;
    std::unordered_map<BridgeFileId, std::string> id_index;
  };

 private:
  /// An open session and the file it reads and writes.
  struct SessionFile {
    Session& session;
    FileRecord& record;
  };
  struct Job {
    std::string name;
    std::vector<sim::Address> workers;
    std::uint64_t cursor = 0;
    bool writers_drained = false;
  };
  /// A cross-server rename parked between prepare and ack.  The record is
  /// DETACHED from directory_/id_index_ while parked, so at every instant
  /// exactly one server owns a mutable placement for the file; the serve
  /// loop keeps draining other requests while the peer installs (no
  /// blocking, so opposing concurrent renames cannot deadlock).
  struct PendingRename {
    sim::Envelope client_env;  ///< reply target once the peer acks
    FileRecord record;
    std::string from;
    std::string to;
    sim::SimTime parked_at{0};  ///< prepare time, for handoff attribution
  };

  /// Per-serve-loop resources (RPC client lives on the server process stack).
  struct Wire {
    sim::Context& ctx;
    sim::RpcClient& rpc;
  };

  void serve(sim::Context& ctx);
  void handle(Wire& wire, const sim::Envelope& env);

  void handle_create(Wire& wire, const sim::Envelope& env);
  void handle_delete(Wire& wire, const sim::Envelope& env);
  void handle_delete_many(Wire& wire, const sim::Envelope& env);
  void handle_open(Wire& wire, const sim::Envelope& env);
  void handle_seq_read(Wire& wire, const sim::Envelope& env);
  void handle_random_read(Wire& wire, const sim::Envelope& env);
  void handle_seq_write(Wire& wire, const sim::Envelope& env);
  void handle_random_write(Wire& wire, const sim::Envelope& env);
  void handle_seq_read_many(Wire& wire, const sim::Envelope& env);
  void handle_seq_write_many(Wire& wire, const sim::Envelope& env);
  void handle_random_read_many(Wire& wire, const sim::Envelope& env);
  void handle_truncate(Wire& wire, const sim::Envelope& env);
  void handle_seq_seek(Wire& wire, const sim::Envelope& env);
  void handle_parallel_open(Wire& wire, const sim::Envelope& env);
  void handle_parallel_read(Wire& wire, const sim::Envelope& env);
  void handle_parallel_write(Wire& wire, const sim::Envelope& env);
  void handle_get_info(Wire& wire, const sim::Envelope& env);
  void handle_resolve(Wire& wire, const sim::Envelope& env);
  void handle_rename(Wire& wire, const sim::Envelope& env);
  void handle_rename_install(Wire& wire, const sim::Envelope& env);
  void handle_rename_ack(Wire& wire, const sim::Envelope& env);
  void handle_list(Wire& wire, const sim::Envelope& env);

  /// Scatter-gather read engine: place global blocks `first..first+count-1`,
  /// fan one vectored request out to every involved LFS concurrently, and
  /// reassemble the unwrapped user payloads in global-block order.  All
  /// outstanding replies are drained even on error.
  util::Result<std::vector<std::vector<std::byte>>> read_run(
      Wire& wire, FileRecord& record, std::uint64_t first,
      std::uint32_t count);
  /// Scatter-gather write engine: place/append the whole run up front, fan
  /// the writes out concurrently, and on any failure roll the file's size
  /// bookkeeping back to its pre-run value (the run commits or fails whole).
  util::Status write_run(Wire& wire, FileRecord& record, std::uint64_t first,
                         std::span<const std::vector<std::byte>> user_blocks);

  /// Unwrap the LFS block read for global block `n` of `record`, check that
  /// its Bridge header names that block, and charge forwarding it.  Returns
  /// the user payload.
  util::Result<std::vector<std::byte>> forward_block(
      Wire& wire, const FileRecord& record, std::uint64_t n,
      std::span<const std::byte> lfs_block);
  /// One concurrent kInfo round over `record`'s constituents on `lfss`;
  /// element k answers `lfss[k]`.  Serves Open, write_run and truncate.
  util::Result<std::vector<efs::InfoResponse>> lfs_infos(
      Wire& wire, const FileRecord& record, std::span<const std::uint32_t> lfss);
  /// Refresh a record's size from the LFS instances (used by Open).
  util::Status refresh_size(Wire& wire, FileRecord& record);
  /// Delete and DeleteMany: resolve every name, delete all their
  /// constituents in one batch (an LFS kNotFound counts as already deleted,
  /// so a partly failed Delete can be retried), then drop the entries.
  util::Status remove_files(Wire& wire, std::span<const std::string> names);

  /// Bodies shared by each single-block naive op and its run twin: read up
  /// to `max_blocks` at a session's read cursor, append `blocks` at its
  /// write cursor (returns the first block number), and read `count` blocks
  /// of a file by id.
  util::Result<SeqReadManyResponse> seq_read(Wire& wire,
                                             std::uint64_t session_id,
                                             std::uint32_t max_blocks);
  util::Result<std::uint64_t> seq_write(
      Wire& wire, std::uint64_t session_id,
      std::span<const std::vector<std::byte>> blocks);
  util::Result<std::vector<std::vector<std::byte>>> random_read(
      Wire& wire, BridgeFileId id, std::uint64_t first, std::uint32_t count);

  /// Resolve a session id to its session and file: "no such session" when
  /// the id is unknown, "file deleted: <name>" when its file is gone.
  util::Result<SessionFile> find_session(std::uint64_t session_id);
  FileRecord* find_by_name(const std::string& name);
  FileRecord* find_by_id(BridgeFileId id);
  FileMeta meta_of(const FileRecord& record) const;

  sim::Runtime& rt_;
  sim::NodeId node_;
  BridgeConfig config_;
  std::vector<sim::Address> lfs_services_;
  std::vector<std::uint32_t> lfs_nodes_;
  std::unique_ptr<sim::Mailbox> mailbox_;

  std::unordered_map<std::string, FileRecord> directory_;
  std::unordered_map<BridgeFileId, std::string> id_index_;
  std::unordered_map<std::uint64_t, Session> sessions_;
  std::unordered_map<std::uint64_t, Job> jobs_;

  /// Routed group, indexed by home.  Empty = standalone (single server).
  std::vector<sim::Address> peers_;
  std::uint32_t home_ = 0;
  /// Outbound renames parked between prepare and ack, keyed by seq.
  std::unordered_map<std::uint64_t, PendingRename> pending_renames_;
  /// Names detached by an in-flight outbound rename: create/install into
  /// these is refused until the ack commits or reinstates the record (never
  /// iterated, so hash order is unobservable).
  std::unordered_set<std::string> pending_from_;
  std::uint64_t next_rename_seq_ = 1;

  BridgeFileId next_file_id_ = 1000;
  std::uint64_t next_session_ = 0;  ///< from make_handle_base(home_)
  std::uint64_t next_job_ = 0;      ///< from make_handle_base(home_)
  BridgeServerStats stats_;
  bool started_ = false;
};

}  // namespace bridge::core
