// Whole-machine persistence: disk images + Bridge directory snapshots,
// restored into a fresh instance — files (including hashed/linked ones,
// whose placement tables live only in the directory) survive the restart.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "src/core/instance.hpp"
#include "src/efs/client.hpp"

namespace bridge::core {
namespace {

SystemConfig cfg(std::uint32_t p) {
  return SystemConfig::paper_profile(p, 512);
}

std::vector<std::byte> record(std::uint32_t tag) {
  std::vector<std::byte> data(efs::kUserDataBytes);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = std::byte(static_cast<std::uint8_t>(tag * 29 + i));
  }
  return data;
}

TEST(MachinePersistence, FullSaveRestartRestore) {
  std::string dir = ::testing::TempDir();
  {
    BridgeInstance machine(cfg(4));
    machine.run_client("w", [&](sim::Context&, BridgeClient& client) {
      // A round-robin file and a hashed file (placement only in the dir).
      ASSERT_TRUE(client.create("plain").is_ok());
      CreateOptions hashed;
      hashed.distribution = Distribution::kHashed;
      hashed.hash_seed = 77;
      ASSERT_TRUE(client.create("scattered", hashed).is_ok());
      for (const char* name : {"plain", "scattered"}) {
        auto open = client.open(name);
        ASSERT_TRUE(open.is_ok());
        for (std::uint32_t i = 0; i < 10; ++i) {
          ASSERT_TRUE(client.seq_write(open.value().session, record(i)).is_ok());
        }
      }
    });
    machine.run();
    // Administrative shutdown: flush every LFS, then snapshot.
    machine.runtime().spawn(machine.config().client_node(), "sync",
                            [&](sim::Context& ctx) {
                              sim::RpcClient rpc(ctx);
                              for (std::uint32_t i = 0; i < 4; ++i) {
                                efs::EfsClient efs(rpc, machine.lfs(i).address());
                                ASSERT_TRUE(efs.sync().is_ok());
                              }
                            });
    machine.run();
    ASSERT_TRUE(machine.save_machine(dir).is_ok());
  }
  {
    // "Power up" a brand-new machine from the snapshot.
    BridgeInstance machine(cfg(4));
    ASSERT_TRUE(machine.load_machine(dir).is_ok());
    EXPECT_TRUE(machine.verify_all_lfs().is_ok());
    int verified = 0;
    machine.run_client("r", [&](sim::Context&, BridgeClient& client) {
      for (const char* name : {"plain", "scattered"}) {
        auto open = client.open(name);
        ASSERT_TRUE(open.is_ok()) << name;
        ASSERT_EQ(open.value().meta.size_blocks, 10u) << name;
        for (std::uint32_t i = 0; i < 10; ++i) {
          auto r = client.seq_read(open.value().session);
          ASSERT_TRUE(r.is_ok());
          if (r.value().data == record(i)) ++verified;
        }
      }
      // The restored id allocator must not collide with existing files.
      auto fresh = client.create("post-restart");
      ASSERT_TRUE(fresh.is_ok());
    });
    machine.run();
    EXPECT_EQ(verified, 20);
  }
}

TEST(MachinePersistence, LoadMissingSnapshotFails) {
  BridgeInstance machine(cfg(2));
  EXPECT_FALSE(machine.load_machine("/nonexistent/dir").is_ok());
}

TEST(MachinePersistence, DirectorySnapshotRoundTripsPlacement) {
  // encode_state/decode_state preserve hashed placement tables exactly.
  BridgeInstance a(cfg(4));
  a.run_client("w", [&](sim::Context&, BridgeClient& client) {
    CreateOptions hashed;
    hashed.distribution = Distribution::kHashed;
    hashed.hash_seed = 5;
    ASSERT_TRUE(client.create("h", hashed).is_ok());
    auto open = client.open("h");
    for (std::uint32_t i = 0; i < 16; ++i) {
      ASSERT_TRUE(client.seq_write(open.value().session, record(i)).is_ok());
    }
  });
  a.run();
  util::Writer w;
  a.server().encode_state(w);

  BridgeInstance b(cfg(4));
  util::Reader r(w.buffer());
  auto state = b.server().decode_state(r);
  ASSERT_TRUE(state.is_ok());
  b.server().install_state(std::move(state).value());
  EXPECT_EQ(b.server().directory_size(), 1u);
}

/// Save a machine holding one hashed file into a fresh directory `name`
/// under the test temp dir, and return that directory.
std::string saved_machine(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::create_directories(dir);
  BridgeInstance machine(cfg(4));
  machine.run_client("w", [&](sim::Context&, BridgeClient& client) {
    CreateOptions hashed;
    hashed.distribution = Distribution::kHashed;
    ASSERT_TRUE(client.create("h", hashed).is_ok());
    auto open = client.open("h");
    ASSERT_TRUE(open.is_ok());
    for (std::uint32_t i = 0; i < 4; ++i) {
      ASSERT_TRUE(client.seq_write(open.value().session, record(i)).is_ok());
    }
  });
  machine.run();
  EXPECT_TRUE(machine.save_machine(dir).is_ok());
  return dir;
}

void overwrite(const std::string& path, std::span<const std::byte> bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

TEST(MachinePersistence, TruncatedDirectorySnapshotIsCorrupt) {
  std::string dir = saved_machine("truncated");
  std::string path = dir + "/bridge0.dir";
  auto size = std::filesystem::file_size(path);
  ASSERT_GT(size, 10u);
  std::filesystem::resize_file(path, size - 10);
  BridgeInstance machine(cfg(4));
  EXPECT_EQ(machine.load_machine(dir).code(), util::ErrorCode::kCorrupt);
}

/// A directory snapshot of one 2-block hashed file on a `total_lfs`-LFS
/// machine whose second table entry names LFS `second_lfs`.
std::vector<std::byte> hashed_snapshot(std::uint32_t second_lfs,
                                       std::uint32_t total_lfs) {
  util::Writer w;
  w.u32(0xB81DD1C7);
  w.u32(1001);
  w.u32(1);
  w.str("h");
  w.u32(1000);
  w.u32(1000);
  w.u8(static_cast<std::uint8_t>(Distribution::kHashed));
  w.u32(4);  // width
  w.u32(total_lfs);
  w.u32(0);  // start_lfs
  w.u32(0);  // chunk_blocks
  w.u64(0);  // hash_seed
  w.u64(2);  // size_blocks
  w.u32(2);  // table entries
  w.u32(1);
  w.u32(0);
  w.u32(second_lfs);
  w.u32(0);
  return std::move(w).take();
}

TEST(MachinePersistence, HashedEntryNamingLfsPIsCorrupt) {
  std::string dir = saved_machine("lfs-out-of-range");
  overwrite(dir + "/bridge0.dir", hashed_snapshot(3, 4));
  BridgeInstance valid(cfg(4));
  EXPECT_TRUE(valid.load_machine(dir).is_ok());
  // On a p=4 machine there is no LFS 4.
  overwrite(dir + "/bridge0.dir", hashed_snapshot(4, 4));
  BridgeInstance machine(cfg(4));
  EXPECT_EQ(machine.load_machine(dir).code(), util::ErrorCode::kCorrupt);
}

TEST(MachinePersistence, RecordFromAnotherMachineSizeIsCorrupt) {
  // A well-formed record placed over 8 LFSs does not belong on p=4.
  std::string dir = saved_machine("wrong-p");
  overwrite(dir + "/bridge0.dir", hashed_snapshot(3, 8));
  BridgeInstance machine(cfg(4));
  EXPECT_EQ(machine.load_machine(dir).code(), util::ErrorCode::kCorrupt);
  EXPECT_EQ(machine.server().directory_size(), 0u);
}

TEST(MachinePersistence, CorruptSecondSnapshotInstallsNoDirectory) {
  // Every server's snapshot is checked before any is installed: a corrupt
  // bridge1.dir leaves server 0's directory as it was, too.
  SystemConfig two = cfg(4);
  two.num_bridge_servers = 2;
  std::string dir = ::testing::TempDir() + "/second-corrupt";
  std::filesystem::create_directories(dir);
  {
    BridgeInstance machine(two);
    machine.run_client("idle", [](sim::Context&, BridgeClient&) {});
    machine.run();
    ASSERT_TRUE(machine.save_machine(dir).is_ok());
  }
  overwrite(dir + "/bridge0.dir", hashed_snapshot(3, 4));
  overwrite(dir + "/bridge1.dir", hashed_snapshot(3, 4));
  BridgeInstance valid(two);
  ASSERT_TRUE(valid.load_machine(dir).is_ok());
  EXPECT_EQ(valid.server(0).directory_size(), 1u);

  overwrite(dir + "/bridge1.dir", hashed_snapshot(3, 8));
  BridgeInstance machine(two);
  EXPECT_EQ(machine.load_machine(dir).code(), util::ErrorCode::kCorrupt);
  EXPECT_EQ(machine.server(0).directory_size(), 0u);
}

}  // namespace
}  // namespace bridge::core
