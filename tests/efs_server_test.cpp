// EFS server + client over the RPC layer: end-to-end local file system
// behaviour as seen across the interconnect, including extent-map lookups
// and several clients sharing one server.
#include <gtest/gtest.h>

#include "src/efs/client.hpp"
#include "src/efs/server.hpp"

namespace bridge::efs {
namespace {

disk::Geometry geo() {
  disk::Geometry g;
  g.num_tracks = 256;
  g.blocks_per_track = 4;
  return g;
}

std::vector<std::byte> payload(std::uint32_t tag) {
  std::vector<std::byte> data(kEfsDataBytes);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = std::byte(static_cast<std::uint8_t>(tag * 13 + i));
  }
  return data;
}

TEST(EfsServer, RemoteCreateWriteReadDelete) {
  sim::Runtime rt(2);
  EfsServer server(rt, 0, geo(), disk::LatencyModel{}, EfsConfig{});
  server.start();
  bool done = false;
  rt.spawn(1, "client", [&](sim::Context& ctx) {
    sim::RpcClient rpc(ctx);
    EfsClient efs(rpc, server.address());
    ASSERT_TRUE(efs.create(31).is_ok());
    for (std::uint32_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(efs.write(31, i, payload(i)).is_ok());
    }
    auto info = efs.info(31);
    ASSERT_TRUE(info.is_ok());
    EXPECT_EQ(info.value().size_blocks, 10u);
    for (std::uint32_t i = 0; i < 10; ++i) {
      auto r = efs.read(31, i);
      ASSERT_TRUE(r.is_ok());
      EXPECT_EQ(r.value(), payload(i));
    }
    ASSERT_TRUE(efs.remove(31).is_ok());
    EXPECT_EQ(efs.info(31).status().code(), util::ErrorCode::kNotFound);
    done = true;
  });
  rt.run();
  EXPECT_TRUE(done);
  EXPECT_TRUE(server.core().verify_invariants().is_ok());
}

TEST(EfsServer, ExtentMapKeepsLookupsFlat) {
  sim::Runtime rt(2);
  EfsServer server(rt, 0, geo(), disk::LatencyModel{}, EfsConfig{});
  server.start();
  rt.spawn(1, "client", [&](sim::Context& ctx) {
    sim::RpcClient rpc(ctx);
    EfsClient efs(rpc, server.address());
    ASSERT_TRUE(efs.create(5).is_ok());
    for (std::uint32_t i = 0; i < 120; ++i) {
      ASSERT_TRUE(efs.write(5, i, payload(i)).is_ok());
    }
    for (std::uint32_t i = 0; i < 120; ++i) {
      ASSERT_TRUE(efs.read(5, i).is_ok());
    }
  });
  rt.run();
  // One map lookup per read, none per append: no chain walking, no
  // table needed on either side of the wire.
  EXPECT_EQ(server.core().op_stats().extent_lookups, 120u);
  // A contiguous sequential file stays one extent.
  EXPECT_EQ(server.core().op_stats().extents_allocated, 1u);
}

TEST(EfsServer, ErrorsCrossTheWire) {
  sim::Runtime rt(1);
  EfsServer server(rt, 0, geo(), disk::LatencyModel{}, EfsConfig{});
  server.start();
  rt.spawn(0, "client", [&](sim::Context& ctx) {
    sim::RpcClient rpc(ctx);
    EfsClient efs(rpc, server.address());
    EXPECT_EQ(efs.read(99, 0).status().code(), util::ErrorCode::kNotFound);
    ASSERT_TRUE(efs.create(99).is_ok());
    EXPECT_EQ(efs.create(99).code(), util::ErrorCode::kAlreadyExists);
    EXPECT_EQ(efs.read(99, 0).status().code(), util::ErrorCode::kInvalidArgument);
  });
  rt.run();
}

TEST(EfsServer, TwoClientsShareOneServer) {
  sim::Runtime rt(3);
  EfsServer server(rt, 0, geo(), disk::LatencyModel{}, EfsConfig{});
  server.start();
  int completed = 0;
  for (int c = 0; c < 2; ++c) {
    rt.spawn(1 + c, "client" + std::to_string(c), [&, c](sim::Context& ctx) {
      sim::RpcClient rpc(ctx);
      EfsClient efs(rpc, server.address());
      FileId id = 100 + static_cast<FileId>(c);
      ASSERT_TRUE(efs.create(id).is_ok());
      for (std::uint32_t i = 0; i < 20; ++i) {
        ASSERT_TRUE(efs.write(id, i, payload(c * 50 + i)).is_ok());
      }
      for (std::uint32_t i = 0; i < 20; ++i) {
        auto r = efs.read(id, i);
        ASSERT_TRUE(r.is_ok());
        EXPECT_EQ(r.value(), payload(c * 50 + i));
      }
      ++completed;
    });
  }
  rt.run();
  EXPECT_EQ(completed, 2);
  EXPECT_TRUE(server.core().verify_invariants().is_ok());
}

TEST(EfsServer, TruncateOverRpc) {
  sim::Runtime rt(2);
  EfsServer server(rt, 0, geo(), disk::LatencyModel{}, EfsConfig{});
  server.start();
  rt.spawn(1, "client", [&](sim::Context& ctx) {
    sim::RpcClient rpc(ctx);
    EfsClient efs(rpc, server.address());
    ASSERT_TRUE(efs.create(17).is_ok());
    for (std::uint32_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(efs.write(17, i, payload(i)).is_ok());
    }
    auto t = efs.truncate(17, 6);
    ASSERT_TRUE(t.is_ok());
    EXPECT_EQ(t.value().size_blocks, 6u);
    // The kept prefix still reads; the freed tail is gone.
    auto r = efs.read(17, 5);
    ASSERT_TRUE(r.is_ok());
    EXPECT_EQ(r.value(), payload(5));
    EXPECT_EQ(efs.read(17, 6).status().code(),
              util::ErrorCode::kInvalidArgument);
    EXPECT_EQ(efs.truncate(17, 9).status().code(),
              util::ErrorCode::kInvalidArgument);
    EXPECT_EQ(efs.truncate(44, 0).status().code(),
              util::ErrorCode::kNotFound);
  });
  rt.run();
  EXPECT_TRUE(server.core().verify_invariants().is_ok());
}

TEST(EfsServer, LocalClientCheaperThanRemote) {
  // A client co-located with the server (a Bridge tool worker) should finish
  // the same scan sooner than a remote client, because intra-node messages
  // are cheaper — the core claim behind exporting code to the data.
  auto measure = [&](bool local) {
    sim::Runtime rt(2);
    EfsServer server(rt, 0, geo(), disk::LatencyModel{}, EfsConfig{});
    server.start();
    sim::SimTime elapsed{};
    rt.spawn(local ? 0 : 1, "client", [&](sim::Context& ctx) {
      sim::RpcClient rpc(ctx);
      EfsClient efs(rpc, server.address());
      ASSERT_TRUE(efs.create(1).is_ok());
      for (std::uint32_t i = 0; i < 50; ++i) {
        ASSERT_TRUE(efs.write(1, i, payload(i)).is_ok());
      }
      auto start = ctx.now();
      for (std::uint32_t i = 0; i < 50; ++i) {
        ASSERT_TRUE(efs.read(1, i).is_ok());
      }
      elapsed = ctx.now() - start;
    });
    rt.run();
    return elapsed;
  };
  sim::SimTime local_time = measure(true);
  sim::SimTime remote_time = measure(false);
  EXPECT_LT(local_time.us(), remote_time.us());
}

TEST(EfsServer, SingleBlockWireSizes) {
  // Remote messages cost per byte, so these sizes fix the virtual time of
  // every single-block LFS read and write.  A one-block kReadMany is file id,
  // count, block number; its reply is the count plus one length-prefixed
  // block.
  ReadManyRequest read_req{7, {3}};
  EXPECT_EQ(util::encode_to_bytes(read_req).size(), 12u);
  ReadManyResponse read_resp;
  read_resp.blocks.push_back(payload(1));
  EXPECT_EQ(util::encode_to_bytes(read_resp).size(), 8u + kEfsDataBytes);
  WriteRequest write_req{7, 3, payload(1)};
  EXPECT_EQ(util::encode_to_bytes(write_req).size(), 12u + kEfsDataBytes);
  InfoResponse info_resp{10, 20};
  EXPECT_EQ(util::encode_to_bytes(info_resp).size(), 8u);
}

}  // namespace
}  // namespace bridge::efs
