// Protocol robustness: malformed payloads, unknown message types, stale
// sessions, and interleaved session use must yield clean error replies and
// leave the servers serving.
#include <gtest/gtest.h>

#include "src/core/instance.hpp"
#include "src/efs/client.hpp"
#include "src/sim/rng.hpp"

namespace bridge::core {
namespace {

SystemConfig cfg(std::uint32_t p) {
  return SystemConfig::paper_profile(p, 512);
}

std::vector<std::byte> record(std::uint32_t tag) {
  std::vector<std::byte> data(efs::kUserDataBytes);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = std::byte(static_cast<std::uint8_t>(tag ^ i));
  }
  return data;
}

TEST(ProtocolRobustness, GarbagePayloadGetsErrorReply) {
  BridgeInstance inst(cfg(2));
  inst.start();
  sim::Address server = inst.bridge_address();
  bool server_alive_after = false;
  inst.runtime().spawn(
      inst.config().client_node(), "attacker", [&](sim::Context& ctx) {
        sim::RpcClient rpc(ctx);
        // Truncated / garbage payloads for several message types.
        std::vector<std::byte> junk{std::byte{0xDE}, std::byte{0xAD}};
        for (std::uint32_t type : {0x200u, 0x202u, 0x203u, 0x205u, 0x207u}) {
          auto reply = rpc.call(server, type, junk);
          EXPECT_FALSE(reply.is_ok()) << "type " << type;
        }
        // Unknown message type.
        auto reply = rpc.call(server, 0x9999, junk);
        EXPECT_FALSE(reply.is_ok());
        EXPECT_EQ(reply.status().code(), util::ErrorCode::kInvalidArgument);
        // The server must still serve real requests afterwards.
        BridgeClient client(ctx, server);
        server_alive_after = client.create("post-attack").is_ok();
      });
  inst.run();
  EXPECT_TRUE(server_alive_after);
}

TEST(ProtocolRobustness, EfsServerSurvivesGarbage) {
  BridgeInstance inst(cfg(2));
  inst.start();
  sim::Address lfs = inst.lfs(0).address();
  bool alive = false;
  util::ErrorCode retired_code = util::ErrorCode::kOk;
  inst.runtime().spawn(inst.config().client_node(), "attacker",
                       [&](sim::Context& ctx) {
                         sim::RpcClient rpc(ctx);
                         std::vector<std::byte> junk(3, std::byte{0x77});
                         const auto last = static_cast<std::uint32_t>(
                             efs::MsgType::kTruncate);
                         for (std::uint32_t type = 0x100; type <= last; ++type) {
                           (void)rpc.call(lfs, type, junk);  // fuzzing: any non-crash reply (incl. errors) is a pass
                         }
                         // 0x103, the retired single-block read, is unknown.
                         retired_code = rpc.call(lfs, 0x103, {}).status().code();
                         efs::EfsClient efs(rpc, lfs);
                         alive = efs.create(12345).is_ok();
                       });
  inst.run();
  EXPECT_TRUE(alive);
  EXPECT_EQ(retired_code, util::ErrorCode::kInvalidArgument);
}

TEST(ProtocolRobustness, SessionOutlivesFileDeletionGracefully) {
  BridgeInstance inst(cfg(2));
  inst.run_client("c", [&](sim::Context&, BridgeClient& client) {
    ASSERT_TRUE(client.create("f").is_ok());
    auto open = client.open("f");
    ASSERT_TRUE(open.is_ok());
    ASSERT_TRUE(client.seq_write(open.value().session, record(1)).is_ok());
    ASSERT_TRUE(client.remove("f").is_ok());
    // The session survives as soft state but its file is gone.
    auto r = client.seq_read(open.value().session);
    EXPECT_FALSE(r.is_ok());
    EXPECT_EQ(r.status().code(), util::ErrorCode::kNotFound);
    auto w = client.seq_write(open.value().session, record(2));
    EXPECT_FALSE(w.is_ok());
  });
  inst.run();
}

TEST(ProtocolRobustness, TwoSessionsOnOneFileAreIndependent) {
  BridgeInstance inst(cfg(2));
  inst.run_client("c", [&](sim::Context&, BridgeClient& client) {
    ASSERT_TRUE(client.create("f").is_ok());
    auto writer = client.open("f");
    ASSERT_TRUE(writer.is_ok());
    for (std::uint32_t i = 0; i < 6; ++i) {
      ASSERT_TRUE(client.seq_write(writer.value().session, record(i)).is_ok());
    }
    auto s1 = client.open("f");
    auto s2 = client.open("f");
    ASSERT_TRUE(s1.is_ok());
    ASSERT_TRUE(s2.is_ok());
    // Interleave reads on the two sessions; cursors must not interfere.
    for (std::uint32_t i = 0; i < 6; ++i) {
      auto r1 = client.seq_read(s1.value().session);
      ASSERT_TRUE(r1.is_ok());
      EXPECT_EQ(r1.value().block_no, i);
      if (i % 2 == 0) {
        auto r2 = client.seq_read(s2.value().session);
        ASSERT_TRUE(r2.is_ok());
        EXPECT_EQ(r2.value().block_no, i / 2);
      }
    }
  });
  inst.run();
}

TEST(ProtocolRobustness, WriterAppendsVisibleToLaterSessionsOnly) {
  BridgeInstance inst(cfg(2));
  inst.run_client("c", [&](sim::Context&, BridgeClient& client) {
    ASSERT_TRUE(client.create("f").is_ok());
    auto early = client.open("f");  // size snapshot: 0
    ASSERT_TRUE(early.is_ok());
    auto writer = client.open("f");
    for (std::uint32_t i = 0; i < 4; ++i) {
      ASSERT_TRUE(client.seq_write(writer.value().session, record(i)).is_ok());
    }
    // The early session's reads see the CURRENT directory size (sessions
    // hold cursors, not snapshots): 4 blocks are readable.
    int readable = 0;
    while (true) {
      auto r = client.seq_read(early.value().session);
      ASSERT_TRUE(r.is_ok());
      if (r.value().eof) break;
      ++readable;
    }
    EXPECT_EQ(readable, 4);
  });
  inst.run();
}

TEST(ProtocolRobustness, ResolveRejectsBadRanges) {
  BridgeInstance inst(cfg(2));
  inst.run_client("c", [&](sim::Context&, BridgeClient& client) {
    auto id = client.create("f");
    ASSERT_TRUE(id.is_ok());
    auto open = client.open("f");
    ASSERT_TRUE(client.seq_write(open.value().session, record(0)).is_ok());
    // In-range resolve works.
    auto ok = client.resolve(id.value(), 0, 1);
    ASSERT_TRUE(ok.is_ok());
    EXPECT_EQ(ok.value().placements.size(), 1u);
    // Past-EOF resolve fails cleanly.
    EXPECT_FALSE(client.resolve(id.value(), 0, 5).is_ok());
    EXPECT_FALSE(client.resolve(9999999, 0, 1).is_ok());
  });
  inst.run();
}

/// `prefix_bytes` bytes of leading fields, then a u32 count of 0xFFFFFFFF
/// and nothing after it.
std::vector<std::byte> oversized_count(std::size_t prefix_bytes) {
  std::vector<std::byte> payload(prefix_bytes, std::byte{1});
  payload.insert(payload.end(), 4, std::byte{0xFF});
  return payload;
}

TEST(ProtocolRobustness, OversizedCountGetsCorruptReply) {
  BridgeInstance inst(cfg(2));
  inst.start();
  sim::Address server = inst.bridge_address();
  sim::Address lfs = inst.lfs(0).address();
  std::vector<util::ErrorCode> codes;
  bool bridge_alive = false;
  bool lfs_alive = false;
  inst.runtime().spawn(
      inst.config().client_node(), "attacker", [&](sim::Context& ctx) {
        sim::RpcClient rpc(ctx);
        // A vectored message whose count claims four billion elements must
        // be refused before anything is reserved for them.
        struct Case {
          sim::Address to;
          std::uint32_t type;
          std::size_t prefix_bytes;  ///< fields before the count
        };
        const Case cases[] = {
            {server, static_cast<std::uint32_t>(BridgeMsg::kDeleteMany), 0},
            {server, static_cast<std::uint32_t>(BridgeMsg::kSeqWriteMany), 8},
            {server, static_cast<std::uint32_t>(BridgeMsg::kParallelOpen), 8},
            {lfs, static_cast<std::uint32_t>(efs::MsgType::kReadMany), 4},
            {lfs, static_cast<std::uint32_t>(efs::MsgType::kWriteMany), 4},
        };
        for (const Case& c : cases) {
          auto reply = rpc.call(c.to, c.type, oversized_count(c.prefix_bytes));
          codes.push_back(reply.status().code());
        }
        BridgeClient client(ctx, server);
        bridge_alive = client.create("post-attack").is_ok();
        efs::EfsClient efs(rpc, lfs);
        lfs_alive = efs.create(4242).is_ok();
      });
  inst.run();
  ASSERT_EQ(codes.size(), 5u);
  for (std::size_t i = 0; i < codes.size(); ++i) {
    EXPECT_EQ(codes[i], util::ErrorCode::kCorrupt) << "case " << i;
  }
  EXPECT_TRUE(bridge_alive);
  EXPECT_TRUE(lfs_alive);
}

TEST(ProtocolRobustness, RandomPayloadsAlwaysGetAReply) {
  BridgeInstance inst(cfg(2));
  inst.start();
  sim::Address server = inst.bridge_address();
  sim::Address lfs = inst.lfs(0).address();
  constexpr int kPerType = 24;
  int calls = 0;
  int replies = 0;
  bool bridge_alive = false;
  bool lfs_alive = false;
  inst.runtime().spawn(
      inst.config().client_node(), "fuzzer", [&](sim::Context& ctx) {
        sim::RpcClient rpc(ctx);
        sim::Rng rng(0xB81D6E);
        auto fuzz = [&](sim::Address to, std::uint32_t first,
                        std::uint32_t last) {
          for (std::uint32_t type = first; type <= last; ++type) {
            for (int i = 0; i < kPerType; ++i) {
              std::vector<std::byte> payload(rng.next_below(65));
              for (auto& b : payload) {
                b = std::byte(static_cast<std::uint8_t>(rng.next_u64()));
              }
              ++calls;
              // Any reply, ok or error, is a pass; a dead server never
              // answers.
              (void)rpc.call(to, type, payload);
              ++replies;
            }
          }
        };
        fuzz(server, static_cast<std::uint32_t>(BridgeMsg::kCreate),
             static_cast<std::uint32_t>(BridgeMsg::kList));
        fuzz(lfs, static_cast<std::uint32_t>(efs::MsgType::kCreate),
             static_cast<std::uint32_t>(efs::MsgType::kTruncate));
        BridgeClient client(ctx, server);
        bridge_alive = client.create("post-fuzz").is_ok();
        efs::EfsClient efs(rpc, lfs);
        lfs_alive = efs.create(4243).is_ok();
      });
  inst.run();
  EXPECT_EQ(calls, (20 + 9) * kPerType);
  EXPECT_EQ(replies, calls);
  EXPECT_TRUE(bridge_alive);
  EXPECT_TRUE(lfs_alive);
}

TEST(ProtocolRobustness, CorruptRenameInstallGetsAbortAck) {
  // A peer's install record is checked like a snapshot: one whose map spans
  // 5 LFSs on a p=2 machine, and one cut short after its seq, are each
  // answered with a kCorrupt abort ack (the coordinator then reinstates its
  // file) and install nothing.
  BridgeInstance inst(cfg(2));
  inst.start();
  sim::Address server = inst.bridge_address();
  std::vector<RenameAck> acks;
  bool installed = true;
  inst.runtime().spawn(
      inst.config().client_node(), "peer", [&](sim::Context& ctx) {
        sim::Mailbox box(ctx.runtime().scheduler(), ctx.node());
        RenameInstallRequest install{
            7, "moved", 1234,
            PlacementMap(Distribution::kRoundRobin, 2, 0, 5, 0, 0)};
        auto wrong_p = util::encode_to_bytes(install);
        auto truncated = wrong_p;
        truncated.resize(20);  // seq and name intact, lfs_file_id cut
        for (const auto& payload : {wrong_p, truncated}) {
          sim::Envelope env;
          env.type = static_cast<std::uint32_t>(BridgeMsg::kRenameInstall);
          env.reply_to = box.address();
          env.payload = payload;
          sim::post(ctx, server, std::move(env));
          acks.push_back(
              util::decode_from_bytes<RenameAck>(box.recv().payload));
        }
        BridgeClient client(ctx, server);
        installed = client.open("moved").is_ok();
      });
  inst.run();
  ASSERT_EQ(acks.size(), 2u);
  for (const RenameAck& ack : acks) {
    EXPECT_EQ(ack.seq, 7u);
    EXPECT_EQ(ack.code, static_cast<std::uint8_t>(util::ErrorCode::kCorrupt));
  }
  EXPECT_FALSE(installed);
}

}  // namespace
}  // namespace bridge::core
