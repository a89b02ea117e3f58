// MessageStats byte exactness under vectored ops: every message is charged
// payload + envelope header exactly once, on the right leg.  The client runs
// ON the Bridge Server node so the client<->bridge hop counts as local and
// the bridge<->LFS fan-out counts as remote — the two legs are separable.
//
// Wire encodings are value-independent in size (fixed-width ints, length-
// prefixed vectors), so expected byte counts are computed by re-encoding
// same-shape structs rather than hard-coding magic numbers.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/instance.hpp"
#include "src/efs/protocol.hpp"

namespace bridge::core {
namespace {

std::vector<std::byte> record(std::uint32_t tag) {
  std::vector<std::byte> data(efs::kUserDataBytes);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = std::byte(static_cast<std::uint8_t>(tag * 31 + i));
  }
  return data;
}

/// One accounted message: encoded payload plus the fixed envelope header.
std::uint64_t wire_size(const std::vector<std::byte>& payload) {
  return payload.size() + sim::kEnvelopeOverheadBytes;
}

/// The reply leg wraps the body in a status prefix before the envelope.
std::uint64_t reply_wire_size(const std::vector<std::byte>& body) {
  return wire_size(sim::make_reply_payload(util::ok_status(), body));
}

TEST(MessageStats, VectoredOpsAccountExactBytes) {
  // p=2, round-robin: 8 blocks split 4/4 across the two LFSs, forcing the
  // vectored kWriteMany / kReadMany paths on both remote legs.
  BridgeInstance inst(SystemConfig::paper_profile(2, 256));
  inst.start();
  sim::Runtime& rt = inst.runtime();

  rt.spawn(inst.bridge_address().node, "c", [&](sim::Context& ctx) {
    BridgeClient client(ctx, {inst.bridge_address()});
    auto id = client.create("f");
    ASSERT_TRUE(id.is_ok());
    auto open = client.open("f");
    ASSERT_TRUE(open.is_ok());

    std::vector<std::vector<std::byte>> blocks;
    for (std::uint32_t i = 0; i < 8; ++i) blocks.push_back(record(i));
    auto blocks_copy = blocks;  // seq_write_many consumes its argument

    sim::MessageStats before = rt.message_stats();
    auto write = client.seq_write_many(open.value().session, std::move(blocks));
    ASSERT_TRUE(write.is_ok());
    sim::MessageStats wd = rt.message_stats() - before;

    // Local leg: one request + one reply between client and Bridge Server.
    EXPECT_EQ(wd.local_messages, 2u);
    SeqWriteManyRequest wreq{open.value().session, std::move(blocks_copy)};
    SeqWriteManyResponse wresp{write.value().first_block_no,
                               write.value().count};
    EXPECT_EQ(wd.local_bytes,
              wire_size(util::encode_to_bytes(wreq)) +
                  reply_wire_size(util::encode_to_bytes(wresp)));

    // Remote leg: the run grows the file across both LFSs, so the bridge
    // first runs the concurrent kInfo preflight (2 requests + 2 replies),
    // then one kWriteMany per LFS (2 requests + 2 empty replies).
    EXPECT_EQ(wd.remote_messages, 8u);
    efs::InfoRequest info_req{};
    efs::InfoResponse info_resp{};
    efs::WriteManyRequest wm;
    wm.block_nos.assign(4, 0);
    wm.blocks.assign(4, std::vector<std::byte>(efs::kEfsDataBytes));
    EXPECT_EQ(wd.remote_bytes,
              2 * wire_size(util::encode_to_bytes(info_req)) +
                  2 * reply_wire_size(util::encode_to_bytes(info_resp)) +
                  2 * wire_size(util::encode_to_bytes(wm)) +
                  2 * reply_wire_size({}));

    // Now the vectored read of the same 8 blocks through a fresh session.
    auto reopen = client.open("f");
    ASSERT_TRUE(reopen.is_ok());
    before = rt.message_stats();
    auto read = client.seq_read_many(reopen.value().session, 8);
    ASSERT_TRUE(read.is_ok());
    ASSERT_EQ(read.value().blocks.size(), 8u);
    sim::MessageStats rd = rt.message_stats() - before;

    EXPECT_EQ(rd.local_messages, 2u);
    SeqReadManyRequest rreq{reopen.value().session, 8};
    EXPECT_EQ(rd.local_bytes,
              wire_size(util::encode_to_bytes(rreq)) +
                  reply_wire_size(util::encode_to_bytes(read.value())));

    // Remote leg: one kReadMany per LFS (4 block numbers each) and one
    // ReadManyResponse carrying 4 full EFS blocks each.  No preflight —
    // reads never grow the file.
    EXPECT_EQ(rd.remote_messages, 4u);
    efs::ReadManyRequest rm;
    rm.block_nos.assign(4, 0);
    efs::ReadManyResponse rm_resp;
    rm_resp.blocks.assign(4, std::vector<std::byte>(efs::kEfsDataBytes));
    EXPECT_EQ(rd.remote_bytes,
              2 * wire_size(util::encode_to_bytes(rm)) +
                  2 * reply_wire_size(util::encode_to_bytes(rm_resp)));
  });
  inst.run();
  EXPECT_TRUE(inst.verify_all_lfs().is_ok());
}

TEST(MessageStats, DeltaAndResetHelpers) {
  sim::MessageStats a{10, 20, 1000, 4000};
  sim::MessageStats b{4, 5, 300, 700};
  sim::MessageStats d = a - b;
  EXPECT_EQ(d.local_messages, 6u);
  EXPECT_EQ(d.remote_messages, 15u);
  EXPECT_EQ(d.local_bytes, 700u);
  EXPECT_EQ(d.remote_bytes, 3300u);
  a.reset();
  EXPECT_EQ(a.local_messages, 0u);
  EXPECT_EQ(a.remote_messages, 0u);
  EXPECT_EQ(a.local_bytes, 0u);
  EXPECT_EQ(a.remote_bytes, 0u);
}

TEST(MessageStats, RuntimeResetClearsCounters) {
  BridgeInstance inst(SystemConfig::paper_profile(2, 128));
  inst.run_client("c", [&](sim::Context&, BridgeClient& client) {
    ASSERT_TRUE(client.create("f").is_ok());
  });
  inst.run();
  EXPECT_GT(inst.runtime().message_stats().local_messages +
                inst.runtime().message_stats().remote_messages,
            0u);
  inst.runtime().reset_message_stats();
  EXPECT_EQ(inst.runtime().message_stats().remote_messages, 0u);
  EXPECT_EQ(inst.runtime().message_stats().local_bytes, 0u);
}

}  // namespace
}  // namespace bridge::core
