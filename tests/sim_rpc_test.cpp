// RPC layer: request/reply matching, status propagation, async calls with
// out-of-order replies, and traffic accounting.
#include <gtest/gtest.h>

#include <string>

#include "src/sim/rpc.hpp"

namespace bridge::sim {
namespace {

using util::ErrorCode;
using util::Reader;
using util::Writer;

constexpr std::uint32_t kEcho = 1;
constexpr std::uint32_t kFail = 2;
constexpr std::uint32_t kSlowDouble = 3;

/// Spawns a trivial service on `node` that echoes, fails, or doubles.
Address spawn_test_server(Runtime& rt, NodeId node, Mailbox& box) {
  rt.spawn(node, "server", [&box](Context& ctx) {
    ctx.set_daemon();
    while (true) {
      Envelope env = box.recv();
      switch (env.type) {
        case kEcho:
          send_reply(ctx, env, util::ok_status(), env.payload);
          break;
        case kFail:
          send_reply(ctx, env, util::not_found("no such thing"));
          break;
        case kSlowDouble: {
          Reader r(env.payload);
          std::uint64_t v = r.u64();
          ctx.charge(msec(static_cast<double>(v)));
          Writer w;
          w.u64(v * 2);
          send_reply(ctx, env, util::ok_status(), w.buffer());
          break;
        }
        default:
          send_reply(ctx, env, util::invalid_argument("bad type"));
      }
    }
  });
  return box.address();
}

TEST(Rpc, EchoRoundTrip) {
  Runtime rt(2);
  Mailbox box(rt.scheduler(), 1);
  Address svc = spawn_test_server(rt, 1, box);
  std::string got;
  rt.spawn(0, "client", [&](Context& ctx) {
    RpcClient cli(ctx);
    Writer w;
    w.str("ping");
    auto result = cli.call(svc, kEcho, w.buffer());
    ASSERT_TRUE(result.is_ok());
    Reader r(result.value());
    got = r.str();
  });
  rt.run();
  EXPECT_EQ(got, "ping");
}

TEST(Rpc, ErrorStatusPropagates) {
  Runtime rt(1);
  Mailbox box(rt.scheduler(), 0);
  Address svc = spawn_test_server(rt, 0, box);
  util::Status status;
  rt.spawn(0, "client", [&](Context& ctx) {
    RpcClient cli(ctx);
    auto result = cli.call(svc, kFail, {});
    status = result.status();
  });
  rt.run();
  EXPECT_EQ(status.code(), ErrorCode::kNotFound);
  EXPECT_EQ(status.message(), "no such thing");
}

TEST(Rpc, RoundTripTakesTwoMessageLatencies) {
  Topology topo;
  topo.remote_latency = usec(1000);
  topo.remote_us_per_byte = 0.0;
  Runtime rt(2, topo);
  Mailbox box(rt.scheduler(), 1);
  Address svc = spawn_test_server(rt, 1, box);
  SimTime done{-1};
  rt.spawn(0, "client", [&](Context& ctx) {
    RpcClient cli(ctx);
    auto result = cli.call(svc, kEcho, {});
    ASSERT_TRUE(result.is_ok());
    done = ctx.now();
  });
  rt.run();
  EXPECT_EQ(done.us(), 2'000);
}

TEST(Rpc, AsyncRepliesMatchedOutOfOrder) {
  Runtime rt(2);
  Mailbox box(rt.scheduler(), 1);
  Address svc = spawn_test_server(rt, 1, box);
  std::uint64_t first = 0, second = 0;
  rt.spawn(0, "client", [&](Context& ctx) {
    RpcClient cli(ctx);
    // The 20ms job is issued first, the 1ms job second; the second reply
    // arrives first.  wait_reply must still match correctly.
    Writer slow;
    slow.u64(20);
    Writer fast;
    fast.u64(1);
    auto c1 = cli.call_async(svc, kSlowDouble, slow.buffer());
    auto c2 = cli.call_async(svc, kSlowDouble, fast.buffer());
    auto r1 = cli.wait_reply(c1);
    auto r2 = cli.wait_reply(c2);
    ASSERT_TRUE(r1.is_ok());
    ASSERT_TRUE(r2.is_ok());
    first = Reader(r1.value()).u64();
    second = Reader(r2.value()).u64();
  });
  rt.run();
  EXPECT_EQ(first, 40u);
  EXPECT_EQ(second, 2u);
}

TEST(Rpc, ManyOutstandingCallsInterleavedAndReversed) {
  // Eight concurrent calls whose service times are arranged so replies
  // arrive in exactly reversed order; the caller then waits in scrambled
  // order.  Every reply must route to its own correlation — no drops, no
  // cross-matched payloads.
  Runtime rt(2);
  Mailbox box(rt.scheduler(), 1);
  Address svc = spawn_test_server(rt, 1, box);
  std::vector<std::uint64_t> results(8, 0);
  rt.spawn(0, "client", [&](Context& ctx) {
    RpcClient cli(ctx);
    std::vector<std::uint64_t> corr(8);
    for (std::uint64_t i = 0; i < 8; ++i) {
      // Call i takes (80 - 10i) ms: the first issued replies last.
      Writer w;
      w.u64(80 - 10 * i);
      corr[i] = cli.call_async(svc, kSlowDouble, w.buffer());
    }
    // Wait in a scrambled order (neither issue nor arrival order).
    for (std::uint64_t i : {3u, 7u, 0u, 5u, 1u, 6u, 2u, 4u}) {
      auto r = cli.wait_reply(corr[i]);
      ASSERT_TRUE(r.is_ok());
      results[i] = Reader(r.value()).u64();
    }
  });
  rt.run();
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(results[i], 2 * (80 - 10 * i)) << "call " << i;
  }
}

TEST(Rpc, AsyncBatchCollectsInIssueOrder) {
  // AsyncBatch over calls that complete in reverse: wait_all returns the
  // results in issue order and drains every reply even when some fail.
  Runtime rt(2);
  Mailbox box(rt.scheduler(), 1);
  Address svc = spawn_test_server(rt, 1, box);
  bool checked = false;
  rt.spawn(0, "client", [&](Context& ctx) {
    RpcClient cli(ctx);
    AsyncBatch batch(cli);
    for (std::uint64_t i = 0; i < 4; ++i) {
      Writer w;
      w.u64(40 - 10 * i);
      batch.call(svc, kSlowDouble, w.buffer());
    }
    batch.call(svc, kFail, {});
    EXPECT_EQ(batch.size(), 5u);
    auto replies = batch.wait_all();
    ASSERT_EQ(replies.size(), 5u);
    for (std::uint64_t i = 0; i < 4; ++i) {
      ASSERT_TRUE(replies[i].is_ok());
      EXPECT_EQ(Reader(replies[i].value()).u64(), 2 * (40 - 10 * i));
    }
    EXPECT_EQ(replies[4].status().code(), ErrorCode::kNotFound);
    // The batch is reusable after wait_all, and wait_all_ok surfaces the
    // first error while still draining the rest.
    batch.call(svc, kFail, {});
    Writer w;
    w.u64(1);
    batch.call(svc, kSlowDouble, w.buffer());
    auto status = batch.wait_all_ok();
    EXPECT_EQ(status.code(), ErrorCode::kNotFound);
    // No stray replies left behind: a fresh call still matches cleanly.
    auto echo = cli.call(svc, kEcho, {});
    EXPECT_TRUE(echo.is_ok());
    checked = true;
  });
  rt.run();
  EXPECT_TRUE(checked);
}

TEST(Rpc, AsyncBatchWaitEachHandsRepliesInIssueOrder) {
  // Replies arrive in reverse issue order; wait_each still hands them over
  // in issue order, each as soon as it is drained.
  Runtime rt(2);
  Mailbox box(rt.scheduler(), 1);
  Address svc = spawn_test_server(rt, 1, box);
  std::vector<std::uint64_t> seen;
  util::Status status = util::internal_error("not run");
  rt.spawn(0, "client", [&](Context& ctx) {
    RpcClient cli(ctx);
    AsyncBatch batch(cli);
    for (std::uint64_t i = 0; i < 4; ++i) {
      Writer w;
      w.u64(40 - 10 * i);
      batch.call(svc, kSlowDouble, w.buffer());
    }
    status = batch.wait_each([&](std::size_t i, AsyncBatch::Reply reply) {
      EXPECT_EQ(i, seen.size());
      seen.push_back(Reader(reply.value()).u64());
      return util::ok_status();
    });
    EXPECT_EQ(batch.size(), 0u);
  });
  rt.run();
  EXPECT_TRUE(status.is_ok());
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{80, 60, 40, 20}));
}

TEST(Rpc, AsyncBatchWaitEachDrainsPastAnError) {
  // An error reply early in the batch does not stop the drain: every later
  // reply still reaches the callback, the first error is returned, and the
  // client's next call gets its own reply rather than a stranded one.
  Runtime rt(2);
  Mailbox box(rt.scheduler(), 1);
  Address svc = spawn_test_server(rt, 1, box);
  std::vector<std::size_t> handed;
  util::Status status = util::ok_status();
  std::uint64_t next = 0;
  rt.spawn(0, "client", [&](Context& ctx) {
    RpcClient cli(ctx);
    AsyncBatch batch(cli);
    batch.call(svc, kFail, {});
    for (std::uint64_t v : {30u, 10u}) {
      Writer w;
      w.u64(v);
      batch.call(svc, kSlowDouble, w.buffer());
    }
    batch.call(svc, kEcho, {});
    status = batch.wait_each([&](std::size_t i, AsyncBatch::Reply reply) {
      handed.push_back(i);
      return reply.status();
    });
    Writer w;
    w.u64(7);
    auto reply = cli.call(svc, kSlowDouble, w.buffer());
    ASSERT_TRUE(reply.is_ok());
    next = Reader(reply.value()).u64();
  });
  rt.run();
  EXPECT_EQ(status.code(), ErrorCode::kNotFound);
  EXPECT_EQ(handed, (std::vector<std::size_t>{0, 1, 2, 3}));
  EXPECT_EQ(next, 14u);
}

TEST(Rpc, AsyncBatchWaitEachTurnsAThrowIntoThatReplysStatus) {
  // A util::StatusError thrown by the callback becomes that reply's status;
  // the drain goes on, and the first such status wins over later ones.
  Runtime rt(2);
  Mailbox box(rt.scheduler(), 1);
  Address svc = spawn_test_server(rt, 1, box);
  std::vector<std::size_t> handed;
  util::Status status = util::ok_status();
  rt.spawn(0, "client", [&](Context& ctx) {
    RpcClient cli(ctx);
    AsyncBatch batch(cli);
    for (int i = 0; i < 3; ++i) batch.call(svc, kEcho, {});
    batch.call(svc, kFail, {});
    status = batch.wait_each([&](std::size_t i, AsyncBatch::Reply reply) {
      handed.push_back(i);
      // value() on the failed reply throws too; call 1 throws its own.
      if (i == 1) throw util::StatusError(util::corrupt("bad reply 1"));
      (void)reply.value();  // throws on an error reply
      return util::ok_status();
    });
    // The batch is empty again and the client is clean.
    EXPECT_TRUE(cli.call(svc, kEcho, {}).is_ok());
  });
  rt.run();
  EXPECT_EQ(status.code(), ErrorCode::kCorrupt);
  EXPECT_EQ(status.message(), "bad reply 1");
  EXPECT_EQ(handed, (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(Rpc, ManyClientsOneServer) {
  Runtime rt(4);
  Mailbox box(rt.scheduler(), 0);
  Address svc = spawn_test_server(rt, 0, box);
  int ok_count = 0;
  for (int i = 0; i < 12; ++i) {
    rt.spawn(1 + (i % 3), "client" + std::to_string(i), [&, i](Context& ctx) {
      RpcClient cli(ctx);
      Writer w;
      w.u64(static_cast<std::uint64_t>(i));
      auto result = cli.call(svc, kEcho, w.buffer());
      if (result.is_ok() && Reader(result.value()).u64() == static_cast<std::uint64_t>(i)) {
        ++ok_count;
      }
    });
  }
  rt.run();
  EXPECT_EQ(ok_count, 12);
}

TEST(Rpc, ReplyPayloadRoundTrip) {
  auto payload = make_reply_payload(util::ok_status(),
                                    std::vector<std::byte>{std::byte{1}, std::byte{2}});
  auto parsed = parse_reply_payload(payload);
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed.value().size(), 2u);

  auto err = make_reply_payload(util::out_of_space("disk full"));
  auto parsed_err = parse_reply_payload(err);
  EXPECT_FALSE(parsed_err.is_ok());
  EXPECT_EQ(parsed_err.status().code(), ErrorCode::kOutOfSpace);
  EXPECT_EQ(parsed_err.status().message(), "disk full");
}

}  // namespace
}  // namespace bridge::sim
