// Full-stack failure injection: how the Bridge Server, the naive view, the
// parallel view and the tools behave when an LFS goes down — and that
// everything recovers after repair.
#include <gtest/gtest.h>

#include <optional>

#include "src/core/instance.hpp"
#include "src/efs/client.hpp"
#include "src/tools/copy.hpp"
#include "src/tools/sort/sort_tool.hpp"

namespace bridge {
namespace {

using core::BridgeClient;
using core::BridgeInstance;
using core::SystemConfig;

SystemConfig cfg(std::uint32_t p) {
  return SystemConfig::paper_profile(p, 1024);
}

std::vector<std::byte> record(std::uint32_t tag) {
  std::vector<std::byte> data(efs::kUserDataBytes);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = std::byte(static_cast<std::uint8_t>(tag + i));
  }
  return data;
}

void write_file(BridgeInstance& inst, const std::string& name, std::uint32_t n) {
  inst.run_client("w", [&, n](sim::Context&, BridgeClient& client) {
    ASSERT_TRUE(client.create(name).is_ok());
    auto open = client.open(name);
    ASSERT_TRUE(open.is_ok());
    for (std::uint32_t i = 0; i < n; ++i) {
      ASSERT_TRUE(client.seq_write(open.value().session, record(i)).is_ok());
    }
  });
  inst.run();
}

TEST(FailureInjection, NaiveReadsFailOnlyForLostBlocks) {
  BridgeInstance inst(cfg(4));
  write_file(inst, "f", 16);
  inst.lfs(2).disk().fail();
  int ok = 0, unavailable = 0;
  inst.run_client("r", [&](sim::Context&, BridgeClient& client) {
    auto open = client.open("f");
    // Open still works: the directory lives at the server, and Info to the
    // dead LFS... fails, so open itself reports unavailable.
    if (!open.is_ok()) {
      EXPECT_EQ(open.status().code(), util::ErrorCode::kUnavailable);
      return;
    }
    for (std::uint32_t i = 0; i < 16; ++i) {
      auto r = client.random_read(open.value().meta.id, i);
      if (r.is_ok()) {
        ++ok;
      } else if (r.status().code() == util::ErrorCode::kUnavailable) {
        ++unavailable;
      }
    }
  });
  inst.run();
  // Either open failed fast (acceptable: the server consults every LFS) or
  // exactly the blocks on LFS 2 are unavailable.
  if (ok + unavailable > 0) {
    EXPECT_EQ(ok, 12);
    EXPECT_EQ(unavailable, 4);
  }
}

TEST(FailureInjection, WritesFailCleanlyAndDirectoryStaysConsistent) {
  BridgeInstance inst(cfg(4));
  write_file(inst, "f", 8);
  inst.lfs(1).disk().fail();
  inst.run_client("w", [&](sim::Context&, BridgeClient& client) {
    // Create must fail: it touches every LFS.
    EXPECT_EQ(client.create("newfile").status().code(),
              util::ErrorCode::kUnavailable);
  });
  inst.run();
  // The failed create must not leave a Bridge directory entry behind.
  EXPECT_EQ(inst.server().directory_size(), 1u);

  inst.lfs(1).disk().repair();
  inst.run_client("w2", [&](sim::Context&, BridgeClient& client) {
    // After repair the same name is creatable (no half-registered state at
    // the Bridge level; LFS constituents that survived are orphaned ids,
    // which the flat EFS namespace tolerates).
    auto created = client.create("newfile2");
    EXPECT_TRUE(created.is_ok()) << created.status().to_string();
  });
  inst.run();
}

TEST(FailureInjection, CopyToolReportsFailureAndRecoversAfterRepair) {
  BridgeInstance inst(cfg(4));
  write_file(inst, "src", 20);
  inst.lfs(3).disk().fail();
  inst.run_client("t", [&](sim::Context& ctx, BridgeClient& client) {
    auto result = tools::run_copy_tool(ctx, client, "src", "dst1");
    EXPECT_FALSE(result.is_ok());
    EXPECT_EQ(result.status().code(), util::ErrorCode::kUnavailable);
  });
  inst.run();

  inst.lfs(3).disk().repair();
  inst.run_client("t2", [&](sim::Context& ctx, BridgeClient& client) {
    auto result = tools::run_copy_tool(ctx, client, "src", "dst2");
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    EXPECT_EQ(result.value().blocks, 20u);
  });
  inst.run();
  EXPECT_TRUE(inst.verify_all_lfs().is_ok());
}

TEST(FailureInjection, SortToolSurfacesWorkerErrors) {
  BridgeInstance inst(cfg(4));
  write_file(inst, "input", 32);
  inst.lfs(0).disk().fail();
  inst.run_client("s", [&](sim::Context& ctx, BridgeClient& client) {
    tools::SortOptions options;
    options.tuning.in_core_records = 8;
    auto result = tools::run_sort_tool(ctx, client, "input", "out", options);
    EXPECT_FALSE(result.is_ok());
    EXPECT_EQ(result.status().code(), util::ErrorCode::kUnavailable);
  });
  inst.run();
  ASSERT_FALSE(inst.runtime().scheduler().deadlocked());
}

TEST(FailureInjection, ParallelReadFailsWithoutHangingWorkers) {
  BridgeInstance inst(cfg(4));
  write_file(inst, "f", 16);
  inst.lfs(1).disk().fail();

  std::vector<sim::Address> workers(4);
  int worker_exits = 0;
  for (std::uint32_t w = 0; w < 4; ++w) {
    inst.runtime().spawn(w, "worker" + std::to_string(w),
                         [&, w](sim::Context& ctx) {
                           core::ParallelWorker worker(ctx);
                           workers[w] = worker.address();
                           // Workers drain until EOF or until the controller
                           // abandons the job; a 10s guard avoids parking
                           // forever in this failure test.
                           auto deadline = ctx.now() + sim::seconds(10);
                           while (ctx.now() < deadline) {
                             ctx.sleep(sim::msec(200));
                           }
                           ++worker_exits;
                         });
  }
  inst.run_client("controller", [&](sim::Context& ctx, BridgeClient& client) {
    ctx.sleep(sim::msec(1));
    auto open = client.open("f");
    if (!open.is_ok()) return;  // open itself may already surface the fault
    auto job = client.parallel_open(open.value().session, workers);
    ASSERT_TRUE(job.is_ok());
    auto resp = client.parallel_read(job.value());
    EXPECT_FALSE(resp.is_ok());
    EXPECT_EQ(resp.status().code(), util::ErrorCode::kUnavailable);
  });
  inst.run();
  EXPECT_EQ(worker_exits, 4);
  ASSERT_FALSE(inst.runtime().scheduler().deadlocked());
}

TEST(FailureInjection, OtherFilesUnaffectedByRepairedFailure) {
  BridgeInstance inst(cfg(4));
  write_file(inst, "a", 12);
  inst.lfs(2).disk().fail();
  inst.lfs(2).disk().repair();
  int ok = 0;
  inst.run_client("r", [&](sim::Context&, BridgeClient& client) {
    auto open = client.open("a");
    ASSERT_TRUE(open.is_ok());
    for (std::uint32_t i = 0; i < 12; ++i) {
      auto r = client.seq_read(open.value().session);
      if (r.is_ok() && r.value().data == record(i)) ++ok;
    }
  });
  inst.run();
  EXPECT_EQ(ok, 12);
}

TEST(FailureInjection, DeleteThatFailsOnADeadLfsCanBeRetried) {
  // The live LFSs delete their constituents before the dead one fails the
  // Delete.  After repair the retry must finish the job (those constituents
  // answer kNotFound) and free the name, not report the file missing.
  BridgeInstance inst(cfg(4));
  write_file(inst, "f", 8);
  inst.lfs(2).disk().fail();
  inst.run_client("d", [&](sim::Context&, BridgeClient& client) {
    EXPECT_EQ(client.remove("f").code(), util::ErrorCode::kUnavailable);
  });
  inst.run();
  EXPECT_EQ(inst.server().directory_size(), 1u);

  inst.lfs(2).disk().repair();
  inst.run_client("d2", [&](sim::Context&, BridgeClient& client) {
    auto retried = client.remove("f");
    EXPECT_TRUE(retried.is_ok()) << retried.to_string();
    auto created = client.create("f");
    EXPECT_TRUE(created.is_ok()) << created.status().to_string();
  });
  inst.run();
  EXPECT_EQ(inst.server().directory_size(), 1u);
  EXPECT_TRUE(inst.verify_all_lfs().is_ok());
}

TEST(FailureInjection, DeleteManyWithAnUnknownNameDeletesNothing) {
  BridgeInstance inst(cfg(4));
  write_file(inst, "a", 4);
  inst.run_client("d", [&](sim::Context&, BridgeClient& client) {
    EXPECT_EQ(client.remove_many({"a", "missing"}).code(),
              util::ErrorCode::kNotFound);
    // "a" is whole: it opens with its size and reads back.
    auto open = client.open("a");
    ASSERT_TRUE(open.is_ok()) << open.status().to_string();
    EXPECT_EQ(open.value().meta.size_blocks, 4u);
    auto first = client.seq_read(open.value().session);
    ASSERT_TRUE(first.is_ok()) << first.status().to_string();
    EXPECT_EQ(first.value().data, record(0));
    auto removed = client.remove("a");
    EXPECT_TRUE(removed.is_ok()) << removed.to_string();
  });
  inst.run();
  EXPECT_EQ(inst.server().directory_size(), 0u);
}

/// Spawn one parallel worker per slot of `workers`, each storing its address
/// there.  Each answers one solicitation with record(100 + w), or, with
/// `give` false, idles until the job is done.
void spawn_workers(BridgeInstance& inst, std::vector<sim::Address>& workers,
                   bool give) {
  for (std::uint32_t w = 0; w < workers.size(); ++w) {
    inst.runtime().spawn(w, "worker" + std::to_string(w),
                         [&workers, w, give](sim::Context& ctx) {
                           core::ParallelWorker worker(ctx);
                           workers[w] = worker.address();
                           if (give) {
                             // Returns whether data was given; it always is.
                             (void)worker.serve_give([w] {
                               return std::optional(record(100 + w));
                             });
                             return;
                           }
                           ctx.sleep(sim::seconds(10));
                         });
  }
}

TEST(FailureInjection, FailedParallelWriteRoundLeavesTheSizeAlone) {
  BridgeInstance inst(cfg(4));
  write_file(inst, "f", 4);
  inst.lfs(1).disk().fail();
  std::vector<sim::Address> workers(4);
  spawn_workers(inst, workers, /*give=*/true);
  inst.run_client("controller", [&](sim::Context& ctx, BridgeClient& client) {
    ctx.sleep(sim::msec(1));
    auto open = client.open("f");
    ASSERT_TRUE(open.is_ok()) << open.status().to_string();
    auto job = client.parallel_open(open.value().session, workers);
    ASSERT_TRUE(job.is_ok());
    EXPECT_EQ(client.parallel_write(job.value()).status().code(),
              util::ErrorCode::kUnavailable);
    auto listed = client.list("f");
    ASSERT_TRUE(listed.is_ok());
    ASSERT_EQ(listed.value().size(), 1u);
    EXPECT_EQ(listed.value()[0].size_blocks, 4u);
  });
  inst.run();
  ASSERT_FALSE(inst.runtime().scheduler().deadlocked());
}

TEST(FailureInjection, ParallelReadRejectsABlockInTheWrongSlot) {
  // Block 4 is a valid LFS block (its checksum holds), copied over block 0's
  // slot on LFS 0.  Only the Bridge header tells the parallel read that the
  // slot holds the wrong block.
  BridgeInstance inst(cfg(4));
  write_file(inst, "f", 8);
  std::vector<sim::Address> workers(4);
  spawn_workers(inst, workers, /*give=*/false);
  inst.run_client("controller", [&](sim::Context& ctx, BridgeClient& client) {
    ctx.sleep(sim::msec(1));
    auto open = client.open("f");
    ASSERT_TRUE(open.is_ok());
    auto info = client.get_info();
    ASSERT_TRUE(info.is_ok());
    efs::EfsClient lfs0(client.rpc(), info.value().lfs_services[0]);
    efs::FileId id = open.value().meta.lfs_file_id;
    auto block4 = lfs0.read_many(id, {1});
    ASSERT_TRUE(block4.is_ok());
    ASSERT_TRUE(lfs0.write(id, 0, block4.value().blocks[0]).is_ok());

    auto job = client.parallel_open(open.value().session, workers);
    ASSERT_TRUE(job.is_ok());
    EXPECT_EQ(client.parallel_read(job.value()).status().code(),
              util::ErrorCode::kCorrupt);
  });
  inst.run();
  ASSERT_FALSE(inst.runtime().scheduler().deadlocked());
}

}  // namespace
}  // namespace bridge
