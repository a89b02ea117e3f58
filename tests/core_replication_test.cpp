// Fault-tolerance extensions: mirroring and parity under single-LFS failure,
// plus DeleteMany and analysis-model sanity.
#include <gtest/gtest.h>

#include "src/core/analysis.hpp"
#include "src/core/instance.hpp"
#include "src/core/replication.hpp"

namespace bridge::core {
namespace {

SystemConfig cfg(std::uint32_t p) {
  return SystemConfig::paper_profile(p, 1024);
}

std::vector<std::byte> record(std::uint32_t tag) {
  std::vector<std::byte> data(efs::kUserDataBytes);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = std::byte(static_cast<std::uint8_t>(tag * 7 + i * 3));
  }
  return data;
}

TEST(MirroredFile, SurvivesSingleLfsFailure) {
  BridgeInstance inst(cfg(4));
  inst.run_client("writer", [&](sim::Context& ctx, BridgeClient& client) {
    auto file = MirroredFile::open(ctx, client, "m");
    ASSERT_TRUE(file.is_ok());
    for (std::uint32_t i = 0; i < 24; ++i) {
      ASSERT_TRUE(file.value().append(record(i)).is_ok());
    }
  });
  inst.run();

  inst.lfs(2).disk().fail();
  int recovered = 0, correct = 0;
  inst.run_client("reader", [&](sim::Context& ctx, BridgeClient& client) {
    auto file = MirroredFile::open(ctx, client, "m");
    ASSERT_TRUE(file.is_ok());
    ASSERT_EQ(file.value().size_blocks(), 24u);
    for (std::uint32_t i = 0; i < 24; ++i) {
      bool used_mirror = false;
      auto r = file.value().read(i, &used_mirror);
      ASSERT_TRUE(r.is_ok()) << "block " << i;
      if (r.value() == record(i)) ++correct;
      if (used_mirror) ++recovered;
    }
  });
  inst.run();
  EXPECT_EQ(correct, 24);
  EXPECT_EQ(recovered, 6);  // every 4th block lived on LFS 2
}

TEST(MirroredFile, MirrorPlacementAvoidsPrimaryLfs) {
  BridgeInstance inst(cfg(4));
  inst.run_client("writer", [&](sim::Context& ctx, BridgeClient& client) {
    auto file = MirroredFile::open(ctx, client, "m");
    ASSERT_TRUE(file.is_ok());
    for (std::uint32_t i = 0; i < 8; ++i) {
      ASSERT_TRUE(file.value().append(record(i)).is_ok());
    }
  });
  inst.run();
  // Primary holds 2 blocks per LFS; mirror adds 2 more: 4 appends per LFS.
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(inst.lfs(i).core().op_stats().appends, 4u) << "lfs " << i;
  }
}

TEST(MirroredFile, NeedsTwoLfs) {
  BridgeInstance inst(cfg(1));
  inst.run_client("writer", [&](sim::Context& ctx, BridgeClient& client) {
    EXPECT_EQ(MirroredFile::open(ctx, client, "m").status().code(),
              util::ErrorCode::kInvalidArgument);
  });
  inst.run();
}

TEST(ParityFile, ReconstructsFailedLfsBlocks) {
  BridgeInstance inst(cfg(5));  // 4 data + 1 parity
  inst.run_client("writer", [&](sim::Context& ctx, BridgeClient& client) {
    auto file = ParityFile::open(ctx, client, "pfile");
    ASSERT_TRUE(file.is_ok());
    EXPECT_EQ(file.value().data_width(), 4u);
    for (std::uint32_t stripe = 0; stripe < 6; ++stripe) {
      std::vector<std::vector<std::byte>> blocks;
      for (std::uint32_t i = 0; i < 4; ++i) {
        blocks.push_back(record(stripe * 4 + i));
      }
      ASSERT_TRUE(file.value().append_stripe(blocks).is_ok());
    }
  });
  inst.run();

  inst.lfs(1).disk().fail();
  int reconstructed = 0, correct = 0;
  inst.run_client("reader", [&](sim::Context& ctx, BridgeClient& client) {
    auto file = ParityFile::open(ctx, client, "pfile");
    ASSERT_TRUE(file.is_ok());
    for (std::uint32_t i = 0; i < 24; ++i) {
      bool rebuilt = false;
      auto r = file.value().read(i, &rebuilt);
      ASSERT_TRUE(r.is_ok()) << "block " << i;
      // Reconstructed blocks come back padded to the full user-data size.
      auto want = record(i);
      ASSERT_GE(r.value().size(), want.size());
      EXPECT_TRUE(std::equal(want.begin(), want.end(), r.value().begin()))
          << "block " << i;
      if (std::equal(want.begin(), want.end(), r.value().begin())) ++correct;
      if (rebuilt) ++reconstructed;
    }
  });
  inst.run();
  EXPECT_EQ(correct, 24);
  EXPECT_EQ(reconstructed, 6);  // LFS 1 held every 4th data block
}

TEST(ParityFile, DoubleFailureIsDetected) {
  BridgeInstance inst(cfg(5));
  inst.run_client("writer", [&](sim::Context& ctx, BridgeClient& client) {
    auto file = ParityFile::open(ctx, client, "pfile");
    ASSERT_TRUE(file.is_ok());
    std::vector<std::vector<std::byte>> blocks;
    for (std::uint32_t i = 0; i < 4; ++i) blocks.push_back(record(i));
    ASSERT_TRUE(file.value().append_stripe(blocks).is_ok());
  });
  inst.run();
  inst.lfs(0).disk().fail();
  inst.lfs(1).disk().fail();
  inst.run_client("reader", [&](sim::Context& ctx, BridgeClient& client) {
    auto file = ParityFile::open(ctx, client, "pfile");
    ASSERT_TRUE(file.is_ok());
    auto r = file.value().read(0);
    EXPECT_EQ(r.status().code(), util::ErrorCode::kUnavailable);
  });
  inst.run();
}

std::vector<std::byte> short_record(std::uint32_t tag, std::size_t len) {
  auto data = record(tag);
  data.resize(len);
  return data;
}

TEST(MirroredFile, AppendManyMatchesPerBlockAppends) {
  BridgeInstance inst(cfg(4));
  inst.run_client("writer", [&](sim::Context& ctx, BridgeClient& client) {
    auto file = MirroredFile::open(ctx, client, "m");
    ASSERT_TRUE(file.is_ok());
    // A 13-block run through the vectored pipeline: spans every LFS with
    // uneven group sizes (13 mod 4 != 0).
    std::vector<std::vector<std::byte>> run;
    for (std::uint32_t i = 0; i < 13; ++i) run.push_back(record(i));
    ASSERT_TRUE(file.value().append_many(run).is_ok());
    EXPECT_EQ(file.value().size_blocks(), 13u);
  });
  inst.run();
  inst.run_client("reader", [&](sim::Context& ctx, BridgeClient& client) {
    auto file = MirroredFile::open(ctx, client, "m");
    ASSERT_TRUE(file.is_ok());
    EXPECT_EQ(file.value().size_blocks(), 13u);
    for (std::uint32_t i = 0; i < 13; ++i) {
      bool used_mirror = true;
      auto r = file.value().read(i, &used_mirror);
      ASSERT_TRUE(r.is_ok()) << "block " << i;
      EXPECT_EQ(r.value(), record(i)) << "block " << i;
      EXPECT_FALSE(used_mirror);
    }
  });
  inst.run();
  EXPECT_TRUE(inst.verify_all_lfs().is_ok());
}

TEST(MirroredFile, TornAppendRollsBackBothConstituents) {
  BridgeInstance inst(cfg(4));
  inst.run_client("writer", [&](sim::Context& ctx, BridgeClient& client) {
    auto file = MirroredFile::open(ctx, client, "m");
    ASSERT_TRUE(file.is_ok());
    for (std::uint32_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(file.value().append(record(i)).is_ok());
    }
  });
  inst.run();

  // LFS 1 dies; an 8-block run touches every LFS, so the append must fail
  // and every surviving constituent must roll back to its pre-run length.
  inst.lfs(1).disk().fail();
  inst.run_client("torn-writer", [&](sim::Context& ctx, BridgeClient& client) {
    auto file = MirroredFile::open(ctx, client, "m");
    ASSERT_TRUE(file.is_ok());
    std::vector<std::vector<std::byte>> run;
    for (std::uint32_t i = 0; i < 8; ++i) run.push_back(record(100 + i));
    EXPECT_EQ(file.value().append_many(run).code(),
              util::ErrorCode::kUnavailable);
    EXPECT_EQ(file.value().size_blocks(), 10u);
  });
  inst.run();

  // A reopen (degraded) must agree on the rolled-back size and still serve
  // every block through the mirrors.
  inst.run_client("degraded-reader", [&](sim::Context& ctx,
                                         BridgeClient& client) {
    auto file = MirroredFile::open(ctx, client, "m");
    ASSERT_TRUE(file.is_ok());
    ASSERT_EQ(file.value().size_blocks(), 10u);
    for (std::uint32_t i = 0; i < 10; ++i) {
      auto r = file.value().read(i);
      ASSERT_TRUE(r.is_ok()) << "block " << i;
      EXPECT_EQ(r.value(), record(i)) << "block " << i;
    }
  });
  inst.run();
}

TEST(MirroredFile, RebuildRestoresFailedLfs) {
  BridgeInstance inst(cfg(4));
  inst.run_client("writer", [&](sim::Context& ctx, BridgeClient& client) {
    auto file = MirroredFile::open(ctx, client, "m");
    ASSERT_TRUE(file.is_ok());
    std::vector<std::vector<std::byte>> run;
    for (std::uint32_t i = 0; i < 25; ++i) run.push_back(record(i));
    ASSERT_TRUE(file.value().append_many(run).is_ok());
  });
  inst.run();

  // LFS 2 fails and is replaced by a blank-for-our-purposes disk (the
  // rebuild discards the old constituents, so surviving stale content
  // cannot mask a broken reconstruction).
  inst.lfs(2).disk().fail();
  inst.lfs(2).disk().repair();
  inst.run_client("rebuilder", [&](sim::Context& ctx, BridgeClient& client) {
    auto file = MirroredFile::open(ctx, client, "m");
    ASSERT_TRUE(file.is_ok());
    RebuildOptions options;
    options.window_blocks = 4;
    auto report = file.value().rebuild_lfs(2, options);
    ASSERT_TRUE(report.is_ok()) << report.status().to_string();
    // Of 25 blocks, LFS 2 (offset 2) homed 6 primaries, and its mirror
    // constituent held copies of LFS 0's 7 primaries: 6 + 7 = 13.
    EXPECT_EQ(report.value().blocks_rebuilt, 13u);
    EXPECT_GE(report.value().windows, 2u);
  });
  inst.run();

  // After the rebuild every read must be served by the primary again.
  int mirror_reads = 0;
  inst.run_client("reader", [&](sim::Context& ctx, BridgeClient& client) {
    auto file = MirroredFile::open(ctx, client, "m");
    ASSERT_TRUE(file.is_ok());
    ASSERT_EQ(file.value().size_blocks(), 25u);
    for (std::uint32_t i = 0; i < 25; ++i) {
      bool used_mirror = false;
      auto r = file.value().read(i, &used_mirror);
      ASSERT_TRUE(r.is_ok()) << "block " << i;
      EXPECT_EQ(r.value(), record(i)) << "block " << i;
      if (used_mirror) ++mirror_reads;
    }
  });
  inst.run();
  EXPECT_EQ(mirror_reads, 0);
  EXPECT_TRUE(inst.verify_all_lfs().is_ok());
}

TEST(ParityFile, ShortBlockReconstructionIsByteIdentical) {
  BridgeInstance inst(cfg(5));
  // Final stripe holds short blocks of distinct lengths; reconstruction
  // must recover the exact bytes AND the exact lengths (not zero-padding).
  const std::vector<std::size_t> lens = {1, 137, 500, 960};
  inst.run_client("writer", [&](sim::Context& ctx, BridgeClient& client) {
    auto file = ParityFile::open(ctx, client, "pfile");
    ASSERT_TRUE(file.is_ok());
    std::vector<std::vector<std::byte>> full, stub;
    for (std::uint32_t i = 0; i < 4; ++i) full.push_back(record(i));
    ASSERT_TRUE(file.value().append_stripe(full).is_ok());
    for (std::uint32_t i = 0; i < 4; ++i) {
      stub.push_back(short_record(4 + i, lens[i]));
    }
    ASSERT_TRUE(file.value().append_stripe(stub).is_ok());
  });
  inst.run();

  for (std::uint32_t victim = 0; victim < 4; ++victim) {
    inst.lfs(victim).disk().fail();
    inst.run_client("reader", [&](sim::Context& ctx, BridgeClient& client) {
      auto file = ParityFile::open(ctx, client, "pfile");
      ASSERT_TRUE(file.is_ok()) << file.status().to_string();
      ASSERT_EQ(file.value().size_blocks(), 8u);
      for (std::uint32_t i = 0; i < 8; ++i) {
        bool reconstructed = false;
        auto r = file.value().read(i, &reconstructed);
        ASSERT_TRUE(r.is_ok()) << "block " << i;
        auto want = i < 4 ? record(i) : short_record(i, lens[i - 4]);
        EXPECT_EQ(r.value(), want) << "block " << i << " victim " << victim;
      }
    });
    inst.run();
    inst.lfs(victim).disk().repair();
  }
}

TEST(ParityFile, ReopenDerivesSizeWithShortFinalStripe) {
  BridgeInstance inst(cfg(5));
  // 14 blocks over 4 data LFSs: three full stripes and a short final stripe
  // of 2, so LFS 0..3 hold 4/4/3/3 blocks.
  auto write_file = [&](const std::string& name) {
    inst.run_client("writer", [&](sim::Context& ctx, BridgeClient& client) {
      auto file = ParityFile::open(ctx, client, name);
      ASSERT_TRUE(file.is_ok());
      for (std::uint32_t stripe = 0; stripe < 3; ++stripe) {
        std::vector<std::vector<std::byte>> blocks;
        for (std::uint32_t i = 0; i < 4; ++i) {
          blocks.push_back(record(stripe * 4 + i));
        }
        ASSERT_TRUE(file.value().append_stripe(blocks).is_ok());
      }
      // Short final stripe: only 2 of 4 slots.
      std::vector<std::vector<std::byte>> tail = {record(12), record(13)};
      ASSERT_TRUE(file.value().append_stripe(tail).is_ok());
    });
    inst.run();
  };
  // A data rebuild of `lfs` that stopped one block short.
  auto cut = [&](const std::string& name, std::uint32_t lfs_index) {
    inst.run_client("cut", [&](sim::Context&, BridgeClient& client) {
      auto open = client.open(name);
      ASSERT_TRUE(open.is_ok());
      auto env = tools::discover(client);
      ASSERT_TRUE(env.is_ok());
      auto lfs = env.value().make_lfs_clients(client.rpc());
      ASSERT_TRUE(
          lfs[lfs_index]->truncate(open.value().meta.lfs_file_id, 3).is_ok());
    });
    inst.run();
  };
  auto reopened_size = [&](const std::string& name) {
    std::uint64_t size = 0;
    inst.run_client("reopen", [&](sim::Context& ctx, BridgeClient& client) {
      auto file = ParityFile::open(ctx, client, name);
      ASSERT_TRUE(file.is_ok()) << file.status().to_string();
      size = file.value().size_blocks();
    });
    inst.run();
    return size;
  };
  write_file("pfile");

  // Healthy reopen: size from the data constituents.
  inst.run_client("reader", [&](sim::Context& ctx, BridgeClient& client) {
    auto file = ParityFile::open(ctx, client, "pfile");
    ASSERT_TRUE(file.is_ok());
    ASSERT_EQ(file.value().size_blocks(), 14u);
    for (std::uint32_t i = 0; i < 14; ++i) {
      auto r = file.value().read(i);
      ASSERT_TRUE(r.is_ok()) << "block " << i;
      EXPECT_EQ(r.value(), record(i)) << "block " << i;
    }
  });
  inst.run();

  // Degraded reopen: LFS 0 held 4 blocks of the 14; its count is gone, so
  // the size must come from the parity constituent's fill word.
  inst.lfs(0).disk().fail();
  inst.run_client("degraded-reader", [&](sim::Context& ctx,
                                         BridgeClient& client) {
    auto file = ParityFile::open(ctx, client, "pfile");
    ASSERT_TRUE(file.is_ok()) << file.status().to_string();
    ASSERT_EQ(file.value().size_blocks(), 14u);
    for (std::uint32_t i = 0; i < 14; ++i) {
      auto r = file.value().read(i);
      ASSERT_TRUE(r.is_ok()) << "block " << i;
      EXPECT_EQ(r.value(), record(i)) << "block " << i;
    }
  });
  inst.run();
  inst.lfs(0).disk().repair();

  // Cutting LFS 0 leaves counts 3/4/3/3, which no 13-block file has.
  cut("pfile", 0);
  EXPECT_EQ(reopened_size("pfile"), 14u);
  // Cutting LFS 1, which holds the last block, leaves 4/3/3/3: exactly the
  // counts of a 13-block file.  Only the fill word keeps the size at 14.
  write_file("qfile");
  cut("qfile", 1);
  EXPECT_EQ(reopened_size("qfile"), 14u);
}

TEST(ParityFile, TornStripeRollsBackAndRecovers) {
  BridgeInstance inst(cfg(5));
  inst.run_client("writer", [&](sim::Context& ctx, BridgeClient& client) {
    auto file = ParityFile::open(ctx, client, "pfile");
    ASSERT_TRUE(file.is_ok());
    for (std::uint32_t stripe = 0; stripe < 2; ++stripe) {
      std::vector<std::vector<std::byte>> blocks;
      for (std::uint32_t i = 0; i < 4; ++i) {
        blocks.push_back(record(stripe * 4 + i));
      }
      ASSERT_TRUE(file.value().append_stripe(blocks).is_ok());
    }
  });
  inst.run();

  // Mid-stripe failure: LFS 3 dies, the stripe write fails, and the
  // surviving constituents (which DID take their blocks) roll back.
  inst.lfs(3).disk().fail();
  inst.run_client("torn-writer", [&](sim::Context& ctx, BridgeClient& client) {
    auto file = ParityFile::open(ctx, client, "pfile");
    ASSERT_TRUE(file.is_ok());
    std::vector<std::vector<std::byte>> blocks;
    for (std::uint32_t i = 0; i < 4; ++i) blocks.push_back(record(100 + i));
    EXPECT_EQ(file.value().append_stripe(blocks).code(),
              util::ErrorCode::kUnavailable);
    EXPECT_EQ(file.value().size_blocks(), 8u);
    // Degraded reads of the intact stripes still work.
    for (std::uint32_t i = 0; i < 8; ++i) {
      auto r = file.value().read(i);
      ASSERT_TRUE(r.is_ok()) << "block " << i;
      EXPECT_EQ(r.value(), record(i)) << "block " << i;
    }
  });
  inst.run();

  // Repair + rebuild, then appends proceed as if nothing happened.
  inst.lfs(3).disk().repair();
  inst.run_client("rebuilder", [&](sim::Context& ctx, BridgeClient& client) {
    auto file = ParityFile::open(ctx, client, "pfile");
    ASSERT_TRUE(file.is_ok());
    ASSERT_EQ(file.value().size_blocks(), 8u);
    auto report = file.value().rebuild_lfs(3);
    ASSERT_TRUE(report.is_ok()) << report.status().to_string();
    EXPECT_EQ(report.value().blocks_rebuilt, 2u);  // offset 3 of 8 blocks
    std::vector<std::vector<std::byte>> blocks;
    for (std::uint32_t i = 8; i < 12; ++i) blocks.push_back(record(i));
    ASSERT_TRUE(file.value().append_stripe(blocks).is_ok());
  });
  inst.run();

  int reconstructed_reads = 0;
  inst.run_client("reader", [&](sim::Context& ctx, BridgeClient& client) {
    auto file = ParityFile::open(ctx, client, "pfile");
    ASSERT_TRUE(file.is_ok());
    ASSERT_EQ(file.value().size_blocks(), 12u);
    for (std::uint32_t i = 0; i < 12; ++i) {
      bool reconstructed = false;
      auto r = file.value().read(i, &reconstructed);
      ASSERT_TRUE(r.is_ok()) << "block " << i;
      EXPECT_EQ(r.value(), record(i)) << "block " << i;
      if (reconstructed) ++reconstructed_reads;
    }
  });
  inst.run();
  EXPECT_EQ(reconstructed_reads, 0);
  EXPECT_TRUE(inst.verify_all_lfs().is_ok());
}

TEST(ParityFile, ReopensWhileParityDiskFailed) {
  // The parity LFS still answers Info from memory, but its last block
  // cannot be read: the data constituents alone size the file.
  BridgeInstance inst(cfg(5));
  inst.run_client("writer", [&](sim::Context& ctx, BridgeClient& client) {
    auto file = ParityFile::open(ctx, client, "pfile");
    ASSERT_TRUE(file.is_ok());
    std::vector<std::vector<std::byte>> full, tail;
    for (std::uint32_t i = 0; i < 4; ++i) full.push_back(record(i));
    ASSERT_TRUE(file.value().append_stripe(full).is_ok());
    for (std::uint32_t i = 4; i < 6; ++i) tail.push_back(record(i));
    ASSERT_TRUE(file.value().append_stripe(tail).is_ok());
  });
  inst.run();

  inst.lfs(4).disk().fail();
  inst.run_client("reader", [&](sim::Context& ctx, BridgeClient& client) {
    auto file = ParityFile::open(ctx, client, "pfile");
    ASSERT_TRUE(file.is_ok()) << file.status().to_string();
    ASSERT_EQ(file.value().size_blocks(), 6u);
    for (std::uint32_t i = 0; i < 6; ++i) {
      auto r = file.value().read(i);
      ASSERT_TRUE(r.is_ok()) << "block " << i;
      EXPECT_EQ(r.value(), record(i)) << "block " << i;
    }
  });
  inst.run();
}

TEST(ParityFile, RebuildParityLfsRestoresProtection) {
  BridgeInstance inst(cfg(5));
  const std::vector<std::size_t> lens = {960, 100, 7};
  inst.run_client("writer", [&](sim::Context& ctx, BridgeClient& client) {
    auto file = ParityFile::open(ctx, client, "pfile");
    ASSERT_TRUE(file.is_ok());
    std::vector<std::vector<std::byte>> full, stub;
    for (std::uint32_t i = 0; i < 4; ++i) full.push_back(record(i));
    ASSERT_TRUE(file.value().append_stripe(full).is_ok());
    for (std::uint32_t i = 0; i < 3; ++i) {
      stub.push_back(short_record(4 + i, lens[i]));
    }
    ASSERT_TRUE(file.value().append_stripe(stub).is_ok());
  });
  inst.run();

  // The parity LFS (index 4) dies and is replaced; recompute its blocks —
  // including the length/fill header words — from the data constituents.
  inst.lfs(4).disk().fail();
  inst.lfs(4).disk().repair();
  inst.run_client("rebuilder", [&](sim::Context& ctx, BridgeClient& client) {
    auto file = ParityFile::open(ctx, client, "pfile");
    ASSERT_TRUE(file.is_ok());
    auto report = file.value().rebuild_lfs(4);
    ASSERT_TRUE(report.is_ok()) << report.status().to_string();
    EXPECT_EQ(report.value().blocks_rebuilt, 2u);  // one parity per stripe
  });
  inst.run();

  // Proof the rebuilt parity works: fail a data LFS and read everything
  // (short blocks byte-identical) through reconstruction.
  inst.lfs(1).disk().fail();
  inst.run_client("degraded-reader", [&](sim::Context& ctx,
                                         BridgeClient& client) {
    auto file = ParityFile::open(ctx, client, "pfile");
    ASSERT_TRUE(file.is_ok()) << file.status().to_string();
    ASSERT_EQ(file.value().size_blocks(), 7u);
    for (std::uint32_t i = 0; i < 7; ++i) {
      auto r = file.value().read(i);
      ASSERT_TRUE(r.is_ok()) << "block " << i;
      auto want = i < 4 ? record(i) : short_record(i, lens[i - 4]);
      EXPECT_EQ(r.value(), want) << "block " << i;
    }
  });
  inst.run();
}

TEST(ParityFile, Window1AndWindow32RebuildProduceIdenticalDisks) {
  // Two bit-deterministic instances take the same writes and the same
  // failure; one rebuilds a block per batch, the other the whole
  // constituent in one window.  Allocation must not depend on the batch
  // shape: the resulting machines must be indistinguishable on disk.
  auto build = [](std::uint32_t window) {
    auto inst = std::make_unique<BridgeInstance>(cfg(5));
    inst->run_client("writer", [&](sim::Context& ctx, BridgeClient& client) {
      auto file = ParityFile::open(ctx, client, "pfile");
      ASSERT_TRUE(file.is_ok());
      for (std::uint32_t stripe = 0; stripe < 5; ++stripe) {
        std::vector<std::vector<std::byte>> blocks;
        for (std::uint32_t i = 0; i < 4; ++i) {
          blocks.push_back(record(stripe * 4 + i));
        }
        ASSERT_TRUE(file.value().append_stripe(blocks).is_ok());
      }
      std::vector<std::vector<std::byte>> tail = {short_record(20, 300)};
      ASSERT_TRUE(file.value().append_stripe(tail).is_ok());
    });
    inst->run();
    inst->lfs(2).disk().fail();
    inst->lfs(2).disk().repair();
    inst->run_client("rebuilder", [&, window](sim::Context& ctx,
                                              BridgeClient& client) {
      auto file = ParityFile::open(ctx, client, "pfile");
      ASSERT_TRUE(file.is_ok());
      RebuildOptions options;
      options.window_blocks = window;
      auto report = file.value().rebuild_lfs(2, options);
      ASSERT_TRUE(report.is_ok()) << report.status().to_string();
      EXPECT_EQ(report.value().windows, window == 1 ? 5u : 1u);
      // Flush every LFS cache so the disk images are comparable.
      auto env = tools::discover(client);
      ASSERT_TRUE(env.is_ok());
      auto lfs = env.value().make_lfs_clients(client.rpc());
      for (auto& c : lfs) ASSERT_TRUE(c->sync().is_ok());
    });
    inst->run();
    return inst;
  };

  auto a = build(1);
  auto b = build(32);
  for (std::uint32_t i = 0; i < a->num_lfs(); ++i) {
    auto capacity = a->lfs(i).disk().geometry().capacity_blocks();
    std::uint32_t mismatches = 0;
    for (std::uint32_t addr = 0; addr < capacity; ++addr) {
      auto pa = a->lfs(i).disk().peek(addr);
      auto pb = b->lfs(i).disk().peek(addr);
      ASSERT_TRUE(pa.has_value() && pb.has_value());
      if (!std::equal(pa->begin(), pa->end(), pb->begin(), pb->end())) {
        ++mismatches;
      }
    }
    EXPECT_EQ(mismatches, 0u) << "lfs " << i;
  }
  EXPECT_TRUE(a->verify_all_lfs().is_ok());
}

// --- Rebuild against a ground-truth oracle ----------------------------------
//
// The oracle is the victim LFS's own constituent blocks, read raw (still
// wrapped) through the EFS before the failure.  A rebuild is correct when it
// puts back exactly those bytes.

enum class RebuildKind { kMirror, kParityData, kParity };

struct RebuildSetup {
  const char* label;
  std::uint32_t p;
  std::uint32_t victim;
  std::uint32_t stripe;              ///< blocks per stripe of the file
  std::vector<std::string> targets;  ///< Bridge files the victim holds part of
};

RebuildSetup setup_for(RebuildKind kind) {
  switch (kind) {
    case RebuildKind::kMirror:
      return {"mirror", 4, 2, 4, {"f", "f!mirror"}};
    case RebuildKind::kParityData:
      return {"parity-data", 5, 1, 4, {"f"}};
    case RebuildKind::kParity:
      return {"parity", 5, 4, 4, {"f!parity"}};
  }
  return {};
}

/// Block `i` of a `blocks`-block test file: full-size, except that every
/// block of a short final stripe is short, each with its own length.
std::vector<std::byte> oracle_block(std::uint64_t i, std::uint64_t blocks,
                                    std::uint32_t stripe) {
  auto tag = static_cast<std::uint32_t>(i);
  if (i < blocks / stripe * stripe) return record(tag);
  return short_record(tag, 1 + (i * 137) % (efs::kUserDataBytes - 1));
}

/// A fresh machine holding `blocks` blocks in file "f" (mirrored for
/// kMirror, parity-protected otherwise).
std::unique_ptr<BridgeInstance> oracle_machine(RebuildKind kind,
                                               std::uint64_t blocks) {
  auto setup = setup_for(kind);
  auto inst = std::make_unique<BridgeInstance>(cfg(setup.p));
  inst->run_client("writer", [&](sim::Context& ctx, BridgeClient& client) {
    if (kind == RebuildKind::kMirror) {
      auto file = MirroredFile::open(ctx, client, "f");
      ASSERT_TRUE(file.is_ok());
      std::vector<std::vector<std::byte>> run;
      for (std::uint64_t i = 0; i < blocks; ++i) {
        run.push_back(oracle_block(i, blocks, setup.stripe));
      }
      ASSERT_TRUE(file.value().append_many(run).is_ok());
      return;
    }
    auto file = ParityFile::open(ctx, client, "f");
    ASSERT_TRUE(file.is_ok());
    for (std::uint64_t first = 0; first < blocks; first += setup.stripe) {
      std::vector<std::vector<std::byte>> stripe;
      for (std::uint64_t i = first; i < std::min(blocks, first + setup.stripe);
           ++i) {
        stripe.push_back(oracle_block(i, blocks, setup.stripe));
      }
      ASSERT_TRUE(file.value().append_stripe(stripe).is_ok());
    }
  });
  inst->run();
  return inst;
}

/// Raw wrapped blocks of each of `names`' constituents on LFS `lfs`.
using ConstituentImage = std::vector<std::vector<std::vector<std::byte>>>;

ConstituentImage constituents_of(BridgeClient& client, std::uint32_t lfs,
                                 const std::vector<std::string>& names) {
  ConstituentImage image;
  auto env = tools::discover(client);
  EXPECT_TRUE(env.is_ok());
  if (!env.is_ok()) return image;
  auto lfs_clients = env.value().make_lfs_clients(client.rpc());
  for (const auto& name : names) {
    auto open = client.open(name);
    EXPECT_TRUE(open.is_ok()) << name;
    if (!open.is_ok()) return image;
    auto id = open.value().meta.lfs_file_id;
    auto info = lfs_clients[lfs]->info(id);
    EXPECT_TRUE(info.is_ok()) << name;
    if (!info.is_ok()) return image;
    auto& blocks = image.emplace_back();
    for (std::uint32_t l = 0; l < info.value().size_blocks; ++l) {
      auto read = lfs_clients[lfs]->read(id, l);
      EXPECT_TRUE(read.is_ok()) << name << " local " << l;
      if (!read.is_ok()) return image;
      blocks.push_back(std::move(read.value()));
    }
  }
  return image;
}

ConstituentImage read_constituents(BridgeInstance& inst, std::uint32_t lfs,
                                   const std::vector<std::string>& names) {
  ConstituentImage image;
  inst.run_client("oracle", [&](sim::Context&, BridgeClient& client) {
    image = constituents_of(client, lfs, names);
  });
  inst.run();
  return image;
}

/// Open test file "f" as `kind`'s file type and hand it to `fn`.
template <typename Fn>
void with_file(RebuildKind kind, sim::Context& ctx, BridgeClient& client,
               Fn&& fn) {
  if (kind == RebuildKind::kMirror) {
    auto file = MirroredFile::open(ctx, client, "f");
    ASSERT_TRUE(file.is_ok());
    fn(file.value());
  } else {
    auto file = ParityFile::open(ctx, client, "f");
    ASSERT_TRUE(file.is_ok());
    fn(file.value());
  }
}

/// Run `kind`'s rebuild of the victim LFS from a client; returns its result.
util::Result<RebuildReport> rebuild(BridgeInstance& inst, RebuildKind kind,
                                    std::uint32_t window) {
  util::Result<RebuildReport> result = util::internal_error("not run");
  inst.run_client("rebuilder", [&](sim::Context& ctx, BridgeClient& client) {
    RebuildOptions options;
    options.window_blocks = window;
    with_file(kind, ctx, client, [&](auto& file) {
      result = file.rebuild_lfs(setup_for(kind).victim, options);
    });
  });
  inst.run();
  return result;
}

std::uint64_t total_blocks(const ConstituentImage& image) {
  std::uint64_t n = 0;
  for (const auto& constituent : image) n += constituent.size();
  return n;
}

void expect_rebuild_matches_oracle(RebuildKind kind) {
  auto setup = setup_for(kind);
  // Empty; fewer blocks than one stripe; several stripes plus a short final
  // stripe of short blocks.
  for (std::uint64_t blocks : {0u, 2u, 7 * setup.stripe + 3}) {
    for (std::uint32_t window : {1u, 3u, 32u}) {
      SCOPED_TRACE(std::string(setup.label) + ": " + std::to_string(blocks) +
                   " blocks, window " + std::to_string(window));
      auto inst = oracle_machine(kind, blocks);
      auto oracle = read_constituents(*inst, setup.victim, setup.targets);
      ASSERT_EQ(oracle.size(), setup.targets.size());
      inst->lfs(setup.victim).disk().fail();
      inst->lfs(setup.victim).disk().repair();

      auto report = rebuild(*inst, kind, window);
      ASSERT_TRUE(report.is_ok()) << report.status().to_string();
      std::uint64_t expected = total_blocks(oracle);
      EXPECT_EQ(report.value().blocks_rebuilt, expected);
      std::uint64_t longest = 0;
      for (const auto& constituent : oracle) {
        longest = std::max<std::uint64_t>(longest, constituent.size());
      }
      EXPECT_EQ(report.value().windows, (longest + window - 1) / window);
      EXPECT_EQ(read_constituents(*inst, setup.victim, setup.targets), oracle);
      EXPECT_TRUE(inst->verify_all_lfs().is_ok());
    }
  }
}

TEST(RebuildOracle, MirrorRebuildRestoresExactBlocks) {
  expect_rebuild_matches_oracle(RebuildKind::kMirror);
}

TEST(RebuildOracle, ParityDataRebuildRestoresExactBlocks) {
  expect_rebuild_matches_oracle(RebuildKind::kParityData);
}

TEST(RebuildOracle, ParityRebuildRestoresExactBlocks) {
  expect_rebuild_matches_oracle(RebuildKind::kParity);
}

TEST(RebuildOracle, SourceFailureMidRebuildStopsAtWindowBoundary) {
  // LFS 0 is a source of every plan: both mirror partners of LFS 2 at p=4,
  // a surviving sibling of LFS 1, and a data constituent for the parity.
  const std::uint32_t source = 0;
  const std::uint32_t window = 3;
  for (auto kind : {RebuildKind::kMirror, RebuildKind::kParityData,
                    RebuildKind::kParity}) {
    auto setup = setup_for(kind);
    SCOPED_TRACE(setup.label);
    const std::uint64_t blocks = 15 * setup.stripe + 2;

    // An undisturbed run on an identical machine times the rebuild; the
    // interrupted run fails the source halfway through it.
    auto reference = oracle_machine(kind, blocks);
    auto oracle = read_constituents(*reference, setup.victim, setup.targets);
    reference->lfs(setup.victim).disk().fail();
    reference->lfs(setup.victim).disk().repair();
    sim::SimTime start = reference->runtime().scheduler().now();
    ASSERT_TRUE(rebuild(*reference, kind, window).is_ok());
    sim::SimTime fail_at =
        start + sim::usec((reference->runtime().scheduler().now() - start)
                              .us() / 2);

    auto inst = oracle_machine(kind, blocks);
    ASSERT_EQ(read_constituents(*inst, setup.victim, setup.targets), oracle);
    inst->lfs(setup.victim).disk().fail();
    inst->lfs(setup.victim).disk().repair();
    inst->run_client("saboteur", [&](sim::Context& ctx, BridgeClient&) {
      ctx.sleep(fail_at - ctx.now());
      inst->lfs(source).disk().fail();
    });
    // The retry goes through a reopened file, whose size is re-derived from
    // the victim's half-rebuilt constituents and must not shrink.
    util::Result<RebuildReport> interrupted = util::internal_error("not run");
    util::Result<RebuildReport> retry = util::internal_error("not run");
    std::uint64_t reopened_size = 0;
    ConstituentImage partial;
    inst->run_client("rebuilder", [&](sim::Context& ctx, BridgeClient& client) {
      RebuildOptions options;
      options.window_blocks = window;
      with_file(kind, ctx, client, [&](auto& file) {
        interrupted = file.rebuild_lfs(setup.victim, options);
      });
      partial = constituents_of(client, setup.victim, setup.targets);
      inst->lfs(source).disk().repair();
      with_file(kind, ctx, client, [&](auto& file) {
        reopened_size = file.size_blocks();
        retry = file.rebuild_lfs(setup.victim, options);
      });
    });
    inst->run();
    EXPECT_EQ(interrupted.status().code(), util::ErrorCode::kUnavailable);
    EXPECT_EQ(reopened_size, blocks);

    // Every target stopped at a window boundary, part-way through.
    ASSERT_EQ(partial.size(), oracle.size());
    for (std::size_t t = 0; t < oracle.size(); ++t) {
      std::size_t done = partial[t].size();
      EXPECT_TRUE(done % window == 0 || done == oracle[t].size())
          << "constituent " << t << " holds " << done << " blocks";
      ASSERT_LE(done, oracle[t].size());
      for (std::size_t l = 0; l < done; ++l) {
        EXPECT_EQ(partial[t][l], oracle[t][l]) << "constituent " << t;
      }
    }
    EXPECT_GT(total_blocks(partial), 0u);
    EXPECT_LT(total_blocks(partial), total_blocks(oracle));

    // Once the source is back, the retry rebuilds everything.
    ASSERT_TRUE(retry.is_ok()) << retry.status().to_string();
    EXPECT_EQ(retry.value().blocks_rebuilt, total_blocks(oracle));
    EXPECT_EQ(read_constituents(*inst, setup.victim, setup.targets), oracle);
    EXPECT_TRUE(inst->verify_all_lfs().is_ok());
  }
}

TEST(DeleteMany, RemovesBatchAndOverlapsWork) {
  BridgeInstance inst(cfg(4));
  inst.run_client("setup", [&](sim::Context&, BridgeClient& client) {
    for (int f = 0; f < 3; ++f) {
      std::string name = "f" + std::to_string(f);
      ASSERT_TRUE(client.create(name).is_ok());
      auto open = client.open(name);
      ASSERT_TRUE(open.is_ok());
      for (std::uint32_t i = 0; i < 16; ++i) {
        ASSERT_TRUE(client.seq_write(open.value().session, record(i)).is_ok());
      }
    }
  });
  inst.run();
  EXPECT_EQ(inst.server().directory_size(), 3u);

  sim::SimTime batch_time{};
  inst.run_client("deleter", [&](sim::Context& ctx, BridgeClient& client) {
    auto start = ctx.now();
    ASSERT_TRUE(client.remove_many({"f0", "f1", "f2"}).is_ok());
    batch_time = ctx.now() - start;
  });
  inst.run();
  EXPECT_EQ(inst.server().directory_size(), 0u);
  EXPECT_TRUE(inst.verify_all_lfs().is_ok());
  // Overlapped: 3 files x 4 blocks/LFS at ~20ms each would be ~240ms+
  // sequential per-file; the batch must beat 3x the single-file cost
  // (conservative bound: under 2.5x of one file's delete).
  EXPECT_LT(batch_time.ms(), 700.0);
}

TEST(DeleteMany, MissingFileFailsCleanly) {
  BridgeInstance inst(cfg(2));
  inst.run_client("deleter", [&](sim::Context&, BridgeClient& client) {
    ASSERT_TRUE(client.create("real").is_ok());
    EXPECT_EQ(client.remove_many({"real", "ghost"}).code(),
              util::ErrorCode::kNotFound);
  });
  inst.run();
}

TEST(AnalysisModel, CopyPredictionIsNearLinear) {
  CostModel model;
  double t2 = predicted_copy_seconds(10240, 2, model);
  double t32 = predicted_copy_seconds(10240, 32, model);
  EXPECT_GT(t2 / t32, 12.0);
  EXPECT_LT(t2 / t32, 16.0);
}

TEST(AnalysisModel, SortPredictionIsSuperLinear) {
  CostModel model;
  auto total = [&](std::uint32_t p) {
    return predicted_local_sort_seconds(10240, p, 512, false, 4.4, model) +
           predicted_merge_seconds(10240, p, model);
  };
  double speedup = total(2) / total(32);
  EXPECT_GT(speedup, 16.0) << "sort model should be super-linear";
}

TEST(AnalysisModel, HintedLocalMergeRemovesAnomaly) {
  CostModel model;
  double unhinted = predicted_local_sort_seconds(10240, 2, 512, false, 4.4, model);
  double hinted = predicted_local_sort_seconds(10240, 2, 512, true, 4.4, model);
  EXPECT_GT(unhinted, 3.0 * hinted);
}

TEST(AnalysisModel, TokenRingWidthIsSeveralDozen) {
  CostModel model;
  double width = max_useful_merge_width(model);
  EXPECT_GT(width, 24.0);   // "several dozen" (§6)
  EXPECT_LT(width, 200.0);
}

}  // namespace
}  // namespace bridge::core
