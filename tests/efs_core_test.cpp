// EfsCore: the local file system's behaviour and invariants — creation,
// append/overwrite, extent maps, allocation, deletion, persistence, errors.
#include <gtest/gtest.h>

#include <functional>

#include "src/efs/efs.hpp"

namespace bridge::efs {
namespace {

disk::Geometry geo(std::uint32_t tracks = 256) {
  disk::Geometry g;
  g.num_tracks = tracks;
  g.blocks_per_track = 4;
  return g;
}

std::vector<std::byte> payload(std::uint32_t tag) {
  std::vector<std::byte> data(kEfsDataBytes);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = std::byte(static_cast<std::uint8_t>(tag + i * 7));
  }
  return data;
}

/// Run `body` inside one simulated process over a freshly formatted EFS.
void with_efs(std::function<void(sim::Context&, EfsCore&)> body,
              EfsConfig cfg = {}, std::uint32_t tracks = 256) {
  sim::Runtime rt(1);
  disk::SimDisk dev(geo(tracks), disk::LatencyModel{});
  EfsCore efs(dev, cfg);
  efs.format();
  rt.spawn(0, "t", [&](sim::Context& ctx) { body(ctx, efs); });
  rt.run();
  ASSERT_FALSE(rt.scheduler().deadlocked());
}

TEST(EfsCore, CreateWriteReadRoundTrip) {
  with_efs([](sim::Context& ctx, EfsCore& efs) {
    ASSERT_TRUE(efs.create(ctx, 42).is_ok());
    auto w = efs.write(ctx, 42, 0, payload(1));
    ASSERT_TRUE(w.is_ok());
    auto r = efs.read(ctx, 42, 0);
    ASSERT_TRUE(r.is_ok());
    EXPECT_EQ(r.value(), payload(1));
    EXPECT_NE(efs.peek_block_addr(42, 0), kNilAddr);
  });
}

TEST(EfsCore, SequentialAppendBuildsContiguousExtents) {
  with_efs([](sim::Context& ctx, EfsCore& efs) {
    ASSERT_TRUE(efs.create(ctx, 7).is_ok());
    for (std::uint32_t i = 0; i < 20; ++i) {
      ASSERT_TRUE(efs.write(ctx, 7, i, payload(i)).is_ok());
    }
    auto info = efs.info(ctx, 7);
    ASSERT_TRUE(info.is_ok());
    EXPECT_EQ(info.value().size_blocks, 20u);
    for (std::uint32_t i = 0; i < 20; ++i) {
      auto r = efs.read(ctx, 7, i);
      ASSERT_TRUE(r.is_ok()) << "block " << i;
      EXPECT_EQ(r.value(), payload(i));
    }
    // An uncontended sequential append never starts a second extent: the
    // file is one physically contiguous run.
    EXPECT_EQ(efs.op_stats().extents_allocated, 1u);
    for (std::uint32_t i = 0; i < 20; ++i) {
      EXPECT_EQ(efs.peek_block_addr(7, i), efs.peek_head(7) + i);
    }
    EXPECT_TRUE(efs.verify_invariants().is_ok());
  });
}

TEST(EfsCore, OverwriteReplacesDataPreservingExtents) {
  with_efs([](sim::Context& ctx, EfsCore& efs) {
    ASSERT_TRUE(efs.create(ctx, 3).is_ok());
    for (std::uint32_t i = 0; i < 5; ++i) {
      ASSERT_TRUE(efs.write(ctx, 3, i, payload(i)).is_ok());
    }
    ASSERT_TRUE(efs.write(ctx, 3, 2, payload(99)).is_ok());
    auto r = efs.read(ctx, 3, 2);
    ASSERT_TRUE(r.is_ok());
    EXPECT_EQ(r.value(), payload(99));
    auto info = efs.info(ctx, 3);
    EXPECT_EQ(info.value().size_blocks, 5u);  // no growth
    EXPECT_TRUE(efs.verify_invariants().is_ok());
  });
}

TEST(EfsCore, GapWriteRejected) {
  with_efs([](sim::Context& ctx, EfsCore& efs) {
    ASSERT_TRUE(efs.create(ctx, 1).is_ok());
    EXPECT_EQ(efs.write(ctx, 1, 5, payload(0)).code(),
              util::ErrorCode::kInvalidArgument);
  });
}

TEST(EfsCore, ReadPastEofRejected) {
  with_efs([](sim::Context& ctx, EfsCore& efs) {
    ASSERT_TRUE(efs.create(ctx, 1).is_ok());
    ASSERT_TRUE(efs.write(ctx, 1, 0, payload(0)).is_ok());
    EXPECT_EQ(efs.read(ctx, 1, 1).status().code(),
              util::ErrorCode::kInvalidArgument);
  });
}

TEST(EfsCore, MissingFileIsNotFound) {
  with_efs([](sim::Context& ctx, EfsCore& efs) {
    EXPECT_EQ(efs.read(ctx, 9, 0).status().code(),
              util::ErrorCode::kNotFound);
    EXPECT_EQ(efs.info(ctx, 9).status().code(), util::ErrorCode::kNotFound);
    EXPECT_EQ(efs.remove(ctx, 9).code(), util::ErrorCode::kNotFound);
  });
}

TEST(EfsCore, DuplicateCreateRejected) {
  with_efs([](sim::Context& ctx, EfsCore& efs) {
    ASSERT_TRUE(efs.create(ctx, 5).is_ok());
    EXPECT_EQ(efs.create(ctx, 5).code(), util::ErrorCode::kAlreadyExists);
  });
}

TEST(EfsCore, FileIdZeroRejected) {
  with_efs([](sim::Context& ctx, EfsCore& efs) {
    EXPECT_EQ(efs.create(ctx, 0).code(), util::ErrorCode::kInvalidArgument);
  });
}

TEST(EfsCore, DeleteFreesEveryBlock) {
  with_efs([](sim::Context& ctx, EfsCore& efs) {
    std::size_t free_before = efs.free_block_count();
    ASSERT_TRUE(efs.create(ctx, 11).is_ok());
    for (std::uint32_t i = 0; i < 30; ++i) {
      ASSERT_TRUE(efs.write(ctx, 11, i, payload(i)).is_ok());
    }
    // 30 data blocks plus the file's one extent-table block.
    EXPECT_EQ(efs.free_block_count(), free_before - 31);
    ASSERT_TRUE(efs.remove(ctx, 11).is_ok());
    EXPECT_EQ(efs.free_block_count(), free_before);
    EXPECT_EQ(efs.file_count(), 0u);
    EXPECT_TRUE(efs.verify_invariants().is_ok());
  });
}

TEST(EfsCore, DeletedBlocksAreReusable) {
  with_efs([](sim::Context& ctx, EfsCore& efs) {
    ASSERT_TRUE(efs.create(ctx, 1).is_ok());
    for (std::uint32_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(efs.write(ctx, 1, i, payload(i)).is_ok());
    }
    ASSERT_TRUE(efs.remove(ctx, 1).is_ok());
    ASSERT_TRUE(efs.create(ctx, 2).is_ok());
    for (std::uint32_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(efs.write(ctx, 2, i, payload(100 + i)).is_ok());
    }
    auto r = efs.read(ctx, 2, 9);
    ASSERT_TRUE(r.is_ok());
    EXPECT_EQ(r.value(), payload(109));
    EXPECT_TRUE(efs.verify_invariants().is_ok());
  });
}

TEST(EfsCore, OutOfSpaceSurfaces) {
  // Tiny disk: 8 tracks * 4 = 32 blocks, 10 reserved for metadata -> 22
  // allocatable, one of which goes to the file's extent table.
  with_efs(
      [](sim::Context& ctx, EfsCore& efs) {
        ASSERT_TRUE(efs.create(ctx, 1).is_ok());
        std::uint32_t written = 0;
        while (true) {
          auto w = efs.write(ctx, 1, written, payload(written));
          if (!w.is_ok()) {
            EXPECT_EQ(w.code(), util::ErrorCode::kOutOfSpace);
            break;
          }
          ++written;
          ASSERT_LT(written, 100u);
        }
        EXPECT_EQ(written, 21u);
        EXPECT_TRUE(efs.verify_invariants().is_ok());
      },
      EfsConfig{}, /*tracks=*/8);
}

TEST(EfsCore, ExtentLookupsStayFlatWithoutHints) {
  // The chain era needed client hints to keep sequential reads O(1); the
  // extent map answers every lookup in one binary search regardless.
  with_efs([](sim::Context& ctx, EfsCore& efs) {
    ASSERT_TRUE(efs.create(ctx, 4).is_ok());
    for (std::uint32_t i = 0; i < 200; ++i) {
      ASSERT_TRUE(efs.write(ctx, 4, i, payload(i)).is_ok());
    }
    std::uint64_t lookups_before = efs.op_stats().extent_lookups;
    for (std::uint32_t i = 0; i < 200; ++i) {
      auto r = efs.read(ctx, 4, i);
      ASSERT_TRUE(r.is_ok());
    }
    // Exactly one map lookup per read — no walking.
    EXPECT_EQ(efs.op_stats().extent_lookups - lookups_before, 200u);
  });
}

TEST(EfsCore, RandomReadCostsOneLookupNotAWalk) {
  with_efs([](sim::Context& ctx, EfsCore& efs) {
    ASSERT_TRUE(efs.create(ctx, 4).is_ok());
    for (std::uint32_t i = 0; i < 100; ++i) {
      ASSERT_TRUE(efs.write(ctx, 4, i, payload(i)).is_ok());
    }
    std::uint64_t lookups_before = efs.op_stats().extent_lookups;
    // Deep into the file: the chain era walked ~97 pointer blocks to get
    // here without a hint; the extent map resolves it in one lookup.
    auto r = efs.read(ctx, 4, 97);
    ASSERT_TRUE(r.is_ok());
    EXPECT_EQ(r.value(), payload(97));
    EXPECT_EQ(efs.op_stats().extent_lookups - lookups_before, 1u);
  });
}

TEST(EfsCore, DeleteCostIsFlatInFileSize) {
  // §4.5: the chain-era Delete explicitly freed every local block at ~20 ms
  // per block.  With the bitmap allocator a delete is RAM bit-clears plus
  // one forced metadata flush, so cost no longer scales with file size.
  with_efs([](sim::Context& ctx, EfsCore& efs) {
    ASSERT_TRUE(efs.create(ctx, 1).is_ok());
    for (std::uint32_t i = 0; i < 60; ++i) {
      ASSERT_TRUE(efs.write(ctx, 1, i, payload(i)).is_ok());
    }
    auto before = ctx.now();
    ASSERT_TRUE(efs.remove(ctx, 1).is_ok());
    double delete_ms = (ctx.now() - before).ms();
    // Chain era: 60 blocks * 20 ms = ~1200 ms.  Extent era: ~15 ms flat.
    EXPECT_LT(delete_ms, 40.0);
    EXPECT_TRUE(efs.verify_invariants().is_ok());
  });
}

TEST(EfsCore, DirtyMountRebuildsBitmapFromExtentTables) {
  disk::SimDisk dev(geo(), disk::LatencyModel{});
  sim::Runtime rt(1);
  EfsCore efs(dev, {});
  efs.format();
  rt.spawn(0, "t", [&](sim::Context& ctx) {
    ASSERT_TRUE(efs.create(ctx, 5).is_ok());
    for (std::uint32_t i = 0; i < 17; ++i) {
      ASSERT_TRUE(efs.write(ctx, 5, i, payload(i)).is_ok());
    }
    // No sync: the superblock stays dirty.
  });
  rt.run();

  // A crashed mount must take the scan-and-rebuild fallback...
  EfsCore dirty(dev, {});
  ASSERT_TRUE(dirty.remount_from_disk().is_ok());
  EXPECT_TRUE(dirty.last_mount_rebuilt());
  EXPECT_EQ(dirty.free_block_count(), efs.free_block_count());
  EXPECT_TRUE(dirty.verify_invariants().is_ok());

  // ...and leave the disk clean, so the next mount loads the persisted
  // bitmap directly instead of rebuilding.
  EfsCore clean(dev, {});
  ASSERT_TRUE(clean.remount_from_disk().is_ok());
  EXPECT_FALSE(clean.last_mount_rebuilt());
  EXPECT_EQ(clean.free_block_count(), dirty.free_block_count());
  EXPECT_TRUE(clean.verify_invariants().is_ok());
}

TEST(EfsCore, ManyFilesStayDisjoint) {
  with_efs([](sim::Context& ctx, EfsCore& efs) {
    for (FileId f = 1; f <= 12; ++f) {
      ASSERT_TRUE(efs.create(ctx, f).is_ok());
    }
    for (std::uint32_t i = 0; i < 15; ++i) {
      for (FileId f = 1; f <= 12; ++f) {
        ASSERT_TRUE(efs.write(ctx, f, i, payload(f * 1000 + i)).is_ok());
      }
    }
    for (FileId f = 1; f <= 12; ++f) {
      for (std::uint32_t i = 0; i < 15; ++i) {
        auto r = efs.read(ctx, f, i);
        ASSERT_TRUE(r.is_ok());
        EXPECT_EQ(r.value(), payload(f * 1000 + i));
      }
    }
    EXPECT_EQ(efs.file_count(), 12u);
    EXPECT_TRUE(efs.verify_invariants().is_ok());
  });
}

TEST(EfsCore, SyncThenRemountPreservesEverything) {
  sim::Runtime rt(1);
  disk::SimDisk dev(geo(), disk::LatencyModel{});
  EfsCore efs(dev, EfsConfig{});
  efs.format();
  rt.spawn(0, "t", [&](sim::Context& ctx) {
    ASSERT_TRUE(efs.create(ctx, 21).is_ok());
    for (std::uint32_t i = 0; i < 25; ++i) {
      ASSERT_TRUE(efs.write(ctx, 21, i, payload(i)).is_ok());
    }
    ASSERT_TRUE(efs.sync(ctx).is_ok());
  });
  rt.run();

  // "Mount" a fresh EfsCore over the same device.
  sim::Runtime rt2(1);
  EfsCore efs2(dev, EfsConfig{});
  ASSERT_TRUE(efs2.remount_from_disk().is_ok());
  EXPECT_EQ(efs2.file_count(), 1u);
  EXPECT_EQ(efs2.free_block_count(), efs.free_block_count());
  rt2.spawn(0, "t", [&](sim::Context& ctx) {
    auto info = efs2.info(ctx, 21);
    ASSERT_TRUE(info.is_ok());
    EXPECT_EQ(info.value().size_blocks, 25u);
    for (std::uint32_t i = 0; i < 25; ++i) {
      auto r = efs2.read(ctx, 21, i);
      ASSERT_TRUE(r.is_ok());
      EXPECT_EQ(r.value(), payload(i));
    }
  });
  rt2.run();
  EXPECT_TRUE(efs2.verify_invariants().is_ok());
}

TEST(EfsCore, WrongPayloadSizeRejected) {
  with_efs([](sim::Context& ctx, EfsCore& efs) {
    ASSERT_TRUE(efs.create(ctx, 1).is_ok());
    std::vector<std::byte> bad(100);
    EXPECT_EQ(efs.write(ctx, 1, 0, bad).code(),
              util::ErrorCode::kInvalidArgument);
  });
}

TEST(EfsCore, AppendCostMatchesPaperWriteRegime) {
  // Steady-state sequential append should cost roughly the paper's 31 ms
  // Write figure (one data write + amortized metadata flushes).
  with_efs([](sim::Context& ctx, EfsCore& efs) {
    ASSERT_TRUE(efs.create(ctx, 8).is_ok());
    // Warm up.
    for (std::uint32_t i = 0; i < 64; ++i) {
      ASSERT_TRUE(efs.write(ctx, 8, i, payload(i)).is_ok());
    }
    auto before = ctx.now();
    for (std::uint32_t i = 64; i < 192; ++i) {
      ASSERT_TRUE(efs.write(ctx, 8, i, payload(i)).is_ok());
    }
    double per_write_ms = (ctx.now() - before).ms() / 128.0;
    EXPECT_GT(per_write_ms, 15.0);
    EXPECT_LT(per_write_ms, 45.0);
  });
}

TEST(EfsCore, WriteRunCoalescesTrackFlushes) {
  // The vectored write path stages the run in the cache and flushes each
  // touched track in one positioning op, so a contiguous run beats the
  // per-block write regime by roughly blocks_per_track while producing the
  // same blocks.
  with_efs([](sim::Context& ctx, EfsCore& efs) {
    ASSERT_TRUE(efs.create(ctx, 8).is_ok());
    // Warm up past the allocation of the directory-adjacent tracks.
    std::vector<std::uint32_t> warm_nos;
    std::vector<std::vector<std::byte>> warm_blocks;
    for (std::uint32_t i = 0; i < 64; ++i) {
      warm_nos.push_back(i);
      warm_blocks.push_back(payload(i));
    }
    ASSERT_TRUE(efs.write_run(ctx, 8, warm_nos, warm_blocks).is_ok());

    std::vector<std::uint32_t> nos;
    std::vector<std::vector<std::byte>> blocks;
    for (std::uint32_t i = 64; i < 192; ++i) {
      nos.push_back(i);
      blocks.push_back(payload(i));
    }
    auto before = ctx.now();
    auto run = efs.write_run(ctx, 8, nos, blocks);
    ASSERT_TRUE(run.is_ok());
    double per_write_ms = (ctx.now() - before).ms() / 128.0;
    // One 15ms positioning per 4-block track plus transfers: well under the
    // per-block regime's 15ms floor (AppendCostMatchesPaperWriteRegime).
    EXPECT_LT(per_write_ms, 10.0);
    EXPECT_GT(efs.cache_stats().coalesced_flush_blocks, 0u);

    for (std::uint32_t i = 0; i < 192; ++i) {
      auto r = efs.read(ctx, 8, i);
      ASSERT_TRUE(r.is_ok()) << "block " << i;
      EXPECT_EQ(r.value(), payload(i));
    }
    EXPECT_TRUE(efs.verify_invariants().is_ok());
  });
}

TEST(EfsCore, WriteRunAndPerBlockWritesProduceIdenticalBlocks) {
  // Same file built two ways must read back identically (including after a
  // sync, so the staged-then-flushed path leaves nothing behind in cache).
  std::vector<std::vector<std::byte>> via_run, via_single;
  auto collect = [&](bool vectored, std::vector<std::vector<std::byte>>& out) {
    with_efs([&](sim::Context& ctx, EfsCore& efs) {
      ASSERT_TRUE(efs.create(ctx, 4).is_ok());
      std::vector<std::uint32_t> nos;
      std::vector<std::vector<std::byte>> blocks;
      for (std::uint32_t i = 0; i < 23; ++i) {
        nos.push_back(i);
        blocks.push_back(payload(200 + i));
      }
      if (vectored) {
        ASSERT_TRUE(efs.write_run(ctx, 4, nos, blocks).is_ok());
      } else {
        for (std::uint32_t i = 0; i < 23; ++i) {
          ASSERT_TRUE(efs.write(ctx, 4, i, blocks[i]).is_ok());
        }
      }
      ASSERT_TRUE(efs.sync(ctx).is_ok());
      for (std::uint32_t i = 0; i < 23; ++i) {
        auto r = efs.read(ctx, 4, i);
        ASSERT_TRUE(r.is_ok());
        out.push_back(r.value());
      }
      EXPECT_TRUE(efs.verify_invariants().is_ok());
    });
  };
  collect(true, via_run);
  collect(false, via_single);
  EXPECT_EQ(via_run, via_single);
}

TEST(EfsCore, SequentialReadCostBeatsDiskLatency) {
  // Full-track buffering: amortized sequential read "substantially less than
  // disk latency" (§4.5).
  with_efs([](sim::Context& ctx, EfsCore& efs) {
    ASSERT_TRUE(efs.create(ctx, 8).is_ok());
    for (std::uint32_t i = 0; i < 256; ++i) {
      ASSERT_TRUE(efs.write(ctx, 8, i, payload(i)).is_ok());
    }
    auto before = ctx.now();
    for (std::uint32_t i = 0; i < 256; ++i) {
      ASSERT_TRUE(efs.read(ctx, 8, i).is_ok());
    }
    double per_read_ms = (ctx.now() - before).ms() / 256.0;
    EXPECT_LT(per_read_ms, 15.0);
    EXPECT_GT(per_read_ms, 1.0);
  });
}

TEST(EfsCore, TruncateFreesTailAndKeepsPrefix) {
  with_efs([](sim::Context& ctx, EfsCore& efs) {
    ASSERT_TRUE(efs.create(ctx, 11).is_ok());
    std::size_t free_before = efs.free_block_count();
    for (std::uint32_t i = 0; i < 12; ++i) {
      ASSERT_TRUE(efs.write(ctx, 11, i, payload(i)).is_ok());
    }
    ASSERT_TRUE(efs.truncate(ctx, 11, 5).is_ok());
    auto info = efs.info(ctx, 11);
    ASSERT_TRUE(info.is_ok());
    EXPECT_EQ(info.value().size_blocks, 5u);
    // 5 surviving data blocks plus the file's extent-table block.
    EXPECT_EQ(efs.free_block_count(), free_before - 6);
    for (std::uint32_t i = 0; i < 5; ++i) {
      auto r = efs.read(ctx, 11, i);
      ASSERT_TRUE(r.is_ok()) << "block " << i;
      EXPECT_EQ(r.value(), payload(i));
    }
    EXPECT_EQ(efs.read(ctx, 11, 5).status().code(),
              util::ErrorCode::kInvalidArgument);
    EXPECT_TRUE(efs.verify_invariants().is_ok());
    EXPECT_EQ(efs.op_stats().truncates, 1u);
  });
}

TEST(EfsCore, TruncateToZeroThenReappend) {
  with_efs([](sim::Context& ctx, EfsCore& efs) {
    ASSERT_TRUE(efs.create(ctx, 4).is_ok());
    std::size_t free_before = efs.free_block_count();
    for (std::uint32_t i = 0; i < 6; ++i) {
      ASSERT_TRUE(efs.write(ctx, 4, i, payload(i)).is_ok());
    }
    ASSERT_TRUE(efs.truncate(ctx, 4, 0).is_ok());
    EXPECT_EQ(efs.free_block_count(), free_before);
    EXPECT_EQ(efs.info(ctx, 4).value().size_blocks, 0u);
    // The extent map must be re-growable from empty.
    for (std::uint32_t i = 0; i < 3; ++i) {
      ASSERT_TRUE(efs.write(ctx, 4, i, payload(40 + i)).is_ok());
    }
    for (std::uint32_t i = 0; i < 3; ++i) {
      EXPECT_EQ(efs.read(ctx, 4, i).value(), payload(40 + i));
    }
    EXPECT_TRUE(efs.verify_invariants().is_ok());
  });
}

TEST(EfsCore, TruncateAfterTruncateAppendsAtBoundary) {
  with_efs([](sim::Context& ctx, EfsCore& efs) {
    ASSERT_TRUE(efs.create(ctx, 6).is_ok());
    for (std::uint32_t i = 0; i < 8; ++i) {
      ASSERT_TRUE(efs.write(ctx, 6, i, payload(i)).is_ok());
    }
    ASSERT_TRUE(efs.truncate(ctx, 6, 3).is_ok());
    // Appending at the new boundary continues the file; one past rejects.
    EXPECT_EQ(efs.write(ctx, 6, 4, payload(0)).code(),
              util::ErrorCode::kInvalidArgument);
    ASSERT_TRUE(efs.write(ctx, 6, 3, payload(33)).is_ok());
    EXPECT_EQ(efs.info(ctx, 6).value().size_blocks, 4u);
    EXPECT_EQ(efs.read(ctx, 6, 3).value(), payload(33));
    EXPECT_TRUE(efs.verify_invariants().is_ok());
  });
}

TEST(EfsCore, TruncateErrors) {
  with_efs([](sim::Context& ctx, EfsCore& efs) {
    EXPECT_EQ(efs.truncate(ctx, 9, 0).code(), util::ErrorCode::kNotFound);
    ASSERT_TRUE(efs.create(ctx, 9).is_ok());
    ASSERT_TRUE(efs.write(ctx, 9, 0, payload(0)).is_ok());
    // Growing is not truncation.
    EXPECT_EQ(efs.truncate(ctx, 9, 2).code(),
              util::ErrorCode::kInvalidArgument);
    // Truncating to the current size is a no-op.
    EXPECT_TRUE(efs.truncate(ctx, 9, 1).is_ok());
    EXPECT_EQ(efs.info(ctx, 9).value().size_blocks, 1u);
  });
}

TEST(EfsCore, TruncatePersistsAcrossRemount) {
  disk::SimDisk dev(geo(), disk::LatencyModel{});
  sim::Runtime rt(1);
  EfsCore efs(dev, {});
  efs.format();
  rt.spawn(0, "t", [&](sim::Context& ctx) {
    ASSERT_TRUE(efs.create(ctx, 2).is_ok());
    for (std::uint32_t i = 0; i < 9; ++i) {
      ASSERT_TRUE(efs.write(ctx, 2, i, payload(i)).is_ok());
    }
    ASSERT_TRUE(efs.truncate(ctx, 2, 4).is_ok());
    ASSERT_TRUE(efs.sync(ctx).is_ok());
  });
  rt.run();

  EfsCore efs2(dev, {});
  ASSERT_TRUE(efs2.remount_from_disk().is_ok());
  sim::Runtime rt2(1);
  rt2.spawn(0, "t2", [&](sim::Context& ctx) {
    EXPECT_EQ(efs2.info(ctx, 2).value().size_blocks, 4u);
    for (std::uint32_t i = 0; i < 4; ++i) {
      EXPECT_EQ(efs2.read(ctx, 2, i).value(), payload(i));
    }
  });
  rt2.run();
  EXPECT_TRUE(efs2.verify_invariants().is_ok());
}

TEST(EfsCore, AdaptiveReadaheadDeepensWithRunLength) {
  EfsConfig cfg;
  cfg.readahead.adaptive = true;
  cfg.readahead.max_tracks = 4;
  with_efs(
      [](sim::Context& ctx, EfsCore& efs) {
        ASSERT_TRUE(efs.create(ctx, 1).is_ok());
        for (std::uint32_t i = 0; i < 24; ++i) {
          ASSERT_TRUE(efs.write(ctx, 1, i, payload(i)).is_ok());
        }
        // Sequential scan: depth starts at 1 and deepens one track per
        // blocks_per_track (=4) of observed run, clamping at max_tracks.
        EXPECT_EQ(efs.read(ctx, 1, 0).is_ok(), true);
        EXPECT_EQ(efs.op_stats().last_readahead_depth, 1u);
        for (std::uint32_t i = 1; i < 24; ++i) {
          ASSERT_TRUE(efs.read(ctx, 1, i).is_ok());
        }
        // run_len at block 23 is 23: min(1 + 23/4, 4) = 4.
        EXPECT_EQ(efs.op_stats().last_readahead_depth, 4u);
        EXPECT_GT(efs.op_stats().deep_readahead_tracks, 0u);
      },
      cfg);
}

TEST(EfsCore, RandomAccessShutsReadaheadOff) {
  EfsConfig cfg;
  cfg.readahead.adaptive = true;
  cfg.readahead.random_cutoff = 4;
  with_efs(
      [](sim::Context& ctx, EfsCore& efs) {
        ASSERT_TRUE(efs.create(ctx, 1).is_ok());
        for (std::uint32_t i = 0; i < 32; ++i) {
          ASSERT_TRUE(efs.write(ctx, 1, i, payload(i)).is_ok());
        }
        // A hostile stride: every read breaks the sequential prediction.
        const std::uint32_t jumps[] = {20, 4, 28, 12, 24, 8};
        for (std::uint32_t b : jumps) {
          ASSERT_TRUE(efs.read(ctx, 1, b).is_ok());
        }
        // After random_cutoff misses the detector calls the file random and
        // drops to single-block fetches (depth 0).
        EXPECT_EQ(efs.op_stats().last_readahead_depth, 0u);
        // Resuming a sequential run re-arms it.
        ASSERT_TRUE(efs.read(ctx, 1, 9).is_ok());
        ASSERT_TRUE(efs.read(ctx, 1, 10).is_ok());
        EXPECT_GE(efs.op_stats().last_readahead_depth, 1u);
      },
      cfg);
}

TEST(EfsCore, AdaptiveOffKeepsSeedReadahead) {
  with_efs([](sim::Context& ctx, EfsCore& efs) {
    ASSERT_TRUE(efs.create(ctx, 1).is_ok());
    for (std::uint32_t i = 0; i < 16; ++i) {
      ASSERT_TRUE(efs.write(ctx, 1, i, payload(i)).is_ok());
    }
    for (std::uint32_t i = 0; i < 16; ++i) {
      ASSERT_TRUE(efs.read(ctx, 1, i).is_ok());
    }
    EXPECT_EQ(efs.op_stats().last_readahead_depth, 1u);
    EXPECT_EQ(efs.op_stats().deep_readahead_tracks, 0u);
  });
}

}  // namespace
}  // namespace bridge::efs
