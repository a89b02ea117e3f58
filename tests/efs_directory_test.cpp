// EFS directory behaviour: hash collisions, tombstone reuse, probe-chain
// integrity across deletes, and directory exhaustion.
#include <gtest/gtest.h>

#include "src/efs/efs.hpp"

namespace bridge::efs {
namespace {

disk::Geometry geo(std::uint32_t tracks = 512) {
  disk::Geometry g;
  g.num_tracks = tracks;
  g.blocks_per_track = 4;
  return g;
}

std::vector<std::byte> payload(std::uint32_t tag) {
  std::vector<std::byte> data(kEfsDataBytes);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = std::byte(static_cast<std::uint8_t>(tag + i));
  }
  return data;
}

// Directory capacity is dir_blocks(8) * 64 = 512 slots; ids that are equal
// mod 512 collide.
constexpr std::uint32_t kDirCapacity = 512;

TEST(EfsDirectory, CollidingIdsCoexist) {
  sim::Runtime rt(1);
  disk::SimDisk dev(geo(), disk::LatencyModel{});
  EfsCore fs(dev, EfsConfig{});
  fs.format();
  rt.spawn(0, "t", [&](sim::Context& ctx) {
    // Three ids hashing to the same slot.
    FileId a = 7, b = 7 + kDirCapacity, c = 7 + 2 * kDirCapacity;
    ASSERT_TRUE(fs.create(ctx, a).is_ok());
    ASSERT_TRUE(fs.create(ctx, b).is_ok());
    ASSERT_TRUE(fs.create(ctx, c).is_ok());
    ASSERT_TRUE(fs.write(ctx, a, 0, payload(1)).is_ok());
    ASSERT_TRUE(fs.write(ctx, b, 0, payload(2)).is_ok());
    ASSERT_TRUE(fs.write(ctx, c, 0, payload(3)).is_ok());
    EXPECT_EQ(fs.read(ctx, a, 0).value(), payload(1));
    EXPECT_EQ(fs.read(ctx, b, 0).value(), payload(2));
    EXPECT_EQ(fs.read(ctx, c, 0).value(), payload(3));
  });
  rt.run();
  EXPECT_TRUE(fs.verify_invariants().is_ok());
}

TEST(EfsDirectory, DeleteInMiddleOfProbeChainKeepsLaterEntriesFindable) {
  sim::Runtime rt(1);
  disk::SimDisk dev(geo(), disk::LatencyModel{});
  EfsCore fs(dev, EfsConfig{});
  fs.format();
  rt.spawn(0, "t", [&](sim::Context& ctx) {
    FileId a = 9, b = 9 + kDirCapacity, c = 9 + 2 * kDirCapacity;
    ASSERT_TRUE(fs.create(ctx, a).is_ok());
    ASSERT_TRUE(fs.create(ctx, b).is_ok());
    ASSERT_TRUE(fs.create(ctx, c).is_ok());
    ASSERT_TRUE(fs.write(ctx, c, 0, payload(3)).is_ok());
    // Deleting b leaves a tombstone; c (probed past b's slot) must survive.
    ASSERT_TRUE(fs.remove(ctx, b).is_ok());
    auto r = fs.read(ctx, c, 0);
    ASSERT_TRUE(r.is_ok());
    EXPECT_EQ(r.value(), payload(3));
    // And b's slot is reusable.
    ASSERT_TRUE(fs.create(ctx, b).is_ok());
    EXPECT_EQ(fs.file_count(), 3u);
  });
  rt.run();
  EXPECT_TRUE(fs.verify_invariants().is_ok());
}

TEST(EfsDirectory, RepeatedCreateDeleteCycleDoesNotLeak) {
  sim::Runtime rt(1);
  disk::SimDisk dev(geo(), disk::LatencyModel{});
  EfsCore fs(dev, EfsConfig{});
  fs.format();
  std::size_t free_initial = fs.free_block_count();
  rt.spawn(0, "t", [&](sim::Context& ctx) {
    for (int cycle = 0; cycle < 30; ++cycle) {
      FileId id = 100 + (cycle % 3);
      ASSERT_TRUE(fs.create(ctx, id).is_ok());
      for (std::uint32_t i = 0; i < 5; ++i) {
        ASSERT_TRUE(fs.write(ctx, id, i, payload(i)).is_ok());
      }
      ASSERT_TRUE(fs.remove(ctx, id).is_ok());
    }
  });
  rt.run();
  EXPECT_EQ(fs.free_block_count(), free_initial);
  EXPECT_EQ(fs.file_count(), 0u);
  EXPECT_TRUE(fs.verify_invariants().is_ok());
}

TEST(EfsDirectory, DirectoryFullReported) {
  sim::Runtime rt(1);
  // Big enough disk that blocks are not the limit.
  disk::SimDisk dev(geo(1024), disk::LatencyModel{});
  EfsCore fs(dev, EfsConfig{});
  fs.format();
  rt.spawn(0, "t", [&](sim::Context& ctx) {
    std::uint32_t created = 0;
    for (FileId id = 1; id <= kDirCapacity + 5; ++id) {
      auto status = fs.create(ctx, id);
      if (!status.is_ok()) {
        EXPECT_EQ(status.code(), util::ErrorCode::kOutOfSpace);
        break;
      }
      ++created;
    }
    EXPECT_EQ(created, kDirCapacity);
  });
  rt.run();
}

TEST(EfsDirectory, PersistsThroughSyncAndRemountWithCollisions) {
  sim::Runtime rt(1);
  disk::SimDisk dev(geo(), disk::LatencyModel{});
  EfsCore fs(dev, EfsConfig{});
  fs.format();
  rt.spawn(0, "t", [&](sim::Context& ctx) {
    FileId a = 3, b = 3 + kDirCapacity;
    ASSERT_TRUE(fs.create(ctx, a).is_ok());
    ASSERT_TRUE(fs.create(ctx, b).is_ok());
    ASSERT_TRUE(fs.write(ctx, a, 0, payload(10)).is_ok());
    ASSERT_TRUE(fs.write(ctx, b, 0, payload(20)).is_ok());
    ASSERT_TRUE(fs.remove(ctx, a).is_ok());  // tombstone persists too
    ASSERT_TRUE(fs.sync(ctx).is_ok());
  });
  rt.run();

  EfsCore remounted(dev, EfsConfig{});
  ASSERT_TRUE(remounted.remount_from_disk().is_ok());
  EXPECT_EQ(remounted.file_count(), 1u);
  sim::Runtime rt2(1);
  rt2.spawn(0, "t", [&](sim::Context& ctx) {
    auto r = remounted.read(ctx, 3 + kDirCapacity, 0);
    ASSERT_TRUE(r.is_ok());
    EXPECT_EQ(r.value(), payload(20));
    EXPECT_EQ(remounted.read(ctx, 3, 0).status().code(),
              util::ErrorCode::kNotFound);
  });
  rt2.run();
  EXPECT_TRUE(remounted.verify_invariants().is_ok());
}

}  // namespace
}  // namespace bridge::efs
