// Disk-image persistence, crash recovery with fsck, and the RLE compression
// filter (the §6 "filter and compress before moving" path).
#include <gtest/gtest.h>

#include <cstdio>

#include "src/core/instance.hpp"
#include "src/efs/fsck.hpp"
#include "src/tools/copy.hpp"

namespace bridge {
namespace {

disk::Geometry geo() {
  disk::Geometry g;
  g.num_tracks = 128;
  g.blocks_per_track = 4;
  return g;
}

std::vector<std::byte> payload(std::uint32_t tag) {
  std::vector<std::byte> data(efs::kEfsDataBytes);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = std::byte(static_cast<std::uint8_t>(tag + i * 5));
  }
  return data;
}

TEST(DiskImage, SaveAndLoadRoundTrip) {
  std::string path = ::testing::TempDir() + "/bridge_disk_image.bin";
  {
    sim::Runtime rt(1);
    disk::SimDisk dev(geo(), disk::LatencyModel{});
    efs::EfsCore fs(dev, efs::EfsConfig{});
    fs.format();
    rt.spawn(0, "w", [&](sim::Context& ctx) {
      ASSERT_TRUE(fs.create(ctx, 9).is_ok());
      for (std::uint32_t i = 0; i < 12; ++i) {
        ASSERT_TRUE(fs.write(ctx, 9, i, payload(i)).is_ok());
      }
      ASSERT_TRUE(fs.sync(ctx).is_ok());
    });
    rt.run();
    ASSERT_TRUE(dev.save_image(path).is_ok());
  }
  {
    // "Power up" a fresh machine from the saved image.
    sim::Runtime rt(1);
    disk::SimDisk dev(geo(), disk::LatencyModel{});
    ASSERT_TRUE(dev.load_image(path).is_ok());
    efs::EfsCore fs(dev, efs::EfsConfig{});
    ASSERT_TRUE(fs.remount_from_disk().is_ok());
    EXPECT_TRUE(fs.verify_invariants().is_ok());
    rt.spawn(0, "r", [&](sim::Context& ctx) {
      for (std::uint32_t i = 0; i < 12; ++i) {
        auto r = fs.read(ctx, 9, i);
        ASSERT_TRUE(r.is_ok());
        EXPECT_EQ(r.value(), payload(i));
      }
    });
    rt.run();
  }
  std::remove(path.c_str());
}

TEST(DiskImage, GeometryMismatchRejected) {
  std::string path = ::testing::TempDir() + "/bridge_disk_geom.bin";
  disk::SimDisk small(geo(), disk::LatencyModel{});
  ASSERT_TRUE(small.save_image(path).is_ok());
  disk::Geometry other = geo();
  other.num_tracks = 64;
  disk::SimDisk different(other, disk::LatencyModel{});
  EXPECT_EQ(different.load_image(path).code(),
            util::ErrorCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(DiskImage, MissingAndCorruptFiles) {
  disk::SimDisk dev(geo(), disk::LatencyModel{});
  EXPECT_EQ(dev.load_image("/nonexistent/nowhere.bin").code(),
            util::ErrorCode::kNotFound);
  std::string path = ::testing::TempDir() + "/bridge_disk_junk.bin";
  std::FILE* junk = std::fopen(path.c_str(), "wb");
  std::fputs("not a disk image", junk);
  std::fclose(junk);
  EXPECT_EQ(dev.load_image(path).code(), util::ErrorCode::kCorrupt);
  std::remove(path.c_str());
}

TEST(CrashRecovery, UnsyncedCacheLossIsRepairedByFsck) {
  // Write WITHOUT sync: staged cache blocks are lost with the "power cut"
  // and the superblock is still marked dirty (a fresh EfsCore sees only the
  // on-disk state).  fsck must bring the disk back to a mountable,
  // consistent state.
  disk::SimDisk dev(geo(), disk::LatencyModel{});
  {
    sim::Runtime rt(1);
    efs::EfsCore fs(dev, efs::EfsConfig{});
    fs.format();
    rt.spawn(0, "w", [&](sim::Context& ctx) {
      ASSERT_TRUE(fs.create(ctx, 5).is_ok());
      for (std::uint32_t i = 0; i < 20; ++i) {
        ASSERT_TRUE(fs.write(ctx, 5, i, payload(i)).is_ok());
      }
      // NO sync: the superblock stays dirty, so the next mount must go
      // through fsck / rebuild rather than trusting the on-disk tables.
    });
    rt.run();
  }
  sim::Runtime rt(1);
  rt.spawn(0, "fsck", [&](sim::Context& ctx) {
    auto report = efs::fsck(ctx, dev);
    ASSERT_TRUE(report.is_ok());
    // Whatever was lost, the result must mount clean.
  });
  rt.run();
  efs::EfsCore fs(dev, efs::EfsConfig{});
  ASSERT_TRUE(fs.remount_from_disk().is_ok());
  EXPECT_TRUE(fs.verify_invariants().is_ok());
}

TEST(RleFilter, CompressibleDataShrinks) {
  tools::RleCompressFilter filter;
  std::vector<std::byte> runs(900, std::byte{'A'});
  auto out = filter.apply(runs, 0);
  EXPECT_LT(out.size(), 20u);
  EXPECT_EQ(tools::RleCompressFilter::expand(out), runs);
}

TEST(RleFilter, IncompressibleDataStoredRaw) {
  tools::RleCompressFilter filter;
  std::vector<std::byte> noise(600);
  for (std::size_t i = 0; i < noise.size(); ++i) {
    noise[i] = std::byte(static_cast<std::uint8_t>(i * 37 + 11));
  }
  auto out = filter.apply(noise, 0);
  EXPECT_EQ(out.size(), noise.size() + 1);
  EXPECT_EQ(tools::RleCompressFilter::expand(out), noise);
}

TEST(RleFilter, CompressingScanReportsSavings) {
  auto cfg = core::SystemConfig::paper_profile(4, 512);
  core::BridgeInstance inst(cfg);
  inst.run_client("w", [&](sim::Context&, core::BridgeClient& client) {
    ASSERT_TRUE(client.create("logs").is_ok());
    auto open = client.open("logs");
    std::vector<std::byte> repetitive(900, std::byte{' '});
    for (int i = 0; i < 16; ++i) {
      ASSERT_TRUE(client.seq_write(open.value().session, repetitive).is_ok());
    }
  });
  inst.run();
  std::uint64_t compressed_bytes = 0;
  inst.run_client("scan", [&](sim::Context& ctx, core::BridgeClient& client) {
    tools::CopyOptions options;
    options.filter_factory = [] {
      return std::unique_ptr<tools::BlockFilter>(
          std::make_unique<tools::RleCompressFilter>());
    };
    auto result = tools::run_scan_tool(ctx, client, "logs", options);
    ASSERT_TRUE(result.is_ok());
    compressed_bytes = result.value().summary;
  });
  inst.run();
  // 16 blocks * 900 bytes of spaces compress to a handful of bytes each.
  EXPECT_LT(compressed_bytes, 16u * 50u);
}

}  // namespace
}  // namespace bridge
