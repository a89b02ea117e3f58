// Randomized property test: EfsCore under long random operation sequences.
//
// A reference model (std::map of file id -> vector of payloads) runs next to
// the real file system; after every batch the on-disk structures must verify
// and the visible contents must match the model exactly.  Parameterized over
// seeds and cache configurations so eviction/readahead interleavings differ.
#include <gtest/gtest.h>

#include <map>
#include <ostream>
#include <tuple>
#include <vector>

#include "src/efs/efs.hpp"
#include "src/sim/rng.hpp"

namespace bridge::efs {
namespace {

std::vector<std::byte> payload_for(std::uint64_t tag) {
  std::vector<std::byte> data(kEfsDataBytes);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = std::byte(static_cast<std::uint8_t>((tag * 0x9E37 + i * 31) & 0xFF));
  }
  return data;
}

struct Params {
  std::uint64_t seed;
  std::uint32_t cache_blocks;
  bool readahead;
};

/// Print a case as its name, e.g. "s3_c8_ra" (seed 3, 8-block cache,
/// read-ahead on) or "s4_c8_nora".  gtest uses this for the test name and
/// its GetParam() note instead of the struct's raw bytes, whose padding is
/// indeterminate.
void PrintTo(const Params& c, std::ostream* os) {
  *os << "s" << c.seed << "_c" << c.cache_blocks
      << (c.readahead ? "_ra" : "_nora");
}

class EfsRandomOps : public ::testing::TestWithParam<Params> {};

TEST_P(EfsRandomOps, MatchesReferenceModel) {
  auto param = GetParam();
  sim::Runtime rt(1);
  disk::Geometry geometry;
  geometry.num_tracks = 512;
  geometry.blocks_per_track = 4;
  disk::SimDisk dev(geometry, disk::LatencyModel{});
  EfsConfig config;
  config.cache.capacity_blocks = param.cache_blocks;
  config.cache.track_readahead = param.readahead;
  EfsCore fs(dev, config);
  fs.format();
  std::size_t initial_free = fs.free_block_count();

  rt.spawn(0, "fuzzer", [&](sim::Context& ctx) {
    sim::Rng rng(param.seed);
    std::map<FileId, std::vector<std::uint64_t>> model;  // file -> block tags
    std::uint64_t next_tag = 1;

    for (int op = 0; op < 600; ++op) {
      std::uint32_t action = static_cast<std::uint32_t>(rng.next_below(100));
      if (action < 12) {
        // Create a new file.
        FileId id = static_cast<FileId>(1 + rng.next_below(40));
        auto status = fs.create(ctx, id);
        if (model.count(id) != 0) {
          EXPECT_EQ(status.code(), util::ErrorCode::kAlreadyExists);
        } else if (status.is_ok()) {
          model[id] = {};
        } else {
          EXPECT_EQ(status.code(), util::ErrorCode::kOutOfSpace);
        }
      } else if (action < 22 && !model.empty()) {
        // Delete a random file.
        auto it = model.begin();
        std::advance(it, static_cast<long>(rng.next_below(model.size())));
        ASSERT_TRUE(fs.remove(ctx, it->first).is_ok());
        model.erase(it);
      } else if (action < 60 && !model.empty()) {
        // Append to a random file.
        auto it = model.begin();
        std::advance(it, static_cast<long>(rng.next_below(model.size())));
        std::uint64_t tag = next_tag++;
        auto result = fs.write(ctx, it->first,
                               static_cast<std::uint32_t>(it->second.size()),
                               payload_for(tag));
        if (result.is_ok()) {
          it->second.push_back(tag);
        } else {
          EXPECT_EQ(result.code(), util::ErrorCode::kOutOfSpace);
        }
      } else if (action < 68 && !model.empty()) {
        // Truncate a random file to a random smaller size.
        auto it = model.begin();
        std::advance(it, static_cast<long>(rng.next_below(model.size())));
        auto new_size = static_cast<std::uint32_t>(
            rng.next_below(it->second.size() + 1));
        ASSERT_TRUE(fs.truncate(ctx, it->first, new_size).is_ok());
        it->second.resize(new_size);
      } else if (action < 75 && !model.empty()) {
        // Overwrite a random existing block.
        auto it = model.begin();
        std::advance(it, static_cast<long>(rng.next_below(model.size())));
        if (!it->second.empty()) {
          auto block = static_cast<std::uint32_t>(
              rng.next_below(it->second.size()));
          std::uint64_t tag = next_tag++;
          ASSERT_TRUE(fs.write(ctx, it->first, block, payload_for(tag))
                          .is_ok());
          it->second[block] = tag;
        }
      } else if (!model.empty()) {
        // Read a random block and compare against the model.
        auto it = model.begin();
        std::advance(it, static_cast<long>(rng.next_below(model.size())));
        if (!it->second.empty()) {
          auto block = static_cast<std::uint32_t>(
              rng.next_below(it->second.size()));
          auto result = fs.read(ctx, it->first, block);
          ASSERT_TRUE(result.is_ok());
          EXPECT_EQ(result.value(), payload_for(it->second[block]))
              << "file " << it->first << " block " << block;
        }
      }

      if (op % 100 == 99) {
        ASSERT_TRUE(fs.verify_invariants().is_ok()) << "after op " << op;
      }
    }

    // Final exhaustive readback + accounting.
    std::size_t allocated = 0;
    for (const auto& [id, blocks] : model) {
      auto info = fs.info(ctx, id);
      ASSERT_TRUE(info.is_ok());
      EXPECT_EQ(info.value().size_blocks, blocks.size());
      allocated += blocks.size();
      for (std::uint32_t b = 0; b < blocks.size(); ++b) {
        auto result = fs.read(ctx, id, b);
        ASSERT_TRUE(result.is_ok());
        EXPECT_EQ(result.value(), payload_for(blocks[b]));
      }
    }
    // Allocated space = model data blocks + the extent-table blocks backing
    // the surviving files (exactly accounted, no leaks either way).
    EXPECT_EQ(fs.free_block_count(),
              initial_free - allocated - fs.extent_table_blocks_total());
    EXPECT_EQ(fs.file_count(), model.size());
  });
  rt.run();
  ASSERT_FALSE(rt.scheduler().deadlocked());
  EXPECT_TRUE(fs.verify_invariants().is_ok());
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndCaches, EfsRandomOps,
    ::testing::Values(Params{1, 64, true}, Params{2, 64, true},
                      Params{3, 8, true}, Params{4, 8, false},
                      Params{5, 128, true}, Params{6, 16, false},
                      Params{7, 4, true}, Params{8, 256, false}),
    ::testing::PrintToStringParamName());

}  // namespace
}  // namespace bridge::efs
