// Interleave mapping and distribution strategies: bijection properties,
// the §3 consecutive-block guarantee, chunked capacity behaviour, hashed
// bookkeeping.  Parameterized across widths and start nodes.
#include <gtest/gtest.h>

#include <set>
#include <tuple>
#include <vector>

#include "src/core/distribution.hpp"
#include "src/core/interleave.hpp"

namespace bridge::core {
namespace {

TEST(Interleave, PaperFormula) {
  // "the nth block ... will be block (n div p) in the constituent file on
  // LFS (n mod p)"
  for (std::uint64_t n = 0; n < 100; ++n) {
    auto placement = round_robin_placement(n, 9);
    EXPECT_EQ(placement.lfs_index, n % 9);
    EXPECT_EQ(placement.local_block, n / 9);
  }
}

TEST(Interleave, StartOffsetRotates) {
  // "the nth block will be found on processor ((n + k) mod p)"
  for (std::uint32_t k = 0; k < 5; ++k) {
    for (std::uint64_t n = 0; n < 40; ++n) {
      EXPECT_EQ(round_robin_placement(n, 5, k).lfs_index, (n + k) % 5);
    }
  }
}

TEST(Interleave, RoundTripInverse) {
  for (std::uint32_t p : {1u, 2u, 7u, 32u}) {
    for (std::uint32_t k = 0; k < p; ++k) {
      for (std::uint64_t n = 0; n < 3 * p + 5; ++n) {
        auto placement = round_robin_placement(n, p, k);
        EXPECT_EQ(round_robin_global(placement, p, k), n)
            << "p=" << p << " k=" << k << " n=" << n;
      }
    }
  }
}

class StripingProperty
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t,
                                                 std::uint32_t>> {};

TEST_P(StripingProperty, PlacementIsBijective) {
  auto [width, start, total] = GetParam();
  std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
  for (std::uint64_t n = 0; n < 4ull * width; ++n) {
    auto placement = striped_placement(n, width, start, total);
    EXPECT_LT(placement.lfs_index, total);
    EXPECT_TRUE(seen.insert({placement.lfs_index, placement.local_block}).second)
        << "collision at n=" << n;
    EXPECT_EQ(striped_global(placement.lfs_index, placement.local_block, width,
                             start, total),
              n);
  }
}

TEST_P(StripingProperty, ConsecutiveBlocksHitDistinctLfs) {
  // The §3 guarantee: any `width` consecutive blocks land on `width`
  // distinct LFSs.
  auto [width, start, total] = GetParam();
  for (std::uint64_t first = 0; first < 3 * width; ++first) {
    std::set<std::uint32_t> lfs;
    for (std::uint64_t n = first; n < first + width; ++n) {
      lfs.insert(striped_placement(n, width, start, total).lfs_index);
    }
    EXPECT_EQ(lfs.size(), width);
  }
}

INSTANTIATE_TEST_SUITE_P(
    WidthsAndStarts, StripingProperty,
    ::testing::Values(std::make_tuple(1u, 0u, 8u), std::make_tuple(2u, 3u, 8u),
                      std::make_tuple(4u, 6u, 8u), std::make_tuple(8u, 0u, 8u),
                      std::make_tuple(8u, 5u, 8u), std::make_tuple(16u, 9u, 32u),
                      std::make_tuple(32u, 0u, 32u),
                      std::make_tuple(3u, 2u, 7u)));

TEST(PlacementMap, RoundRobinAppendAndPlaceAgree) {
  PlacementMap m(Distribution::kRoundRobin, 4, 1, 8, 0, 0);
  for (std::uint64_t n = 0; n < 40; ++n) {
    auto appended = m.append();
    ASSERT_TRUE(appended.is_ok());
    auto placed = m.place(n);
    ASSERT_TRUE(placed.is_ok());
    EXPECT_EQ(appended.value(), placed.value());
  }
  EXPECT_EQ(m.size_blocks(), 40u);
  EXPECT_EQ(m.place(40).status().code(), util::ErrorCode::kInvalidArgument);
}

TEST(PlacementMap, ChunkedFillsChunksInOrderAndCaps) {
  PlacementMap m(Distribution::kChunked, 4, 0, 4, /*chunk_blocks=*/10, 0);
  for (std::uint64_t n = 0; n < 40; ++n) {
    auto placement = m.append();
    ASSERT_TRUE(placement.is_ok());
    EXPECT_EQ(placement.value().lfs_index, n / 10);
    EXPECT_EQ(placement.value().local_block, n % 10);
  }
  // "The principal disadvantage of chunking is that it requires a priori
  // information on the ultimate size": block 41 overflows.
  EXPECT_EQ(m.append().status().code(), util::ErrorCode::kOutOfSpace);
}

TEST(PlacementMap, RechunkCountsMovedBlocks) {
  PlacementMap m(Distribution::kChunked, 4, 0, 4, 10, 0);
  for (int i = 0; i < 40; ++i) ASSERT_TRUE(m.append().is_ok());
  // Growing chunks 10 -> 20 keeps only chunk 0's first 10 blocks in place.
  EXPECT_EQ(m.rechunk(20), 30u);
  // And appending works again.
  EXPECT_TRUE(m.append().is_ok());
}

TEST(PlacementMap, LfsSpanListsTheLfssAFileCanPlaceOn) {
  // Width 3 from LFS 6 of 8 wraps to LFSs 6, 7, 0; the span lists them in
  // ascending order, and every appended block lands inside it.
  const std::vector<std::uint32_t> wrapped = {0, 6, 7};
  for (Distribution d : {Distribution::kRoundRobin, Distribution::kChunked,
                         Distribution::kHashed}) {
    PlacementMap m(d, 3, 6, 8, /*chunk_blocks=*/4, /*hash_seed=*/5);
    EXPECT_EQ(m.lfs_span(), wrapped) << distribution_name(d);
    std::set<std::uint32_t> span(wrapped.begin(), wrapped.end());
    for (int n = 0; n < 12; ++n) {
      auto placement = m.append();
      ASSERT_TRUE(placement.is_ok()) << distribution_name(d);
      EXPECT_EQ(span.count(placement.value().lfs_index), 1u)
          << distribution_name(d) << " block " << n;
    }
  }
  // Linked files may scatter anywhere, so they span every LFS.
  PlacementMap linked(Distribution::kLinked, 3, 6, 8, 0, 0);
  EXPECT_EQ(linked.lfs_span(),
            (std::vector<std::uint32_t>{0, 1, 2, 3, 4, 5, 6, 7}));
  // A full-width file spans LFS 0..p-1 in order whatever its start.
  PlacementMap full(Distribution::kRoundRobin, 4, 2, 4, 0, 0);
  EXPECT_EQ(full.lfs_span(), (std::vector<std::uint32_t>{0, 1, 2, 3}));
  // Width is clamped to the machine, and so is the span.
  PlacementMap wide(Distribution::kRoundRobin, 9, 1, 2, 0, 0);
  EXPECT_EQ(wide.lfs_span(), (std::vector<std::uint32_t>{0, 1}));
}

TEST(PlacementMap, HashedPlacementsAreDenseAndStable) {
  PlacementMap m(Distribution::kHashed, 8, 0, 8, 0, /*seed=*/42);
  std::vector<Placement> placements;
  for (std::uint64_t n = 0; n < 200; ++n) {
    auto placement = m.append();
    ASSERT_TRUE(placement.is_ok());
    placements.push_back(placement.value());
  }
  // Stable: place(n) returns what append chose.
  for (std::uint64_t n = 0; n < 200; ++n) {
    EXPECT_EQ(m.place(n).value(), placements[n]);
  }
  // Dense per LFS: local numbers 0..count-1 with no gaps.
  std::vector<std::uint32_t> counts(8, 0);
  std::vector<std::set<std::uint32_t>> locals(8);
  for (const auto& placement : placements) {
    counts[placement.lfs_index]++;
    locals[placement.lfs_index].insert(placement.local_block);
  }
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(locals[i].size(), counts[i]);
    if (counts[i] > 0) {
      EXPECT_EQ(*locals[i].rbegin(), counts[i] - 1);
    }
  }
}

TEST(PlacementMap, HashedRarelyCoversPWithPConsecutive) {
  // §3: "the probability that p consecutive blocks would be on p different
  // processors would be extremely low" for hashing.
  PlacementMap m(Distribution::kHashed, 8, 0, 8, 0, 7);
  for (int i = 0; i < 800; ++i) ASSERT_TRUE(m.append().is_ok());
  int full_coverage = 0;
  for (std::uint64_t first = 0; first + 8 <= 800; first += 8) {
    std::set<std::uint32_t> lfs;
    for (std::uint64_t n = first; n < first + 8; ++n) {
      lfs.insert(m.place(n).value().lfs_index);
    }
    if (lfs.size() == 8) ++full_coverage;
  }
  // Expected rate is 8!/8^8 ~ 0.24%; allow generous slack.
  EXPECT_LT(full_coverage, 5);
}

TEST(PlacementMap, LinkedRecordsExplicitPlacements) {
  PlacementMap m(Distribution::kLinked, 4, 0, 4, 0, 0);
  ASSERT_TRUE(m.append_linked({2, 7}).is_ok());
  ASSERT_TRUE(m.append_linked({0, 3}).is_ok());
  EXPECT_EQ(m.place(0).value(), (Placement{2, 7}));
  EXPECT_EQ(m.place(1).value(), (Placement{0, 3}));
  EXPECT_EQ(m.append().status().code(), util::ErrorCode::kInvalidArgument);
  EXPECT_EQ(m.append_linked({9, 0}).code(), util::ErrorCode::kInvalidArgument);
}

TEST(PlacementMap, TruncateShrinksHashedBookkeeping) {
  PlacementMap m(Distribution::kHashed, 4, 0, 4, 0, 3);
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(m.append().is_ok());
  auto p10 = m.place(10).value();
  m.truncate(20);
  EXPECT_EQ(m.size_blocks(), 20u);
  EXPECT_EQ(m.place(10).value(), p10);
  // Re-appending reuses freed local slots (no gaps).
  for (int i = 0; i < 30; ++i) ASSERT_TRUE(m.append().is_ok());
  std::vector<std::set<std::uint32_t>> locals(4);
  for (std::uint64_t n = 0; n < 50; ++n) {
    auto placement = m.place(n).value();
    EXPECT_TRUE(locals[placement.lfs_index].insert(placement.local_block).second)
        << "duplicate local slot after truncate+append";
  }
}

TEST(PlacementMap, SerializationRoundTrip) {
  PlacementMap m(Distribution::kHashed, 8, 2, 8, 0, 99);
  for (int i = 0; i < 64; ++i) ASSERT_TRUE(m.append().is_ok());
  util::Writer w;
  m.encode(w);
  util::Reader r(w.buffer());
  PlacementMap m2 = PlacementMap::decode(r);
  EXPECT_EQ(m2.size_blocks(), m.size_blocks());
  EXPECT_EQ(m2.width(), m.width());
  for (std::uint64_t n = 0; n < 64; ++n) {
    EXPECT_EQ(m2.place(n).value(), m.place(n).value());
  }
}

TEST(PlacementMap, DecodedLinkedMapKeepsItsLocalCounters) {
  // next_local_ is not on the wire; decode derives it for every tabled map,
  // so a restored linked file appends and truncates like the original.
  PlacementMap m(Distribution::kLinked, 4, 0, 4, 0, 0);
  ASSERT_TRUE(m.append_linked({2, 0}).is_ok());
  ASSERT_TRUE(m.append_linked({2, 1}).is_ok());
  ASSERT_TRUE(m.append_linked({0, 0}).is_ok());
  util::Writer w;
  m.encode(w);
  util::Reader r(w.buffer());
  PlacementMap m2 = PlacementMap::decode(r);
  for (std::uint32_t lfs = 0; lfs < 4; ++lfs) {
    EXPECT_EQ(m2.next_local(lfs), m.next_local(lfs)) << "LFS " << lfs;
  }
  m2.truncate(1);
  EXPECT_EQ(m2.next_local(2), 1u);
  EXPECT_EQ(m2.next_local(0), 0u);
}

TEST(PlacementMap, DecodeRejectsMapsPlaceCannotServe) {
  struct Case {
    const char* what;
    std::uint8_t dist;
    std::uint32_t width, total, chunk;
    std::uint64_t size;
    std::vector<std::uint32_t> table_lfs;  ///< LFS of each table entry
  };
  const Case valid = {"valid hashed", 2, 2, 4, 0, 2, {1, 3}};
  const Case corrupt[] = {
      {"unknown distribution", 4, 2, 4, 0, 0, {}},
      {"no LFS", 0, 1, 0, 0, 0, {}},
      {"width 0", 0, 0, 4, 0, 0, {}},
      {"width above total", 0, 5, 4, 0, 0, {}},
      {"chunked without chunk size", 1, 4, 4, 0, 0, {}},
      {"table shorter than the file", 2, 2, 4, 0, 3, {1, 3}},
      {"entry names LFS p", 2, 2, 4, 0, 2, {1, 4}},
  };
  auto decode = [](const Case& c) {
    util::Writer w;
    w.u8(c.dist);
    w.u32(c.width);
    w.u32(c.total);
    w.u32(0);  // start_lfs
    w.u32(c.chunk);
    w.u64(0);  // hash_seed
    w.u64(c.size);
    w.u32(static_cast<std::uint32_t>(c.table_lfs.size()));
    for (std::uint32_t lfs : c.table_lfs) {
      w.u32(lfs);
      w.u32(0);
    }
    util::Reader r(w.buffer());
    return PlacementMap::decode(r);
  };
  EXPECT_EQ(decode(valid).place(1).value(), (Placement{3, 0}));
  for (const Case& c : corrupt) {
    try {
      decode(c);
      ADD_FAILURE() << c.what << ": decoded";
    } catch (const util::StatusError& e) {
      EXPECT_EQ(e.status().code(), util::ErrorCode::kCorrupt) << c.what;
    }
  }
}

}  // namespace
}  // namespace bridge::core
