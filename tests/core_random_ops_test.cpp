// Randomized property test at the Bridge level: random multi-file operation
// sequences through the naive interface, validated against an in-memory
// reference model, across distributions and machine sizes.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <ostream>
#include <string>

#include "src/core/instance.hpp"
#include "src/sim/rng.hpp"

namespace bridge::core {
namespace {

std::vector<std::byte> payload_for(std::uint64_t tag) {
  std::vector<std::byte> data(efs::kUserDataBytes);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = std::byte(static_cast<std::uint8_t>((tag * 0x45D9 + i * 7) & 0xFF));
  }
  return data;
}

struct Params {
  std::uint64_t seed;
  std::uint32_t p;
  Distribution distribution;
};

/// Print a case as its name, e.g. "s14_p4_hashed".  gtest uses this for the
/// test name and its GetParam() note instead of the struct's raw bytes,
/// whose padding is indeterminate.
void PrintTo(const Params& c, std::ostream* os) {
  std::string dist = distribution_name(c.distribution);
  std::replace(dist.begin(), dist.end(), '-', '_');
  *os << "s" << c.seed << "_p" << c.p << "_" << dist;
}

class BridgeRandomOps : public ::testing::TestWithParam<Params> {};

TEST_P(BridgeRandomOps, MatchesReferenceModel) {
  auto param = GetParam();
  auto config = SystemConfig::paper_profile(param.p, 2048);
  BridgeInstance inst(config);

  struct ModelFile {
    BridgeFileId id = 0;
    std::vector<std::uint64_t> blocks;  // tag per block
  };

  inst.run_client("fuzzer", [&](sim::Context&, BridgeClient& client) {
    sim::Rng rng(param.seed);
    std::map<std::string, ModelFile> model;
    std::uint64_t next_tag = 1;
    int next_name = 0;

    CreateOptions options;
    options.distribution = param.distribution;
    if (param.distribution == Distribution::kChunked) {
      options.chunk_blocks = 64;
    }
    options.hash_seed = param.seed;

    for (int op = 0; op < 300; ++op) {
      std::uint32_t action = static_cast<std::uint32_t>(rng.next_below(100));
      if (action < 10 && model.size() < 6) {
        std::string name = "f" + std::to_string(next_name++);
        auto id = client.create(name, options);
        ASSERT_TRUE(id.is_ok());
        model[name] = ModelFile{id.value(), {}};
      } else if (action < 18 && !model.empty()) {
        auto it = model.begin();
        std::advance(it, static_cast<long>(rng.next_below(model.size())));
        ASSERT_TRUE(client.remove(it->first).is_ok());
        model.erase(it);
      } else if (action < 60 && !model.empty()) {
        // Append via random_write at size (or via a session write).
        auto it = model.begin();
        std::advance(it, static_cast<long>(rng.next_below(model.size())));
        std::uint64_t tag = next_tag++;
        auto status = client.random_write(it->second.id,
                                          it->second.blocks.size(),
                                          payload_for(tag));
        if (status.is_ok()) {
          it->second.blocks.push_back(tag);
        } else {
          ASSERT_EQ(status.code(), util::ErrorCode::kOutOfSpace);
        }
      } else if (action < 75 && !model.empty()) {
        // Overwrite a random block.
        auto it = model.begin();
        std::advance(it, static_cast<long>(rng.next_below(model.size())));
        if (!it->second.blocks.empty()) {
          auto block = rng.next_below(it->second.blocks.size());
          std::uint64_t tag = next_tag++;
          ASSERT_TRUE(
              client.random_write(it->second.id, block, payload_for(tag))
                  .is_ok());
          it->second.blocks[block] = tag;
        }
      } else if (!model.empty()) {
        // Random read and compare.
        auto it = model.begin();
        std::advance(it, static_cast<long>(rng.next_below(model.size())));
        if (!it->second.blocks.empty()) {
          auto block = rng.next_below(it->second.blocks.size());
          auto r = client.random_read(it->second.id, block);
          ASSERT_TRUE(r.is_ok());
          EXPECT_EQ(r.value(), payload_for(it->second.blocks[block]));
        }
      }
    }

    // Full sequential readback of every surviving file.
    for (auto& [name, file] : model) {
      auto open = client.open(name);
      ASSERT_TRUE(open.is_ok());
      ASSERT_EQ(open.value().meta.size_blocks, file.blocks.size()) << name;
      for (std::size_t i = 0; i < file.blocks.size(); ++i) {
        auto r = client.seq_read(open.value().session);
        ASSERT_TRUE(r.is_ok());
        EXPECT_EQ(r.value().data, payload_for(file.blocks[i]))
            << name << " block " << i;
      }
      auto eof = client.seq_read(open.value().session);
      ASSERT_TRUE(eof.is_ok());
      EXPECT_TRUE(eof.value().eof);
    }
  });
  inst.run();
  ASSERT_FALSE(inst.runtime().scheduler().deadlocked());
  EXPECT_TRUE(inst.verify_all_lfs().is_ok());
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndShapes, BridgeRandomOps,
    ::testing::Values(Params{11, 4, Distribution::kRoundRobin},
                      Params{12, 8, Distribution::kRoundRobin},
                      Params{13, 3, Distribution::kRoundRobin},
                      Params{14, 4, Distribution::kHashed},
                      Params{15, 4, Distribution::kChunked},
                      Params{16, 4, Distribution::kLinked},
                      Params{17, 1, Distribution::kRoundRobin}),
    ::testing::PrintToStringParamName());

}  // namespace
}  // namespace bridge::core
