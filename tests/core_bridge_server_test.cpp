// End-to-end Bridge Server tests: the naive view (Table 1 commands), error
// paths, multiple files, directory behaviour across p LFS instances, and the
// span invariant (a file's constituents live only on the LFSs it spans).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/core/instance.hpp"

namespace bridge::core {
namespace {

SystemConfig test_config(std::uint32_t p) {
  auto cfg = SystemConfig::paper_profile(p, /*data_blocks_per_lfs=*/512);
  return cfg;
}

std::vector<std::byte> record(std::uint32_t tag) {
  std::vector<std::byte> data(efs::kUserDataBytes);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = std::byte(static_cast<std::uint8_t>(tag * 31 + i));
  }
  return data;
}

TEST(BridgeServer, CreateOpenWriteReadSequential) {
  BridgeInstance inst(test_config(4));
  bool done = false;
  inst.run_client("c", [&](sim::Context&, BridgeClient& client) {
    ASSERT_TRUE(client.create("data").is_ok());
    auto open = client.open("data");
    ASSERT_TRUE(open.is_ok());
    EXPECT_EQ(open.value().meta.width, 4u);
    EXPECT_EQ(open.value().meta.size_blocks, 0u);
    for (std::uint32_t i = 0; i < 20; ++i) {
      auto w = client.seq_write(open.value().session, record(i));
      ASSERT_TRUE(w.is_ok());
      EXPECT_EQ(w.value(), i);
    }
    // Re-open to reset the read cursor and refresh the size.
    auto open2 = client.open("data");
    ASSERT_TRUE(open2.is_ok());
    EXPECT_EQ(open2.value().meta.size_blocks, 20u);
    for (std::uint32_t i = 0; i < 20; ++i) {
      auto r = client.seq_read(open2.value().session);
      ASSERT_TRUE(r.is_ok());
      EXPECT_FALSE(r.value().eof);
      EXPECT_EQ(r.value().block_no, i);
      EXPECT_EQ(r.value().data, record(i));
    }
    auto r = client.seq_read(open2.value().session);
    ASSERT_TRUE(r.is_ok());
    EXPECT_TRUE(r.value().eof);
    done = true;
  });
  inst.run();
  EXPECT_TRUE(done);
  EXPECT_TRUE(inst.verify_all_lfs().is_ok());
}

TEST(BridgeServer, BlocksAreActuallyInterleaved) {
  BridgeInstance inst(test_config(4));
  inst.run_client("c", [&](sim::Context&, BridgeClient& client) {
    ASSERT_TRUE(client.create("ileave").is_ok());
    auto open = client.open("ileave");
    ASSERT_TRUE(open.is_ok());
    for (std::uint32_t i = 0; i < 12; ++i) {
      ASSERT_TRUE(client.seq_write(open.value().session, record(i)).is_ok());
    }
  });
  inst.run();
  // 12 blocks round-robin across 4 LFSs: each LFS holds exactly 3 blocks of
  // the constituent file.
  for (std::uint32_t i = 0; i < 4; ++i) {
    const auto& stats = inst.lfs(i).core().op_stats();
    EXPECT_EQ(stats.appends, 3u) << "lfs " << i;
  }
}

TEST(BridgeServer, RandomReadAndWrite) {
  BridgeInstance inst(test_config(3));
  inst.run_client("c", [&](sim::Context&, BridgeClient& client) {
    auto id = client.create("rand");
    ASSERT_TRUE(id.is_ok());
    auto open = client.open("rand");
    ASSERT_TRUE(open.is_ok());
    for (std::uint32_t i = 0; i < 9; ++i) {
      ASSERT_TRUE(client.seq_write(open.value().session, record(i)).is_ok());
    }
    // Random reads in arbitrary order.
    for (std::uint32_t i : {7u, 0u, 4u, 8u, 2u}) {
      auto r = client.random_read(id.value(), i);
      ASSERT_TRUE(r.is_ok());
      EXPECT_EQ(r.value(), record(i));
    }
    // Random overwrite, then read back.
    ASSERT_TRUE(client.random_write(id.value(), 4, record(99)).is_ok());
    auto r = client.random_read(id.value(), 4);
    ASSERT_TRUE(r.is_ok());
    EXPECT_EQ(r.value(), record(99));
    // Appending via random write at size is allowed...
    ASSERT_TRUE(client.random_write(id.value(), 9, record(9)).is_ok());
    // ...but leaving a gap is not.
    EXPECT_EQ(client.random_write(id.value(), 11, record(11)).code(),
              util::ErrorCode::kInvalidArgument);
    // Out-of-range read fails.
    EXPECT_EQ(client.random_read(id.value(), 100).status().code(),
              util::ErrorCode::kInvalidArgument);
  });
  inst.run();
  EXPECT_TRUE(inst.verify_all_lfs().is_ok());
}

TEST(BridgeServer, DeleteRemovesEverywhere) {
  BridgeInstance inst(test_config(4));
  inst.run_client("c", [&](sim::Context&, BridgeClient& client) {
    ASSERT_TRUE(client.create("doomed").is_ok());
    auto open = client.open("doomed");
    ASSERT_TRUE(open.is_ok());
    for (std::uint32_t i = 0; i < 16; ++i) {
      ASSERT_TRUE(client.seq_write(open.value().session, record(i)).is_ok());
    }
    ASSERT_TRUE(client.remove("doomed").is_ok());
    EXPECT_EQ(client.open("doomed").status().code(), util::ErrorCode::kNotFound);
  });
  inst.run();
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(inst.lfs(i).core().file_count(), 0u);
  }
  EXPECT_EQ(inst.server().directory_size(), 0u);
  EXPECT_TRUE(inst.verify_all_lfs().is_ok());
}

TEST(BridgeServer, ErrorPaths) {
  BridgeInstance inst(test_config(2));
  inst.run_client("c", [&](sim::Context&, BridgeClient& client) {
    EXPECT_EQ(client.open("ghost").status().code(), util::ErrorCode::kNotFound);
    EXPECT_EQ(client.remove("ghost").code(), util::ErrorCode::kNotFound);
    ASSERT_TRUE(client.create("dup").is_ok());
    EXPECT_EQ(client.create("dup").status().code(),
              util::ErrorCode::kAlreadyExists);
    EXPECT_EQ(client.create("").status().code(),
              util::ErrorCode::kInvalidArgument);
    EXPECT_EQ(client.seq_read(9999).status().code(), util::ErrorCode::kNotFound);
    // Oversized record rejected.
    std::vector<std::byte> big(efs::kUserDataBytes + 1);
    auto open = client.open("dup");
    ASSERT_TRUE(open.is_ok());
    EXPECT_EQ(client.seq_write(open.value().session, big).status().code(),
              util::ErrorCode::kInvalidArgument);
  });
  inst.run();
}

TEST(BridgeServer, WidthOneFileLivesOnStartLfs) {
  BridgeInstance inst(test_config(4));
  inst.run_client("c", [&](sim::Context&, BridgeClient& client) {
    CreateOptions options;
    options.width = 1;
    options.start_lfs = 2;
    ASSERT_TRUE(client.create("narrow", options).is_ok());
    auto open = client.open("narrow");
    ASSERT_TRUE(open.is_ok());
    for (std::uint32_t i = 0; i < 6; ++i) {
      ASSERT_TRUE(client.seq_write(open.value().session, record(i)).is_ok());
    }
  });
  inst.run();
  EXPECT_EQ(inst.lfs(2).core().op_stats().appends, 6u);
  for (std::uint32_t i : {0u, 1u, 3u}) {
    EXPECT_EQ(inst.lfs(i).core().op_stats().appends, 0u);
  }
}

TEST(BridgeServer, ChunkedAndHashedFilesWork) {
  BridgeInstance inst(test_config(4));
  inst.run_client("c", [&](sim::Context&, BridgeClient& client) {
    CreateOptions chunked;
    chunked.distribution = Distribution::kChunked;
    chunked.chunk_blocks = 5;
    ASSERT_TRUE(client.create("chunky", chunked).is_ok());
    CreateOptions hashed;
    hashed.distribution = Distribution::kHashed;
    hashed.hash_seed = 11;
    ASSERT_TRUE(client.create("hashy", hashed).is_ok());

    for (const char* name : {"chunky", "hashy"}) {
      auto open = client.open(name);
      ASSERT_TRUE(open.is_ok());
      for (std::uint32_t i = 0; i < 18; ++i) {
        ASSERT_TRUE(client.seq_write(open.value().session, record(i)).is_ok());
      }
      auto open2 = client.open(name);
      ASSERT_TRUE(open2.is_ok());
      for (std::uint32_t i = 0; i < 18; ++i) {
        auto r = client.seq_read(open2.value().session);
        ASSERT_TRUE(r.is_ok());
        EXPECT_EQ(r.value().data, record(i)) << name << " block " << i;
      }
    }
    // Chunked file overflows at width * chunk_blocks = 20.
    auto open3 = client.open("chunky");
    ASSERT_TRUE(open3.is_ok());
    ASSERT_TRUE(client.seq_write(open3.value().session, record(18)).is_ok());
    ASSERT_TRUE(client.seq_write(open3.value().session, record(19)).is_ok());
    EXPECT_EQ(client.seq_write(open3.value().session, record(20)).status().code(),
              util::ErrorCode::kOutOfSpace);
  });
  inst.run();
  EXPECT_TRUE(inst.verify_all_lfs().is_ok());
}

TEST(BridgeServer, GetInfoDescribesTheMachine) {
  BridgeInstance inst(test_config(5));
  inst.run_client("c", [&](sim::Context&, BridgeClient& client) {
    auto info = client.get_info();
    ASSERT_TRUE(info.is_ok());
    EXPECT_EQ(info.value().num_lfs, 5u);
    ASSERT_EQ(info.value().lfs_services.size(), 5u);
    for (std::uint32_t i = 0; i < 5; ++i) {
      EXPECT_TRUE(info.value().lfs_services[i].valid());
      EXPECT_EQ(info.value().lfs_nodes[i], i);
    }
  });
  inst.run();
}

TEST(BridgeServer, TwoClientsIndependentSessions) {
  BridgeInstance inst(test_config(4));
  inst.run_client("writer", [&](sim::Context&, BridgeClient& client) {
    ASSERT_TRUE(client.create("shared").is_ok());
    auto open = client.open("shared");
    ASSERT_TRUE(open.is_ok());
    for (std::uint32_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(client.seq_write(open.value().session, record(i)).is_ok());
    }
  });
  inst.run();  // writer completes first
  int reads_ok = 0;
  for (int c = 0; c < 2; ++c) {
    inst.run_client("reader" + std::to_string(c),
                    [&](sim::Context&, BridgeClient& client) {
                      auto open = client.open("shared");
                      ASSERT_TRUE(open.is_ok());
                      for (std::uint32_t i = 0; i < 10; ++i) {
                        auto r = client.seq_read(open.value().session);
                        ASSERT_TRUE(r.is_ok());
                        if (r.value().data == record(i)) ++reads_ok;
                      }
                    });
  }
  inst.run();
  EXPECT_EQ(reads_ok, 20);
}

TEST(BridgeServer, SingleLfsDegeneratesGracefully) {
  BridgeInstance inst(test_config(1));
  bool done = false;
  inst.run_client("c", [&](sim::Context&, BridgeClient& client) {
    ASSERT_TRUE(client.create("solo").is_ok());
    auto open = client.open("solo");
    ASSERT_TRUE(open.is_ok());
    for (std::uint32_t i = 0; i < 8; ++i) {
      ASSERT_TRUE(client.seq_write(open.value().session, record(i)).is_ok());
    }
    auto open2 = client.open("solo");
    for (std::uint32_t i = 0; i < 8; ++i) {
      auto r = client.seq_read(open2.value().session);
      ASSERT_TRUE(r.is_ok());
      EXPECT_EQ(r.value().data, record(i));
    }
    done = true;
  });
  inst.run();
  EXPECT_TRUE(done);
}

// --- Span invariant ---------------------------------------------------------
//
// Create, Delete, DeleteMany and Open's size refresh reach only the LFSs a
// file spans.  Width 3 from LFS 6 of 8 wraps to LFSs 6, 7, 0; a linked file
// may scatter anywhere, so it spans all 8.

constexpr std::uint32_t kSpanP = 8;

CreateOptions span_options(Distribution d) {
  CreateOptions options;
  options.distribution = d;
  options.width = 3;
  options.start_lfs = 6;
  options.chunk_blocks = 4;  // chunked capacity 12
  options.hash_seed = 5;
  return options;
}

std::vector<std::uint32_t> expected_span(Distribution d) {
  if (d == Distribution::kLinked) return {0, 1, 2, 3, 4, 5, 6, 7};
  return {0, 6, 7};
}

/// `per_lfs` constituents on every spanned LFS, none anywhere else.
void expect_constituents(BridgeInstance& inst,
                         const std::vector<std::uint32_t>& span,
                         std::size_t per_lfs) {
  for (std::uint32_t i = 0; i < inst.num_lfs(); ++i) {
    bool spanned = std::find(span.begin(), span.end(), i) != span.end();
    EXPECT_EQ(inst.lfs(i).core().file_count(), spanned ? per_lfs : 0u)
        << "lfs " << i;
  }
}

class SpanInvariant : public ::testing::TestWithParam<Distribution> {};

TEST_P(SpanInvariant, ConstituentsLiveOnlyOnTheSpan) {
  const Distribution d = GetParam();
  const auto span = expected_span(d);
  BridgeInstance inst(test_config(kSpanP));

  BridgeFileId id = 0;
  inst.run_client("create", [&](sim::Context&, BridgeClient& client) {
    auto created = client.create("f", span_options(d));
    ASSERT_TRUE(created.is_ok()) << created.status().to_string();
    id = created.value();
  });
  inst.run();
  expect_constituents(inst, span, 1);

  inst.run_client("io", [&](sim::Context&, BridgeClient& client) {
    auto open = client.open("f");
    ASSERT_TRUE(open.is_ok());
    for (std::uint32_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(client.seq_write(open.value().session, record(i)).is_ok());
    }
    auto reopen = client.open("f");
    ASSERT_TRUE(reopen.is_ok());
    EXPECT_EQ(reopen.value().meta.size_blocks, 10u);
    auto truncated = client.truncate(id, 4);
    ASSERT_TRUE(truncated.is_ok()) << truncated.status().to_string();
    EXPECT_EQ(truncated.value(), 4u);
    auto shrunk = client.open("f");
    ASSERT_TRUE(shrunk.is_ok());
    EXPECT_EQ(shrunk.value().meta.size_blocks, 4u);
    for (std::uint32_t i = 0; i < 4; ++i) {
      auto r = client.seq_read(shrunk.value().session);
      ASSERT_TRUE(r.is_ok());
      EXPECT_EQ(r.value().data, record(i));
    }
    EXPECT_TRUE(client.seq_read(shrunk.value().session).value().eof);
  });
  inst.run();
  expect_constituents(inst, span, 1);
  EXPECT_TRUE(inst.verify_all_lfs().is_ok());

  inst.run_client("delete", [&](sim::Context&, BridgeClient& client) {
    ASSERT_TRUE(client.remove("f").is_ok());
  });
  inst.run();
  expect_constituents(inst, span, 0);
  EXPECT_TRUE(inst.verify_all_lfs().is_ok());

  inst.run_client("create-two", [&](sim::Context&, BridgeClient& client) {
    for (const char* name : {"g", "h"}) {
      ASSERT_TRUE(client.create(name, span_options(d)).is_ok());
      auto open = client.open(name);
      ASSERT_TRUE(open.is_ok());
      for (std::uint32_t i = 0; i < 5; ++i) {
        ASSERT_TRUE(client.seq_write(open.value().session, record(i)).is_ok());
      }
    }
  });
  inst.run();
  expect_constituents(inst, span, 2);

  inst.run_client("delete-many", [&](sim::Context&, BridgeClient& client) {
    ASSERT_TRUE(client.remove_many({"g", "h"}).is_ok());
  });
  inst.run();
  expect_constituents(inst, span, 0);
  EXPECT_EQ(inst.server().directory_size(), 0u);
  EXPECT_TRUE(inst.verify_all_lfs().is_ok());
}

INSTANTIATE_TEST_SUITE_P(
    Distributions, SpanInvariant,
    ::testing::Values(Distribution::kRoundRobin, Distribution::kChunked,
                      Distribution::kHashed, Distribution::kLinked),
    [](const ::testing::TestParamInfo<Distribution>& info) {
      switch (info.param) {
        case Distribution::kRoundRobin: return std::string("RoundRobin");
        case Distribution::kChunked: return std::string("Chunked");
        case Distribution::kHashed: return std::string("Hashed");
        case Distribution::kLinked: return std::string("Linked");
      }
      return std::string("Unknown");
    });

/// First name of the form `prefix<i>` whose directory home is `home`.
std::string name_with_home(const std::string& prefix, std::uint32_t home,
                           std::uint32_t servers) {
  for (int i = 0;; ++i) {
    std::string name = prefix + std::to_string(i);
    if (directory_home(name, servers) == home) return name;
  }
}

TEST(SpanInvariantRouted, CrossServerRenameThenDeleteOnNewHome) {
  auto cfg = test_config(kSpanP);
  cfg.num_bridge_servers = 2;
  BridgeInstance inst(cfg);
  const auto span = expected_span(Distribution::kRoundRobin);
  const std::string from = name_with_home("from", 0, 2);
  const std::string to = name_with_home("to", 1, 2);

  inst.run_client("c", [&](sim::Context&, BridgeClient& client) {
    ASSERT_TRUE(client.create(from, span_options(Distribution::kRoundRobin))
                    .is_ok());
    auto open = client.open(from);
    ASSERT_TRUE(open.is_ok());
    for (std::uint32_t i = 0; i < 6; ++i) {
      ASSERT_TRUE(client.seq_write(open.value().session, record(i)).is_ok());
    }
    auto renamed = client.rename(from, to);
    ASSERT_TRUE(renamed.is_ok()) << renamed.status().to_string();
    EXPECT_EQ(file_id_home(renamed.value()), 1u);
    auto reopen = client.open(to);
    ASSERT_TRUE(reopen.is_ok());
    EXPECT_EQ(reopen.value().meta.size_blocks, 6u);
  });
  inst.run();
  EXPECT_EQ(inst.server(1).stats().renames_in, 1u);
  expect_constituents(inst, span, 1);

  inst.run_client("rm", [&](sim::Context&, BridgeClient& client) {
    ASSERT_TRUE(client.remove(to).is_ok());
  });
  inst.run();
  expect_constituents(inst, span, 0);
  EXPECT_EQ(inst.server(0).directory_size(), 0u);
  EXPECT_EQ(inst.server(1).directory_size(), 0u);
  EXPECT_TRUE(inst.verify_all_lfs().is_ok());
}

}  // namespace
}  // namespace bridge::core
