// Wire golden bytes: one populated instance of every Bridge and EFS wire
// struct (every field non-default, every vector at least two long) encodes
// to a fixed byte string, and decoding those bytes then re-encoding them
// gives the same bytes.  The strings pin the wire format itself: a codec
// change that moves a field, widens an integer or drops a length prefix
// fails here before it moves any virtual time.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/protocol.hpp"
#include "src/efs/protocol.hpp"

namespace bridge::core {
namespace {

std::string to_hex(std::span<const std::byte> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (std::byte b : bytes) {
    auto v = static_cast<std::uint8_t>(b);
    out += kDigits[v >> 4];
    out += kDigits[v & 0xF];
  }
  return out;
}

std::vector<std::byte> data(std::initializer_list<std::uint8_t> values) {
  std::vector<std::byte> out;
  for (auto v : values) out.push_back(std::byte{v});
  return out;
}

sim::Address address(std::uint64_t box, std::uint32_t node) {
  sim::Address a;
  a.box = reinterpret_cast<sim::Mailbox*>(static_cast<std::uintptr_t>(box));
  a.node = node;
  return a;
}

template <typename T>
void expect_golden(const T& msg, std::string_view hex) {
  auto bytes = util::encode_to_bytes(msg);
  EXPECT_EQ(to_hex(bytes), hex);
  auto back = util::decode_from_bytes<T>(bytes);
  EXPECT_EQ(to_hex(util::encode_to_bytes(back)), to_hex(bytes));
}

FileMeta file_meta() {
  FileMeta m;
  m.id = 0x01000401;
  m.name = "ab";
  m.distribution = 2;
  m.width = 3;
  m.start_lfs = 4;
  m.chunk_blocks = 5;
  m.size_blocks = 0x0102030405060708;
  m.lfs_file_id = 6;
  return m;
}

TEST(WireGolden, EfsMessages) {
  using namespace efs;
  expect_golden(CreateRequest{0x11223344}, "44332211");
  expect_golden(DeleteRequest{0x11223345}, "45332211");
  expect_golden(InfoRequest{0x11223346}, "46332211");
  expect_golden(InfoResponse{7, 8}, "0700000008000000");
  expect_golden(WriteRequest{9, 10, data({1, 2, 3})},
                "090000000a00000003000000010203");
  expect_golden(ReadManyRequest{11, {12, 13}},
                "0b000000020000000c0000000d000000");
  expect_golden(ReadManyResponse{{data({1, 2}), data({3})}},
                "020000000200000001020100000003");
  expect_golden(WriteManyRequest{14, {15, 16}, {data({4}), data({5, 6})}},
                "0e000000020000000f000000100000000200000001000000040200000005"
                "06");
  expect_golden(TruncateRequest{17, 18}, "1100000012000000");
  expect_golden(TruncateResponse{19}, "13000000");
}

TEST(WireGolden, BridgeFileMessages) {
  expect_golden(file_meta(),
                "01040001020000006162020300000004000000050000000807060504030201"
                "06000000");
  expect_golden(CreateFileRequest{"cd", 1, 2, 3, 4, 0x0a0b0c0d0e0f1011},
                "0200000063640102000000030000000400000011100f0e0d0c0b0a");
  expect_golden(CreateFileResponse{0x01000402}, "02040001");
  expect_golden(DeleteFileRequest{"ef"}, "020000006566");
  expect_golden(DeleteManyRequest{{"g", "hi"}}, "020000000100000067020000006869");
  expect_golden(OpenRequest{"jk"}, "020000006a6b");
  expect_golden(OpenResponse{file_meta(), 0x0102000000000005},
                "01040001020000006162020300000004000000050000000807060504030201"
                "060000000500000000000201");
  expect_golden(RenameRequest{"lm", "nop"},
                "020000006c6d030000006e6f70");
  expect_golden(RenameResponse{0x01000403}, "03040001");
  expect_golden(ListRequest{"q"}, "0100000071");
  expect_golden(ListEntry{"rs", 0x01000404, 20, 3},
                "02000000727304040001140000000000000003");
  expect_golden(ListResponse{{ListEntry{"t", 1, 2, 1}, ListEntry{"u", 3, 4, 2}}},
                "0200000001000000740100000002000000000000000101000000750300000004"
                "0000000000000002");
  expect_golden(TruncateFileRequest{0x01000405, 21},
                "05040001" "1500000000000000");
  expect_golden(TruncateFileResponse{22}, "1600000000000000");
  expect_golden(ResolveRequest{0x01000406, 23, 24},
                "06040001" "1700000000000000" "18000000");
  expect_golden(ResolveResponse{{Placement{1, 2}, Placement{3, 4}}},
                "0200000001000000020000000300000004000000");
  GetInfoResponse info;
  info.num_lfs = 2;
  info.lfs_services = {address(0x1122334455667788, 5),
                       address(0x0102030405060708, 6)};
  info.lfs_nodes = {7, 8};
  expect_golden(info,
                "02000000887766554433221105000000080706050403020106000000"
                "0700000008000000");
}

TEST(WireGolden, BridgeNaiveMessages) {
  expect_golden(SeqReadRequest{0x0102000000000007}, "0700000000000201");
  expect_golden(SeqReadResponse{true, 25, data({1, 2})},
                "01190000000000000002000000" "0102");
  expect_golden(RandomReadRequest{0x01000407, 26},
                "07040001" "1a00000000000000");
  expect_golden(RandomReadResponse{data({3, 4})}, "020000000304");
  expect_golden(SeqWriteRequest{0x0102000000000008, data({5, 6})},
                "0800000000000201" "020000000506");
  expect_golden(SeqWriteResponse{27}, "1b00000000000000");
  expect_golden(RandomWriteRequest{0x01000408, 28, data({7, 8})},
                "08040001" "1c00000000000000" "020000000708");
  expect_golden(SeqReadManyRequest{0x0102000000000009, 29},
                "0900000000000201" "1d000000");
  expect_golden(SeqReadManyResponse{true, 30, {data({1}), data({2, 3})}},
                "01" "1e00000000000000" "02000000" "0100000001" "020000000203");
  expect_golden(SeqWriteManyRequest{0x010200000000000a, {data({4}), data({5})}},
                "0a00000000000201" "02000000" "0100000004" "0100000005");
  expect_golden(SeqWriteManyResponse{31, 2}, "1f00000000000000" "02000000");
  expect_golden(SeqSeekRequest{0x010200000000000b, 32},
                "0b00000000000201" "2000000000000000");
  expect_golden(SeqSeekResponse{33}, "2100000000000000");
  expect_golden(RandomReadManyRequest{0x01000409, 34, 35},
                "09040001" "2200000000000000" "23000000");
  expect_golden(RandomReadManyResponse{{data({6}), data({7, 8})}},
                "02000000" "0100000006" "020000000708");
}

TEST(WireGolden, BridgeParallelAndServerMessages) {
  expect_golden(ParallelOpenRequest{0x010200000000000c,
                                    {address(0x0a0b0c0d0e0f1011, 1),
                                     address(0x1213141516171819, 2)}},
                "0c00000000000201" "02000000" "11100f0e0d0c0b0a01000000"
                "191817161514131202000000");
  expect_golden(ParallelOpenResponse{0x010200000000000d}, "0d00000000000201");
  expect_golden(ParallelReadRequest{0x010200000000000e}, "0e00000000000201");
  expect_golden(ParallelReadResponse{36, true}, "24000000" "01");
  expect_golden(ParallelWriteRequest{0x010200000000000f}, "0f00000000000201");
  expect_golden(ParallelWriteResponse{37}, "25000000");
  expect_golden(WorkerData{true, 38, data({9, 10})},
                "01" "2600000000000000" "02000000090a");
  expect_golden(WorkerGiveRequest{39}, "2700000000000000");
  expect_golden(WorkerGiveResponse{true, data({11, 12})},
                "01" "020000000b0c");

  // A hashed map with a placement table, at a start and chunk size that are
  // not the defaults.
  PlacementMap placement(Distribution::kHashed, 3, 1, 4, 5, 99);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(placement.append().is_ok());
  RenameInstallRequest install{40, "vw", 41, placement};
  expect_golden(install,
                "2800000000000000" "020000007677" "29000000"
                "02" "03000000" "04000000" "01000000" "05000000"
                "6300000000000000" "0300000000000000" "03000000"
                "0300000000000000" "0100000000000000" "0100000001000000");
  RenameAck ack{42, 6, 0x0100040a, "xy"};
  expect_golden(ack, "2a00000000000000" "06" "0a040001" "02000000" "7879");
}

}  // namespace
}  // namespace bridge::core
