// Positional-map sidecar format v2: round trip, one whole-file CRC32C that
// catches every single-bit flip, and v1 sidecars read as Corruption.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "format/posmap_serde.h"

namespace scanraw {
namespace {

std::vector<PosmapSidecarEntry> SampleEntries() {
  std::vector<uint32_t> compact;  // 3 fields, 4 rows: 4 slots per row
  for (uint32_t i = 0; i < 16; ++i) compact.push_back(i * 7);
  std::vector<uint32_t> explicit_ends;  // 2 fields, 3 rows: 4 slots per row
  for (uint32_t i = 0; i < 12; ++i) explicit_ends.push_back(i * 5 + 1);
  return {
      {4, std::make_shared<const PositionalMap>(
              PositionalMap::FromOffsets(3, false, std::move(compact)))},
      {9, std::make_shared<const PositionalMap>(PositionalMap::FromOffsets(
              2, true, std::move(explicit_ends)))},
  };
}

PosmapSidecarHeader SampleHeader() {
  PosmapSidecarHeader header;
  header.table = "lineitem";
  header.raw_size = 123456789;
  header.raw_mtime_nanos = 1700000000123456789;
  header.dialect = PosmapDialect{'|', true, '\''};
  return header;
}

TEST(PosmapSerdeTest, RoundTrips) {
  const std::vector<PosmapSidecarEntry> entries = SampleEntries();
  const std::string bytes = EncodePosmapSidecar(SampleHeader(), entries);
  ASSERT_EQ(bytes.rfind("scanraw-posmap v2\n", 0), 0u);
  PosmapSidecarHeader header;
  auto decoded = DecodePosmapSidecar(bytes, &header);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(header.table, "lineitem");
  EXPECT_EQ(header.raw_size, 123456789u);
  EXPECT_EQ(header.raw_mtime_nanos, 1700000000123456789);
  EXPECT_EQ(header.dialect, SampleHeader().dialect);
  ASSERT_EQ(decoded->size(), entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ((*decoded)[i].chunk_index, entries[i].chunk_index);
    EXPECT_EQ((*decoded)[i].map->fields_per_row(),
              entries[i].map->fields_per_row());
    EXPECT_EQ((*decoded)[i].map->explicit_ends(),
              entries[i].map->explicit_ends());
    EXPECT_EQ((*decoded)[i].map->raw_offsets(), entries[i].map->raw_offsets());
  }
}

TEST(PosmapSerdeTest, EveryBitFlipIsRejected) {
  std::string bytes = EncodePosmapSidecar(SampleHeader(), SampleEntries());
  for (size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    bytes[bit / 8] ^= static_cast<char>(1u << (bit % 8));
    PosmapSidecarHeader header;
    auto decoded = DecodePosmapSidecar(bytes, &header);
    ASSERT_TRUE(decoded.status().IsCorruption())
        << "flip of bit " << bit << ": " << decoded.status().ToString();
    bytes[bit / 8] ^= static_cast<char>(1u << (bit % 8));
  }
  PosmapSidecarHeader header;
  EXPECT_TRUE(DecodePosmapSidecar(bytes, &header).ok());
}

TEST(PosmapSerdeTest, VersionOneIsCorruption) {
  std::string bytes = EncodePosmapSidecar(SampleHeader(), SampleEntries());
  bytes.replace(0, 18, "scanraw-posmap v1\n");
  PosmapSidecarHeader header;
  EXPECT_TRUE(DecodePosmapSidecar(bytes, &header).status().IsCorruption());
}

}  // namespace
}  // namespace scanraw
