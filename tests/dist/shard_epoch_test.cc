// The shard epoch file: each incarnation of a shard takes a strictly
// larger epoch, so a running root can drop frames from dead incarnations.
// A damaged file must stop the shard instead of restarting it at an epoch
// the root has already seen.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "felip/dist/accumulator.h"

namespace felip::dist {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  const std::string dir =
      (fs::path(::testing::TempDir()) / "felip_shard_epoch" / name).string();
  fs::remove_all(dir);
  return dir;
}

void WriteEpochFile(const std::string& dir, const std::string& text) {
  fs::create_directories(dir);
  std::ofstream out(fs::path(dir) / "EPOCH",
                    std::ios::binary | std::ios::trunc);
  out << text;
}

TEST(ShardEpochTest, FirstIncarnationIsOne) {
  const StatusOr<uint64_t> epoch = BumpShardEpoch(FreshDir("first"));
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  EXPECT_EQ(*epoch, 1u);
}

TEST(ShardEpochTest, EveryRestartIsStrictlyLarger) {
  const std::string dir = FreshDir("restarts");
  uint64_t previous = 0;
  for (int restart = 0; restart < 5; ++restart) {
    const StatusOr<uint64_t> epoch = BumpShardEpoch(dir);
    ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
    EXPECT_GT(*epoch, previous);
    previous = *epoch;
  }
  // A stored value carries on from where it stands.
  WriteEpochFile(dir, "123");
  const StatusOr<uint64_t> epoch = BumpShardEpoch(dir);
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  EXPECT_EQ(*epoch, 124u);
}

TEST(ShardEpochTest, DamagedFileIsDataLoss) {
  // "12s" was "123": parsing its prefix would restart the shard at 13, an
  // epoch the root already saw. UINT64_MAX has no successor. Neither may
  // be rewritten.
  for (const std::string text :
       {"12s", "", "x1", "1 ", "18446744073709551615",
        "18446744073709551616"}) {
    const std::string dir = FreshDir("damaged");
    WriteEpochFile(dir, text);
    const StatusOr<uint64_t> epoch = BumpShardEpoch(dir);
    ASSERT_FALSE(epoch.ok()) << "'" << text << "' read as " << *epoch;
    EXPECT_EQ(epoch.status().code(), StatusCode::kDataLoss) << text;
    std::ifstream in(fs::path(dir) / "EPOCH", std::ios::binary);
    const std::string stored((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
    EXPECT_EQ(stored, text) << "a damaged epoch file was rewritten";
  }
}

}  // namespace
}  // namespace felip::dist
