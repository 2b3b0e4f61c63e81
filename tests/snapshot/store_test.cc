// SnapshotStore: atomic commits, keep-last-N rotation, sequence numbers
// that survive restarts, and the newest-first recovery walk (a corrupted
// newest file degrades to the previous rotation instead of failing).

#include "felip/snapshot/store.h"

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "felip/storage/storage.h"

namespace felip::snapshot {
namespace {

namespace fs = std::filesystem;

class SnapshotStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("felip_store_" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir() const { return dir_.string(); }

  std::vector<uint8_t> Bytes(uint8_t fill, size_t n = 64) const {
    return std::vector<uint8_t>(n, fill);
  }

  fs::path dir_;
};

TEST_F(SnapshotStoreTest, WriteCommitsAndReadsBack) {
  SnapshotStore store(dir(), 3);
  const StatusOr<std::string> path = store.Write(Bytes(7));
  ASSERT_TRUE(path.ok()) << path.status().ToString();
  const StatusOr<std::vector<uint8_t>> read = storage::ReadFile(*path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, Bytes(7));
  // No tmp file survives a successful commit.
  size_t files = 0;
  for (const auto& entry : fs::directory_iterator(dir())) {
    ++files;
    EXPECT_EQ(entry.path().extension(), ".felip") << entry.path();
  }
  EXPECT_EQ(files, 1u);
}

TEST_F(SnapshotStoreTest, ListNewestFirstOrdersBySequence) {
  SnapshotStore store(dir(), 10);
  std::vector<std::string> written;
  for (uint8_t i = 0; i < 4; ++i) {
    const auto path = store.Write(Bytes(i));
    ASSERT_TRUE(path.ok());
    written.push_back(*path);
  }
  const std::vector<std::string> listed = store.ListNewestFirst();
  ASSERT_EQ(listed.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(listed[i], written[written.size() - 1 - i]);
  }
}

TEST_F(SnapshotStoreTest, RotationKeepsOnlyLastN) {
  SnapshotStore store(dir(), 2);
  for (uint8_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(store.Write(Bytes(i)).ok());
  }
  const std::vector<std::string> listed = store.ListNewestFirst();
  ASSERT_EQ(listed.size(), 2u);
  // Newest content wins: the survivors are writes #5 and #4.
  EXPECT_EQ(*storage::ReadFile(listed[0]), Bytes(4));
  EXPECT_EQ(*storage::ReadFile(listed[1]), Bytes(3));
}

TEST_F(SnapshotStoreTest, SequenceResumesPastExistingFilesOnRestart) {
  std::string first;
  {
    SnapshotStore store(dir(), 5);
    ASSERT_TRUE(store.Write(Bytes(1)).ok());
    const auto second = store.Write(Bytes(2));
    ASSERT_TRUE(second.ok());
    first = *second;
  }
  // A second store over the same directory must never clobber committed
  // files: its first write sequences past everything on disk.
  SnapshotStore restarted(dir(), 5);
  const auto next = restarted.Write(Bytes(3));
  ASSERT_TRUE(next.ok());
  EXPECT_NE(*next, first);
  const std::vector<std::string> listed = restarted.ListNewestFirst();
  ASSERT_EQ(listed.size(), 3u);
  EXPECT_EQ(*storage::ReadFile(listed[0]), Bytes(3));
}

TEST_F(SnapshotStoreTest, ForeignFilesAreIgnored) {
  SnapshotStore store(dir(), 3);
  ASSERT_TRUE(store.Write(Bytes(1)).ok());
  // Unrelated files in the directory must not confuse listing/rotation.
  std::FILE* f =
      std::fopen((fs::path(dir()) / "notes.txt").string().c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("operator scribbles", f);
  std::fclose(f);
  EXPECT_EQ(store.ListNewestFirst().size(), 1u);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(store.Write(Bytes(2)).ok());
  EXPECT_TRUE(fs::exists(fs::path(dir()) / "notes.txt"));
}

TEST_F(SnapshotStoreTest, CreatesMissingDirectory) {
  const std::string nested = (fs::path(dir()) / "a" / "b").string();
  SnapshotStore store(nested, 1);
  EXPECT_TRUE(store.Write(Bytes(9)).ok());
  EXPECT_TRUE(fs::exists(nested));
}

TEST(SnapshotStoreDeathTest, KeepZeroAborts) {
  EXPECT_DEATH(SnapshotStore("/tmp/felip_store_death", 0), "keep");
}

}  // namespace
}  // namespace felip::snapshot
