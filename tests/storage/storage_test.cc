// The storage module: whole-file reads, atomic commits, and the file
// series every durable artifact is named by — crash debris is invisible
// to listing and resume, and suffixes that share a sequence space resume
// past each other.

#include "felip/storage/storage.h"

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace felip::storage {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  const std::string dir =
      (fs::path(::testing::TempDir()) / "felip_storage" / name).string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

void Touch(const std::string& dir, const std::string& name) {
  std::FILE* f = std::fopen((fs::path(dir) / name).string().c_str(), "wb");
  ASSERT_NE(f, nullptr) << name;
  std::fclose(f);
}

std::vector<std::string> Names(const std::vector<SeriesFile>& files) {
  std::vector<std::string> names;
  for (const SeriesFile& file : files) {
    names.push_back(fs::path(file.path).filename().string());
  }
  return names;
}

TEST(ReadFileTest, MissingFileIsNotFound) {
  const auto read = ReadFile("/definitely/not/here.felip");
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kNotFound);
}

TEST(WriteFileAtomicTest, UnwritablePathFailsWithoutTmpDebris) {
  const Status status =
      WriteFileAtomic("/nonexistent-dir/snapshot.felip", {1, 2, 3});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_FALSE(fs::exists("/nonexistent-dir/snapshot.felip.tmp"));
}

TEST(WriteFileAtomicTest, OverwritesExistingFileAtomically) {
  const std::string path =
      (fs::path(::testing::TempDir()) / "felip_atomic.felip").string();
  ASSERT_TRUE(WriteFileAtomic(path, {1, 1, 1}).ok());
  ASSERT_TRUE(WriteFileAtomic(path, {2, 2}).ok());
  const auto read = ReadFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, (std::vector<uint8_t>{2, 2}));
  std::remove(path.c_str());
}

TEST(FileSeriesTest, TmpDebrisOfACrashedCommitIsIgnored) {
  // A commit that died before its rename leaves "<name>.tmp" behind. It
  // is not a series file: listing skips it, and it does not advance the
  // sequence, because the commit it belonged to never happened.
  const std::string dir = FreshDir("tmp_debris");
  {
    FileSeries series(dir, "snapshot-", {".felip"}, 3);
    ASSERT_TRUE(series.Commit(1, {1}).ok());
  }
  Touch(dir, "snapshot-7.felip.tmp");
  FileSeries series(dir, "snapshot-", {".felip"}, 3);
  EXPECT_EQ(Names(series.List()),
            (std::vector<std::string>{"snapshot-1.felip"}));
  EXPECT_EQ(series.next_seq(), 2u);
  const StatusOr<std::string> path = series.Commit(series.next_seq(), {2});
  ASSERT_TRUE(path.ok()) << path.status().ToString();
  EXPECT_EQ(fs::path(*path).filename(), "snapshot-2.felip");
  EXPECT_TRUE(fs::exists(fs::path(dir) / "snapshot-7.felip.tmp"));
}

TEST(FileSeriesTest, OnlyACommitCreatesTheDirectory) {
  // Listing a series whose directory is missing reads nothing and
  // writes nothing; the first commit creates the directory and its
  // missing parents.
  const std::string parent = FreshDir("missing_dir");
  const std::string dir = (fs::path(parent) / "a" / "b").string();
  FileSeries series(dir, "snapshot-", {".felip"}, 3);
  EXPECT_TRUE(series.List().empty());
  EXPECT_EQ(series.next_seq(), 1u);
  EXPECT_FALSE(fs::exists(fs::path(parent) / "a"));
  const StatusOr<std::string> path = series.Commit(1, {1});
  ASSERT_TRUE(path.ok()) << path.status().ToString();
  EXPECT_EQ(Names(series.List()),
            (std::vector<std::string>{"snapshot-1.felip"}));
}

TEST(FileSeriesTest, InterleavedOpenAndSealedFilesShareOneSequence) {
  // The report log's sealed .flog and open .open segments take numbers
  // from one sequence: a resumed writer must pass the highest of either.
  const std::string open_last = FreshDir("open_last");
  for (const char* name : {"reportlog-1.flog", "reportlog-2.open",
                           "reportlog-3.flog", "reportlog-4.open"}) {
    Touch(open_last, name);
  }
  const FileSeries a(open_last, "reportlog-", {".flog", ".open"}, 0);
  EXPECT_EQ(Names(a.List()),
            (std::vector<std::string>{"reportlog-1.flog", "reportlog-2.open",
                                      "reportlog-3.flog",
                                      "reportlog-4.open"}));
  EXPECT_EQ(a.next_seq(), 5u);

  const std::string sealed_last = FreshDir("sealed_last");
  for (const char* name :
       {"reportlog-2.open", "reportlog-5.open", "reportlog-6.flog"}) {
    Touch(sealed_last, name);
  }
  const FileSeries b(sealed_last, "reportlog-", {".flog", ".open"}, 0);
  EXPECT_EQ(b.next_seq(), 7u);
  EXPECT_EQ(b.PathOf(7, ".open"),
            (fs::path(sealed_last) / "reportlog-7.open").string());
}

}  // namespace
}  // namespace felip::storage
