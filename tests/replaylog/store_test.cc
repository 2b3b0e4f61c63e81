// LogWriter file discipline: .open/.flog lifecycle, per-record
// durability, size-based rotation, keep-N pruning, sequence resume past
// crash leftovers, and the rule that a crashed writer's .open is never
// appended to or renamed — ".flog = complete" stays true.

#include "felip/replaylog/store.h"

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "felip/replaylog/format.h"
#include "felip/storage/storage.h"

namespace felip::replaylog {
namespace {

namespace fs = std::filesystem;

std::vector<uint8_t> MakePlan() { return {0x01, 0x02, 0x03}; }

std::string FreshDir(const std::string& name) {
  const std::string dir =
      (fs::path(::testing::TempDir()) / "felip_replaylog_store" / name)
          .string();
  fs::remove_all(dir);
  return dir;
}

Status AppendN(LogWriter* writer, int n, uint64_t first_key = 100) {
  const std::vector<uint8_t> payload = {9, 9, 9, 9};
  for (int i = 0; i < n; ++i) {
    FELIP_RETURN_IF_ERROR(writer->Append(
        RecordType::kBatch, first_key + static_cast<uint64_t>(i), payload));
  }
  return Status::Ok();
}

// Parses one segment file and returns its record keys (empty on damage
// after the last good boundary — damage itself is the parser's business).
std::vector<uint64_t> SegmentKeys(const std::string& path) {
  StatusOr<std::vector<uint8_t>> bytes = storage::ReadFile(path);
  if (!bytes.ok()) return {};
  StatusOr<SegmentParser> parser = SegmentParser::Open(*std::move(bytes));
  if (!parser.ok()) return {};
  std::vector<uint64_t> keys;
  LogRecord record;
  while (true) {
    const StatusOr<bool> next = parser->Next(&record);
    if (!next.ok() || !*next) return keys;
    keys.push_back(record.key);
  }
}

std::vector<std::string> Filenames(const std::string& dir) {
  std::vector<std::string> names;
  for (const std::string& path : ListSegmentsOldestFirst(dir)) {
    names.push_back(fs::path(path).filename().string());
  }
  return names;
}

TEST(LogWriterTest, SealProducesAReadableFlogSegment) {
  const std::string dir = FreshDir("seal");
  StatusOr<LogWriter> writer = LogWriter::Open(dir, MakePlan());
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ASSERT_TRUE(AppendN(&*writer, 3).ok());
  EXPECT_EQ(writer->records_appended(), 3u);
  ASSERT_TRUE(writer->Seal().ok());
  EXPECT_EQ(writer->segments_sealed(), 1u);

  const std::vector<std::string> names = Filenames(dir);
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "reportlog-1.flog");
  const std::vector<uint64_t> keys =
      SegmentKeys(ListSegmentsOldestFirst(dir)[0]);
  EXPECT_EQ(keys, (std::vector<uint64_t>{100, 101, 102}));
}

TEST(LogWriterTest, SealIsIdempotentAndReopensOnNextAppend) {
  const std::string dir = FreshDir("reseal");
  StatusOr<LogWriter> writer = LogWriter::Open(dir, MakePlan());
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(AppendN(&*writer, 1).ok());
  ASSERT_TRUE(writer->Seal().ok());
  ASSERT_TRUE(writer->Seal().ok());  // no active segment: a no-op
  EXPECT_EQ(writer->segments_sealed(), 1u);
  // The next Append lands in a fresh segment behind the sealed one.
  ASSERT_TRUE(AppendN(&*writer, 1, 500).ok());
  ASSERT_TRUE(writer->Seal().ok());
  const std::vector<std::string> names = Filenames(dir);
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "reportlog-1.flog");
  EXPECT_EQ(names[1], "reportlog-2.flog");
}

TEST(LogWriterTest, EmptySegmentIsDiscardedNotSealed) {
  const std::string dir = FreshDir("empty");
  StatusOr<LogWriter> writer = LogWriter::Open(dir, MakePlan());
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Seal().ok());
  EXPECT_EQ(writer->segments_sealed(), 0u);
  EXPECT_TRUE(ListSegmentsOldestFirst(dir).empty());
}

TEST(LogWriterTest, DestructorSealsTheActiveSegment) {
  const std::string dir = FreshDir("dtor");
  {
    StatusOr<LogWriter> writer = LogWriter::Open(dir, MakePlan());
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(AppendN(&*writer, 2).ok());
  }
  const std::vector<std::string> names = Filenames(dir);
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "reportlog-1.flog");
}

TEST(LogWriterTest, RotatesAtTheSegmentByteLimit) {
  const std::string dir = FreshDir("rotate");
  LogWriterOptions options;
  options.segment_bytes = 1;  // every record overflows: one per segment
  StatusOr<LogWriter> writer = LogWriter::Open(dir, MakePlan(), options);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(AppendN(&*writer, 4).ok());
  // Sealing happens on the background thread; Seal() is the barrier.
  ASSERT_TRUE(writer->Seal().ok());
  EXPECT_EQ(writer->segments_sealed(), 4u);
  const std::vector<std::string> segments = ListSegmentsOldestFirst(dir);
  ASSERT_EQ(segments.size(), 4u);
  for (size_t i = 0; i < segments.size(); ++i) {
    EXPECT_EQ(SegmentKeys(segments[i]),
              std::vector<uint64_t>{100 + static_cast<uint64_t>(i)});
  }
}

TEST(LogWriterTest, KeepSegmentsPrunesOldestSealed) {
  const std::string dir = FreshDir("prune");
  LogWriterOptions options;
  options.segment_bytes = 1;
  options.keep_segments = 2;
  StatusOr<LogWriter> writer = LogWriter::Open(dir, MakePlan(), options);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(AppendN(&*writer, 5).ok());
  ASSERT_TRUE(writer->Seal().ok());  // barrier: all seals (and prunes) done
  const std::vector<std::string> names = Filenames(dir);
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "reportlog-4.flog");
  EXPECT_EQ(names[1], "reportlog-5.flog");
}

TEST(LogWriterTest, SequenceResumesPastExistingSegments) {
  const std::string dir = FreshDir("resume");
  {
    StatusOr<LogWriter> writer = LogWriter::Open(dir, MakePlan());
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(AppendN(&*writer, 1).ok());
  }
  {
    StatusOr<LogWriter> writer = LogWriter::Open(dir, MakePlan());
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(AppendN(&*writer, 1, 200).ok());
  }
  const std::vector<std::string> names = Filenames(dir);
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "reportlog-1.flog");
  EXPECT_EQ(names[1], "reportlog-2.flog");
}

TEST(LogWriterTest, CrashLeftoverOpenIsNeverTouched) {
  // Fake a crashed writer: a .open segment with two whole records and a
  // torn tail. A new writer must leave it exactly as found (listed, still
  // .open, byte-identical) and write past its sequence number.
  const std::string dir = FreshDir("leftover");
  fs::create_directories(dir);
  std::vector<uint8_t> leftover = EncodeSegmentHeader(MakePlan());
  AppendRecord(&leftover, RecordType::kBatch, 7, {{1, 2, 3}});
  AppendRecord(&leftover, RecordType::kBatch, 8, {{4, 5}});
  leftover.insert(leftover.end(), {0xDE, 0xAD, 0xBE});  // torn tail
  const std::string leftover_path =
      (fs::path(dir) / "reportlog-7.open").string();
  {
    std::FILE* f = std::fopen(leftover_path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(leftover.data(), 1, leftover.size(), f),
              leftover.size());
    std::fclose(f);
  }

  {
    StatusOr<LogWriter> writer = LogWriter::Open(dir, MakePlan());
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(AppendN(&*writer, 1, 300).ok());
  }

  const std::vector<std::string> names = Filenames(dir);
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "reportlog-7.open");
  EXPECT_EQ(names[1], "reportlog-8.flog");
  // Bytes untouched; its whole records still read up to the tear.
  const StatusOr<std::vector<uint8_t>> bytes =
      storage::ReadFile(leftover_path);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, leftover);
  EXPECT_EQ(SegmentKeys(leftover_path), (std::vector<uint64_t>{7, 8}));
}

TEST(LogWriterTest, ListIgnoresForeignFilesAndOrdersBySequence) {
  const std::string dir = FreshDir("list");
  fs::create_directories(dir);
  const auto touch = [&dir](const std::string& name) {
    std::FILE* f =
        std::fopen((fs::path(dir) / name).string().c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fclose(f);
  };
  touch("reportlog-10.flog");
  touch("reportlog-2.flog");
  touch("reportlog-11.open");
  touch("reportlog-x.flog");   // non-numeric sequence
  touch("notalog-3.flog");     // wrong prefix
  touch("reportlog-4.snap");   // wrong suffix
  const std::vector<std::string> names = Filenames(dir);
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "reportlog-2.flog");
  EXPECT_EQ(names[1], "reportlog-10.flog");
  EXPECT_EQ(names[2], "reportlog-11.open");
}

TEST(LogWriterTest, ListOfMissingDirectoryIsEmpty) {
  EXPECT_TRUE(ListSegmentsOldestFirst(FreshDir("missing")).empty());
}

}  // namespace
}  // namespace felip::replaylog
