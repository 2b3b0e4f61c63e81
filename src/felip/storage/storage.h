// Durable on-disk artifacts: whole-file reads, atomic commits, and
// sequence-numbered file series.
//
// This is the only library code that touches the filesystem for durable
// state. Snapshots (snapshot/store.h), sealed epoch segments
// (stream/epoch_store.h) and the report log (replaylog/store.h) are each a
// FileSeries with their own prefix, suffix and byte codec. The naming,
// commit, durability, resume and rotation rules are stated once in
// docs/snapshots.md, "On-disk storage".

#ifndef FELIP_STORAGE_STORAGE_H_
#define FELIP_STORAGE_STORAGE_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "felip/common/status.h"

namespace felip::storage {

// Reads an entire file. kNotFound when it cannot be opened, kUnavailable
// on a read error.
StatusOr<std::vector<uint8_t>> ReadFile(const std::string& path);

// Writes "<path>.tmp", flushes and fsyncs it, renames it over `path`, then
// fsyncs the directory. kUnavailable on any I/O failure (the tmp file is
// cleaned up).
Status WriteFileAtomic(const std::string& path,
                       const std::vector<uint8_t>& bytes);

// Creates `dir` and its missing parents. kUnavailable on failure.
Status CreateDirectories(const std::string& dir);

struct SeriesFile {
  uint64_t seq = 0;
  std::string path;
};

// Every file under `dir` named <prefix><seq><suffix> for one of
// `suffixes`, where <seq> is a positive decimal that fits in 64 bits,
// ascending by sequence. A missing directory lists as empty.
std::vector<SeriesFile> ListSeries(const std::string& dir,
                                   const std::string& prefix,
                                   const std::vector<std::string>& suffixes);

// A sequence-numbered file series in one directory. suffixes.front()
// names committed files; further suffixes name files still being written
// (the report log's ".open"), which share the sequence space.
//
// Not synchronized, but Seal() and List() only read the fixed naming, so
// one thread may seal while another takes the next sequence number.
class FileSeries {
 public:
  // Resumes past every file of the series. Only writing creates `dir`:
  // Commit makes it, and a writer that opens files through PathOf makes
  // it before its first write, so reading a missing series leaves
  // nothing on disk. After each commit or seal, all but the newest
  // `keep_last_n` committed files are deleted; 0 keeps all.
  FileSeries(std::string dir, std::string prefix,
             std::vector<std::string> suffixes, size_t keep_last_n);

  std::string PathOf(uint64_t seq, const std::string& suffix) const;

  std::vector<SeriesFile> List() const;

  // Commits `bytes` as file `seq` (>= next_seq(), else a fatal check)
  // through WriteFileAtomic, creating `dir` first if absent, advances past
  // it and prunes. Returns the committed path.
  StatusOr<std::string> Commit(uint64_t seq,
                               const std::vector<uint8_t>& bytes);

  // Seals file `seq` written under `open_suffix` through `file`: fflush +
  // fsync + fclose (closed in every case), rename to the committed suffix,
  // fsync the directory, prune. kUnavailable on failure.
  Status Seal(std::FILE* file, uint64_t seq,
              const std::string& open_suffix) const;

  // Marks `seq` as taken.
  void Advance(uint64_t seq);

  // One past the highest sequence on disk at construction or taken since.
  uint64_t next_seq() const { return next_seq_; }

  const std::string& dir() const { return dir_; }

 private:
  void Prune() const;

  std::string dir_;
  std::string prefix_;
  std::vector<std::string> suffixes_;
  size_t keep_last_n_;
  uint64_t next_seq_ = 1;
};

}  // namespace felip::storage

#endif  // FELIP_STORAGE_STORAGE_H_
