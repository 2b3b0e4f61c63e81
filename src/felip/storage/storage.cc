#include "felip/storage/storage.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <filesystem>
#include <string_view>
#include <system_error>
#include <tuple>
#include <utility>

#include "felip/common/check.h"

namespace felip::storage {

namespace fs = std::filesystem;

namespace {

// Sequence number of a file name, or 0 when it is not
// <prefix><seq><suffix> with a positive decimal <seq> that fits in 64 bits.
uint64_t SequenceOf(std::string_view name, std::string_view prefix,
                    std::string_view suffix) {
  if (name.size() <= prefix.size() + suffix.size() ||
      !name.starts_with(prefix) || !name.ends_with(suffix)) {
    return 0;
  }
  const std::string_view digits = name.substr(
      prefix.size(), name.size() - prefix.size() - suffix.size());
  uint64_t seq = 0;
  const auto [end, ec] =
      std::from_chars(digits.data(), digits.data() + digits.size(), seq);
  if (ec != std::errc() || end != digits.data() + digits.size()) return 0;
  return seq;
}

// fflush + fsync + fclose. The file is closed whatever happens.
bool SyncAndClose(std::FILE* file) {
  const bool synced = std::fflush(file) == 0 && ::fsync(fileno(file)) == 0;
  return std::fclose(file) == 0 && synced;
}

// Renames `from` over `to`, then fsyncs the directory of `to` so the new
// name survives a machine crash.
Status RenameDurably(const std::string& from, const std::string& to) {
  std::error_code ec;
  fs::rename(from, to, ec);
  if (ec) return Status::Unavailable("cannot rename file into place: " + to);
  std::string dir = fs::path(to).parent_path().string();
  if (dir.empty()) dir = ".";
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  // Some filesystems cannot fsync a directory and say so with EINVAL;
  // there the rename is as durable as the filesystem makes it.
  const bool synced = fd >= 0 && (::fsync(fd) == 0 || errno == EINVAL);
  if (fd >= 0) ::close(fd);
  if (!synced) return Status::Unavailable("cannot sync directory: " + dir);
  return Status::Ok();
}

}  // namespace

StatusOr<std::vector<uint8_t>> ReadFile(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::NotFound("cannot open file for reading: " + path);
  }
  std::vector<uint8_t> bytes;
  uint8_t chunk[1 << 16];
  while (const size_t got = std::fread(chunk, 1, sizeof(chunk), file)) {
    bytes.insert(bytes.end(), chunk, chunk + got);
  }
  const bool failed = std::ferror(file) != 0;
  std::fclose(file);
  if (failed) return Status::Unavailable("read error on file: " + path);
  return bytes;
}

Status WriteFileAtomic(const std::string& path,
                       const std::vector<uint8_t>& bytes) {
  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) {
    return Status::Unavailable("cannot open tmp file for writing: " + tmp);
  }
  const size_t written =
      bytes.empty() ? 0 : std::fwrite(bytes.data(), 1, bytes.size(), file);
  // The bytes must be on disk before the rename makes the file visible
  // under its final name: a torn final file would defeat the whole
  // checksummed-recovery design.
  const bool synced = SyncAndClose(file);
  if (written != bytes.size() || !synced) {
    std::remove(tmp.c_str());
    return Status::Unavailable("short write to tmp file: " + tmp);
  }
  const Status renamed = RenameDurably(tmp, path);
  if (!renamed.ok()) std::remove(tmp.c_str());
  return renamed;
}

Status CreateDirectories(const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return Status::Unavailable("cannot create directory: " + dir);
  return Status::Ok();
}

std::vector<SeriesFile> ListSeries(const std::string& dir,
                                   const std::string& prefix,
                                   const std::vector<std::string>& suffixes) {
  std::vector<SeriesFile> files;
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    const std::string name = it->path().filename().string();
    for (const std::string& suffix : suffixes) {
      const uint64_t seq = SequenceOf(name, prefix, suffix);
      if (seq > 0) {
        files.push_back({seq, it->path().string()});
        break;
      }
    }
  }
  std::sort(files.begin(), files.end(), [](const auto& a, const auto& b) {
    return std::tie(a.seq, a.path) < std::tie(b.seq, b.path);
  });
  return files;
}

FileSeries::FileSeries(std::string dir, std::string prefix,
                       std::vector<std::string> suffixes, size_t keep_last_n)
    : dir_(std::move(dir)),
      prefix_(std::move(prefix)),
      suffixes_(std::move(suffixes)),
      keep_last_n_(keep_last_n) {
  FELIP_CHECK_MSG(!suffixes_.empty(), "a file series needs a suffix");
  const std::vector<SeriesFile> files = List();
  if (!files.empty()) Advance(files.back().seq);
}

std::string FileSeries::PathOf(uint64_t seq, const std::string& suffix) const {
  return (fs::path(dir_) / (prefix_ + std::to_string(seq) + suffix)).string();
}

std::vector<SeriesFile> FileSeries::List() const {
  return ListSeries(dir_, prefix_, suffixes_);
}

StatusOr<std::string> FileSeries::Commit(uint64_t seq,
                                         const std::vector<uint8_t>& bytes) {
  FELIP_CHECK_MSG(seq >= next_seq_,
                  "series files must commit in increasing sequence");
  const std::string path = PathOf(seq, suffixes_.front());
  FELIP_RETURN_IF_ERROR(CreateDirectories(dir_));
  FELIP_RETURN_IF_ERROR(WriteFileAtomic(path, bytes));
  Advance(seq);
  Prune();
  return path;
}

Status FileSeries::Seal(std::FILE* file, uint64_t seq,
                        const std::string& open_suffix) const {
  const std::string open_path = PathOf(seq, open_suffix);
  if (!SyncAndClose(file)) {
    return Status::Unavailable("cannot sync file: " + open_path);
  }
  FELIP_RETURN_IF_ERROR(
      RenameDurably(open_path, PathOf(seq, suffixes_.front())));
  Prune();
  return Status::Ok();
}

void FileSeries::Advance(uint64_t seq) {
  next_seq_ = std::max(next_seq_, seq + 1);
}

void FileSeries::Prune() const {
  if (keep_last_n_ == 0) return;
  const std::vector<SeriesFile> committed =
      ListSeries(dir_, prefix_, {suffixes_.front()});
  for (size_t i = 0; i + keep_last_n_ < committed.size(); ++i) {
    std::error_code ec;
    fs::remove(committed[i].path, ec);
  }
}

}  // namespace felip::storage
