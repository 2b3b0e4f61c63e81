#include "felip/snapshot/store.h"

#include "felip/common/check.h"

namespace felip::snapshot {

SnapshotStore::SnapshotStore(std::string dir, size_t keep_last_n)
    : series_(std::move(dir), "snapshot-", {".felip"}, keep_last_n) {
  FELIP_CHECK_MSG(keep_last_n >= 1, "keep_last_n must be at least 1");
}

StatusOr<std::string> SnapshotStore::Write(const std::vector<uint8_t>& bytes) {
  return series_.Commit(series_.next_seq(), bytes);
}

std::vector<std::string> SnapshotStore::ListNewestFirst() const {
  std::vector<std::string> paths;
  const std::vector<storage::SeriesFile> files = series_.List();
  for (auto it = files.rbegin(); it != files.rend(); ++it) {
    paths.push_back(it->path);
  }
  return paths;
}

}  // namespace felip::snapshot
