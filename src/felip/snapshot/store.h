// On-disk snapshot store: snapshot-<seq>.felip files in one directory.
//
// A SnapshotStore is the snapshot schema of storage::FileSeries: each
// Write() is an atomic, durable commit of the next sequence number, and
// after it all but the newest keep_last_n snapshots are deleted. The
// naming, commit, durability and rotation rules are in
// felip/storage/storage.h and docs/snapshots.md ("On-disk storage").
//
// Reading is recovery-oriented: ListNewestFirst() enumerates candidates,
// and callers walk them newest to oldest until one verifies (see
// felip/snapshot/checkpoint.h), so a corrupted newest snapshot degrades to
// the previous rotation instead of failing recovery outright.

#ifndef FELIP_SNAPSHOT_STORE_H_
#define FELIP_SNAPSHOT_STORE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "felip/common/status.h"
#include "felip/storage/storage.h"

namespace felip::snapshot {

class SnapshotStore {
 public:
  // `dir` is created by the first Write if absent; reading a missing
  // directory creates nothing. `keep_last_n` >= 1 bounds how many
  // committed snapshots survive rotation.
  SnapshotStore(std::string dir, size_t keep_last_n = 3);

  // Commits `bytes` as the next snapshot in sequence and rotates old
  // files. Returns the committed file's path.
  StatusOr<std::string> Write(const std::vector<uint8_t>& bytes);

  // Snapshot paths, newest (highest sequence) first.
  std::vector<std::string> ListNewestFirst() const;

  const std::string& dir() const { return series_.dir(); }

 private:
  storage::FileSeries series_;
};

}  // namespace felip::snapshot

#endif  // FELIP_SNAPSHOT_STORE_H_
