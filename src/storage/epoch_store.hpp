// membership::EpochStore over the storage::Disk layer: the only
// implementation. A real daemon runs it over a FileDisk, the simulator over
// each node's SimDisk.
//
// Strict format: ASCII digits + '\n'; anything else (a torn prefix, an empty
// file, garbage) loads as absent — the store only ever raises the epoch
// floor, it must never stop a daemon from booting. The write path goes
// through the full durability protocol: tmp → fsync → rename → fsync_dir.
// The directory barrier matters: rename alone is not power-loss durable.
#pragma once

#include <string>

#include "membership/epoch_store.hpp"
#include "storage/disk.hpp"

namespace accelring::storage {

class DiskEpochStore final : public membership::EpochStore {
 public:
  DiskEpochStore(Disk& disk, std::string name);

  [[nodiscard]] uint64_t load() override;
  void store(uint64_t epoch) override;

 private:
  Disk& disk_;
  std::string name_;
  uint64_t cached_ = 0;
  bool loaded_ = false;
};

}  // namespace accelring::storage
