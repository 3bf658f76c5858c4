// Durable storage for the membership epoch counter.
//
// Ring identifiers encode (epoch, creator); stale-ring and stale-incarnation
// rejection both rely on the epoch growing monotonically along any merge
// lineage. That holds in memory, but a daemon that crashes and cold-restarts
// forgets max_epoch_seen_ and can mint a ring id it already used in a
// previous life — which the survivors would then (correctly!) reject as
// stale, or worse, confuse with the dead ring. Persisting the high-water
// epoch across restarts closes the hole: a reborn daemon resumes counting
// from strictly above everything it ever created or saw.
//
// This header holds only the interface, so membership does not depend on
// the storage layer. The one implementation is storage::DiskEpochStore
// (storage/epoch_store.hpp): over a storage::FileDisk for real daemons, and
// over each node's storage::SimDisk in the simulator, where the disk
// survives SimCluster::restart_node while the engine does not.
#pragma once

#include <cstdint>

namespace accelring::membership {

class EpochStore {
 public:
  virtual ~EpochStore() = default;
  /// Highest epoch ever stored; 0 when nothing was persisted yet.
  [[nodiscard]] virtual uint64_t load() = 0;
  /// Persist `epoch` if it exceeds the stored value (monotonic).
  virtual void store(uint64_t epoch) = 0;
};

}  // namespace accelring::membership
