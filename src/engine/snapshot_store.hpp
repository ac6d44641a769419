// Immutable store snapshots: the engine half of MVCC serving.
//
// A StoreSnapshot is one published version of a PIM-resident relation: the
// reference-counted data segments of every crossbar (see Crossbar's
// copy-on-write split), a settled copy of the zone-map sketches, and the
// derived statistics (distinct values, functional dependencies,
// co-occurrence maps) the GROUP-BY planner consults. Snapshots are
// immutable once published: an UPDATE builds the next version by detaching
// only the crossbar segments it actually rewrites (value-aware CoW), so
// untouched crossbars — and their sketches and statistics — are shared
// between consecutive versions at shared_ptr cost.
//
// Readers pin a snapshot by holding its shared_ptr; that reference IS the
// epoch. A retired version is reclaimed the moment its last pinned reader
// drains (shared_ptr deferred destruction), which the owning manager
// observes through a live-snapshot counter. Readers therefore never block
// writers, and writers never block already-pinned readers.
//
// The db-layer counterpart (db/snapshot_manager) owns the mutable builder
// store, decides when to publish, and hands snapshots to executors.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/zone_map.hpp"
#include "pim/crossbar.hpp"

namespace bbpim::engine {

class PimStore;
class FilterCache;

/// Derived statistics of one snapshot: the lazily-computed, internally
/// synchronized counterpart of the builder PimStore's distinct/FD/
/// co-occurrence caches. Carried forward across versions — an UPDATE to one
/// attribute invalidates only the entries involving that attribute, so a
/// planner-warmed cache survives unrelated writes.
///
/// Lazy computation reads current values through a `reader` view store (the
/// caller's PimStore over this snapshot): the crossbars for attributes that
/// have diverged from the backing table, the cheaper table column otherwise.
/// All accessors are safe to call from any number of reader threads.
class SnapshotStats {
 public:
  /// Seeds version-0 stats from the freshly loaded builder store (its
  /// load-time distinct stats are copied; FD/co-occurrence start empty and
  /// fill on demand).
  explicit SnapshotStats(const PimStore& builder);
  /// Carries `prev` forward across an UPDATE that touched `touched_attrs`:
  /// their distinct stats are marked stale and every FD/co-occurrence entry
  /// involving them is dropped; everything else is shared by copy.
  SnapshotStats(const SnapshotStats& prev,
                const std::vector<std::size_t>& touched_attrs);

  /// Mirrors PimStore::distinct_values. The returned reference is stable:
  /// entries settle exactly once and the slot vector never resizes.
  const std::optional<std::vector<std::uint64_t>>& distinct_values(
      std::size_t attr, const PimStore& reader) const;

  /// Mirrors PimStore::functional_dependency.
  const std::unordered_map<std::uint64_t, std::uint64_t>* functional_dependency(
      std::size_t attr_a, std::size_t attr_b, const PimStore& reader) const;

  /// Mirrors PimStore::co_occurrence.
  const std::unordered_map<std::uint64_t, std::vector<std::uint64_t>>*
  co_occurrence(std::size_t attr_a, std::size_t attr_b,
                const PimStore& reader) const;

  /// True once the attribute's stored values diverged from the backing
  /// table column (cumulative across all versions up to this one).
  bool attr_mutated(std::size_t attr) const { return attr_mutated_.at(attr); }

 private:
  /// distinct_values body; caller holds mutex_.
  const std::optional<std::vector<std::uint64_t>>& distinct_locked(
      std::size_t attr, const PimStore& reader) const;

  std::size_t max_distinct_ = 0;
  std::vector<bool> attr_mutated_;

  mutable std::mutex mutex_;
  mutable std::vector<std::optional<std::vector<std::uint64_t>>> distinct_;
  mutable std::vector<bool> distinct_stale_;
  mutable std::map<
      std::pair<std::size_t, std::size_t>,
      std::optional<std::unordered_map<std::uint64_t, std::uint64_t>>>
      fd_cache_;
  mutable std::map<
      std::pair<std::size_t, std::size_t>,
      std::unordered_map<std::uint64_t, std::vector<std::uint64_t>>>
      co_cache_;
};

/// One immutable published version of a PIM-resident relation.
class StoreSnapshot {
 public:
  /// `segments[part * pages_per_part + page][xb]` is that crossbar's data
  /// segment. `live_counter` (shared with the owning manager) is bumped
  /// here and dropped in the destructor, making reclamation observable.
  StoreSnapshot(std::uint64_t version,
                std::vector<std::vector<pim::CrossbarSegment>> segments,
                std::size_t pages_per_part,
                std::shared_ptr<const ZoneMaps> zones,
                std::shared_ptr<SnapshotStats> stats,
                FilterCache* filter_cache,
                std::shared_ptr<std::atomic<std::int64_t>> live_counter);
  ~StoreSnapshot();
  StoreSnapshot(const StoreSnapshot&) = delete;
  StoreSnapshot& operator=(const StoreSnapshot&) = delete;

  /// Position in the table's update log this snapshot reflects (log-prefix
  /// length, i.e. TableWrites::committed at publish time).
  std::uint64_t version() const { return version_; }

  std::size_t pages_per_part() const { return pages_per_part_; }
  const pim::CrossbarSegment& segment(int part, std::size_t page,
                                      std::uint32_t xb) const {
    return segments_.at(static_cast<std::size_t>(part) * pages_per_part_ +
                        page)[xb];
  }

  const ZoneMaps& zone_maps() const { return *zones_; }
  const SnapshotStats& stats() const { return *stats_; }
  /// The compiled-WHERE memo shared across every version of this table's
  /// store (programs depend on layout and predicates, not data; mutation
  /// invalidation is handled by the builder). Thread-safe by construction.
  FilterCache& filter_cache() const { return *filter_cache_; }
  /// Static page classifications memoized per snapshot version.
  /// Classification depends on the sketches, so unlike the filter cache the
  /// memo cannot outlive its data version — each snapshot owns its own,
  /// which dies (trivially correct invalidation) with the snapshot.
  ClassificationMemo& classification_memo() const { return class_memo_; }

 private:
  std::uint64_t version_;
  std::vector<std::vector<pim::CrossbarSegment>> segments_;
  std::size_t pages_per_part_;
  std::shared_ptr<const ZoneMaps> zones_;
  std::shared_ptr<SnapshotStats> stats_;
  FilterCache* filter_cache_;
  mutable ClassificationMemo class_memo_;
  std::shared_ptr<std::atomic<std::int64_t>> live_counter_;
};

/// Publishes the builder store's current contents as version `version`.
/// Capturing a crossbar's segment bumps its reference count, which is what
/// arms the builder's copy-on-write: its next functional change to that
/// crossbar detaches a private copy, leaving this snapshot untouched.
/// `prev` carries derived statistics forward (nullptr seeds from the
/// builder); `touched_attrs` lists the attributes updated since `prev`.
std::shared_ptr<const StoreSnapshot> freeze_snapshot(
    PimStore& builder, std::uint64_t version, const StoreSnapshot* prev,
    const std::vector<std::size_t>& touched_attrs,
    std::shared_ptr<std::atomic<std::int64_t>> live_counter);

}  // namespace bbpim::engine
