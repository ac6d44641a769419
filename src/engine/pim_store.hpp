// PimStore: a relation resident in the PIM module.
//
// Loads a (pre-joined) relation into hugepages, one record per crossbar row.
// Supports the paper's two placements: one-xb (whole record in one crossbar
// row) and two-xb (vertical partitioning of Section III/V-A: fact attributes
// in one aligned page set, dimension attributes in another; record i lives
// at the same crossbar/row coordinate in both parts).
//
// Also computes per-attribute distinct-value statistics used by the
// GROUP-BY planner to enumerate candidate subgroups ("total number of
// potential subgroups according to query and database details", Table II).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "engine/filter_compiler.hpp"
#include "engine/layout.hpp"
#include "engine/snapshot_store.hpp"
#include "engine/zone_map.hpp"
#include "pim/module.hpp"
#include "relational/table.hpp"

namespace bbpim::engine {

// A PimStore runs in one of two modes:
//
//   builder — the classic mutable store: loads the relation into its
//     module's crossbars, owns zone maps, distinct/FD/co-occurrence stats
//     and the compiled-filter cache, and accepts in-place mutation through
//     the lock + note_mutation protocol. db::SnapshotManager keeps exactly
//     one builder per table and publishes its state as StoreSnapshots.
//
//   view — an immutable serving store over one published StoreSnapshot:
//     its crossbars' data segments point at the snapshot's shared segments
//     (zero copy; see Crossbar::adopt_data), and zone maps, derived stats
//     and the filter cache delegate to the snapshot. Views skip loading
//     entirely, never mutate (note_mutation throws), and re-point to a
//     newer snapshot in O(crossbars) shared_ptr assignments via adopt().
class PimStore {
 public:
  struct Options {
    bool two_crossbar = false;
    /// Part assignment for two-crossbar mode; defaults to the SSB rule
    /// (fact attributes "lo_*" in part 0, dimension attributes in part 1 —
    /// the paper's worst-case partitioning).
    std::function<int(const std::string&)> part_of;
    /// Distinct-value stats are kept only up to this cardinality; higher
    /// attributes never qualify for pure-PIM group enumeration anyway.
    std::size_t max_distinct = 4096;
  };

  PimStore(pim::PimModule& module, const rel::Table& table, Options opt);
  /// One-crossbar store with default options.
  PimStore(pim::PimModule& module, const rel::Table& table)
      : PimStore(module, table, Options()) {}
  /// View store over a published snapshot: allocates pages in `module`
  /// (scratch only — the data segments are adopted from `snap`, not
  /// loaded) and serves queries against that immutable version. `opt` must
  /// describe the same placement the builder used.
  PimStore(pim::PimModule& module, const rel::Table& table, Options opt,
           std::shared_ptr<const StoreSnapshot> snap);

  /// Re-points a view store at a newer snapshot of the same geometry
  /// (O(crossbars) shared_ptr assignments; nothing is copied or replayed).
  void adopt(std::shared_ptr<const StoreSnapshot> snap);

  bool is_view() const { return snap_ != nullptr; }
  /// The pinned snapshot (views only; nullptr for builders).
  const std::shared_ptr<const StoreSnapshot>& snapshot() const {
    return snap_;
  }

  pim::PimModule& module() { return *module_; }
  const pim::PimConfig& module_config() const { return module_->config(); }
  const rel::Table& table() const { return *table_; }

  int parts() const { return two_crossbar_ ? 2 : 1; }
  std::size_t record_count() const { return records_; }
  /// Pages per part (the paper's M counts pages per copy of the records).
  std::size_t pages_per_part() const { return pages_per_part_; }
  std::uint32_t records_per_page() const { return records_per_page_; }

  int part_of_attr(std::size_t attr) const { return attr_part_.at(attr); }
  const RecordLayout& layout(int part) const { return layouts_.at(part); }
  pim::Field field(std::size_t attr) const {
    return layouts_.at(attr_part_.at(attr)).field(attr);
  }

  /// Module page holding page `i` of `part`.
  pim::Page& page(int part, std::size_t i);
  std::size_t module_page_index(int part, std::size_t i) const;

  /// Valid records in page i (the last page may be partial).
  std::uint32_t page_records(std::size_t i) const;

  /// Functional host read of one attribute of one record.
  std::uint64_t read_attr(std::size_t record, std::size_t attr) const;

  /// Records come in blocks of 64: block b is records [64 * b, 64 * b + 64),
  /// which is one row word of one crossbar (crossbar rows and pages hold
  /// whole blocks). The last block may be partial.
  static constexpr std::size_t kBlockRecords = 64;
  std::size_t record_blocks() const {
    return (records_ + kBlockRecords - 1) / kBlockRecords;
  }
  /// Records of block `block` that exist (64 except for the last block).
  std::uint32_t block_records(std::size_t block) const {
    return static_cast<std::uint32_t>(std::min<std::size_t>(
        kBlockRecords, records_ - block * kBlockRecords));
  }
  /// Block host read of one attribute: out[j] is record 64 * block + j, read
  /// with one crossbar block gather (pim::Crossbar::read_rows_block).
  /// Entries past block_records(block) are not written.
  void read_attr_block(std::size_t block, std::size_t attr,
                       std::span<std::uint64_t, kBlockRecords> out) const;
  /// Current values of one attribute over one block: the crossbars once the
  /// attribute was mutated, the (cheaper) backing table column before.
  /// `mutated` is the caller's view of that (the builder's or a snapshot's).
  /// Entries past block_records(block) are not written.
  void current_block(std::size_t block, std::size_t attr, bool mutated,
                     std::span<std::uint64_t, kBlockRecords> out) const;

  /// Sorted distinct values of an attribute, or nullopt when cardinality
  /// exceeded Options::max_distinct. After an in-place mutation the stats
  /// are rebuilt lazily from the crossbars on first access, so a burst of
  /// catch-up-replayed updates costs one rescan, not one per update.
  const std::optional<std::vector<std::uint64_t>>& distinct_values(
      std::size_t attr) const;

  /// Full-store FNV-1a digest over every record's attribute codes, read
  /// through the crossbars — the store-equivalence checksum the HTAP bench
  /// and determinism tests compare against their serial oracles.
  std::uint64_t contents_checksum() const;

  /// Value map of the functional dependency attr_a -> attr_b, or nullptr
  /// when it does not hold (or either side's cardinality is uncapped).
  /// SSB's hierarchies (brand -> category -> mfgr, city -> nation -> region)
  /// are what let the planner derive Table II's "total subgroups according
  /// to query and database details". Computed lazily, cached.
  const std::unordered_map<std::uint64_t, std::uint64_t>*
  functional_dependency(std::size_t attr_a, std::size_t attr_b) const;

  /// Sorted attr_b values co-occurring with each attr_a value (the general
  /// form of the above: d_yearmonth = 'Dec1997' leaves d_year = {1997} even
  /// though year does not determine yearmonth). nullptr when either side's
  /// cardinality is uncapped. Computed lazily, cached.
  const std::unordered_map<std::uint64_t, std::vector<std::uint64_t>>*
  co_occurrence(std::size_t attr_a, std::size_t attr_b) const;

  /// Memoized WHERE compilations against this store's layouts (repeated
  /// prepared-statement executions skip recompilation). Views share the
  /// builder's cache through their snapshot: programs are pure functions of
  /// (predicates, layout, allocator state), so one memo serves every worker
  /// and every version, and the builder's mutation invalidation reaches all
  /// of them.
  FilterCache& filter_cache() {
    return snap_ != nullptr ? snap_->filter_cache() : filter_cache_;
  }

  /// Memoized static page classifications (see ClassificationMemo). Views
  /// delegate to their snapshot's per-version memo; builders own one that
  /// note_mutation invalidates, so classifications never outlive the data
  /// they summarize.
  ClassificationMemo& classification_memo() const {
    return snap_ != nullptr ? snap_->classification_memo() : class_memo_;
  }

  /// Options::max_distinct (the distinct-stats cardinality cap).
  std::size_t max_distinct() const { return max_distinct_; }
  /// True once `attr`'s stored values diverged from the backing table.
  bool attr_mutated(std::size_t attr) const { return attr_mutated_.at(attr); }

  /// Zone-map sketches: per (attribute, crossbar) min/max code plus a
  /// distinct-code bitmap for low-cardinality attributes. Built from the
  /// backing table at load time; kept exact across in-place mutation
  /// (pim_update refreshes the touched crossbars incrementally, and any
  /// attribute marked stale by a blanket note_mutation is rebuilt from the
  /// crossbars here, on first access). Crossbar index = record / rows —
  /// parts share coordinates, so one index space covers both layouts.
  const ZoneMaps& zone_maps() const;

  // --- mutation (Algorithm-1 UPDATE) ---------------------------------------
  // Crossbar data can be rewritten in place (engine::pim_update). Everything
  // this store caches about the data — distinct-value stats, functional
  // dependencies, co-occurrence maps, compiled-filter programs — observes
  // mutation through the protocol below: take the mutation lock, mutate,
  // call note_mutation(attr). Queries racing a mutation on the SAME store
  // are the caller's bug (the db facade's per-table writer gate enforces
  // exclusion); the lock exists so that bug is caught, not silently raced.

  /// RAII exclusive mutation lock. pim_update asserts (debug builds) that
  /// the calling thread holds it.
  class MutationLock {
   public:
    explicit MutationLock(PimStore& store) : store_(&store) {
      store_->mutation_mutex_.lock();
      store_->mutation_owner_.store(std::this_thread::get_id(),
                                    std::memory_order_release);
    }
    ~MutationLock() {
      if (store_ != nullptr) {
        store_->mutation_owner_.store(std::thread::id{},
                                      std::memory_order_release);
        store_->mutation_mutex_.unlock();
      }
    }
    MutationLock(MutationLock&& other) noexcept : store_(other.store_) {
      other.store_ = nullptr;
    }
    MutationLock(const MutationLock&) = delete;
    MutationLock& operator=(const MutationLock&) = delete;
    MutationLock& operator=(MutationLock&&) = delete;

   private:
    PimStore* store_;
  };

  MutationLock lock_mutation() { return MutationLock(*this); }

  /// True when the calling thread holds the mutation lock.
  bool mutation_locked_by_caller() const {
    return mutation_owner_.load(std::memory_order_acquire) ==
           std::this_thread::get_id();
  }

  /// Bumped once per data mutation (note_mutation); lets callers detect
  /// that cached derivations of store contents are stale. Views report
  /// their snapshot's published version (the update-log prefix length).
  std::uint64_t data_version() const {
    return snap_ != nullptr ? snap_->version()
                            : data_version_.load(std::memory_order_acquire);
  }

  /// Records that `attr`'s stored values changed in place: bumps
  /// data_version, rebuilds the attribute's distinct-value stats from the
  /// crossbars, drops the functional-dependency and co-occurrence cache
  /// entries that involve the attribute, and invalidates the compiled-filter
  /// cache for the attribute's part. Caller must hold the mutation lock.
  ///
  /// `touched_crossbars` (global crossbar indices whose rows were rewritten)
  /// enables incremental zone-map maintenance: only those sketches are
  /// rebuilt, exactly, from the crossbars. Passing nullptr marks the whole
  /// attribute's sketches stale for a lazy full rebuild on next access —
  /// sound either way, a query can never observe a sketch that is narrower
  /// than the stored data.
  void note_mutation(std::size_t attr,
                     const std::vector<std::uint32_t>* touched_crossbars =
                         nullptr);

 private:
  void load_part(int part);
  /// Exact sketch rebuild of one (attr, crossbar) from the crossbar data.
  void rebuild_zone_crossbar(std::size_t attr, std::size_t crossbar) const;

  pim::PimModule* module_;
  const rel::Table* table_;
  bool two_crossbar_ = false;
  std::size_t records_ = 0;
  std::uint32_t records_per_page_ = 0;
  std::size_t pages_per_part_ = 0;
  std::vector<int> attr_part_;               // attr -> part
  std::vector<RecordLayout> layouts_;        // per part
  std::vector<std::size_t> base_page_;       // per part
  /// Lazily refreshed after mutation (see distinct_values), hence mutable.
  mutable std::vector<std::optional<std::vector<std::uint64_t>>> distinct_;
  /// (a, b) -> value map when the FD holds, nullopt when checked and absent.
  mutable std::map<std::pair<std::size_t, std::size_t>,
                   std::optional<std::unordered_map<std::uint64_t, std::uint64_t>>>
      fd_cache_;
  mutable std::map<std::pair<std::size_t, std::size_t>,
                   std::unordered_map<std::uint64_t, std::vector<std::uint64_t>>>
      co_cache_;
  FilterCache filter_cache_;
  /// Builder-owned classification memo (views use their snapshot's).
  mutable ClassificationMemo class_memo_;
  /// Lazily rebuilt for attributes marked stale (see zone_maps), hence
  /// mutable.
  mutable ZoneMaps zones_;
  std::uint32_t rows_per_crossbar_ = 0;

  std::size_t max_distinct_ = 0;      ///< Options::max_distinct (for refresh)
  std::vector<bool> attr_mutated_;    ///< attr diverged from the table column
  /// Distinct stats invalidated by note_mutation, rebuilt on next access.
  mutable std::vector<bool> distinct_stale_;
  mutable std::mutex mutation_mutex_;
  std::atomic<std::thread::id> mutation_owner_{};
  std::atomic<std::uint64_t> data_version_{0};
  /// Set iff this store is a view; pins the snapshot it serves.
  std::shared_ptr<const StoreSnapshot> snap_;
};

// Derived statistics over a store's current values, shared by the builder
// (PimStore) and the snapshot stats (SnapshotStats). Each walks the records
// in ascending order, one block of 64 at a time (PimStore::current_block);
// `mutated_*` says whether an attribute's values must come from the
// crossbars rather than the backing table.

/// Sorted distinct values of `attr`, or nullopt once more than
/// `max_distinct` are seen.
std::optional<std::vector<std::uint64_t>> scan_distinct(const PimStore& store,
                                                       std::size_t attr,
                                                       bool mutated,
                                                       std::size_t max_distinct);
/// Value map of the functional dependency a -> b, or nullopt when violated.
std::optional<std::unordered_map<std::uint64_t, std::uint64_t>>
scan_functional_dependency(const PimStore& store, std::size_t attr_a,
                           bool mutated_a, std::size_t attr_b, bool mutated_b,
                           std::size_t reserve);
/// Sorted b values co-occurring with each a value.
std::unordered_map<std::uint64_t, std::vector<std::uint64_t>>
scan_co_occurrence(const PimStore& store, std::size_t attr_a, bool mutated_a,
                   std::size_t attr_b, bool mutated_b, std::size_t reserve);

}  // namespace bbpim::engine
