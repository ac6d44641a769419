#include "engine/pim_store.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <stdexcept>
#include <unordered_set>

namespace bbpim::engine {

PimStore::PimStore(pim::PimModule& module, const rel::Table& table, Options opt)
    : PimStore(module, table, std::move(opt), nullptr) {}

PimStore::PimStore(pim::PimModule& module, const rel::Table& table, Options opt,
                   std::shared_ptr<const StoreSnapshot> snap)
    : module_(&module), table_(&table), two_crossbar_(opt.two_crossbar) {
  const rel::Schema& schema = table.schema();
  const std::size_t nattrs = schema.attribute_count();
  if (nattrs == 0) throw std::invalid_argument("PimStore: empty schema");

  // Part assignment.
  attr_part_.resize(nattrs, 0);
  if (two_crossbar_) {
    auto default_rule = [](const std::string& name) {
      return name.rfind("lo_", 0) == 0 ? 0 : 1;
    };
    for (std::size_t a = 0; a < nattrs; ++a) {
      attr_part_[a] = opt.part_of ? opt.part_of(schema.attribute(a).name)
                                  : default_rule(schema.attribute(a).name);
      if (attr_part_[a] < 0 || attr_part_[a] > 1) {
        throw std::invalid_argument("PimStore: part must be 0 or 1");
      }
    }
  }

  // Layouts per part.
  const pim::PimConfig& cfg = module.config();
  for (int part = 0; part < parts(); ++part) {
    std::vector<std::size_t> attrs;
    for (std::size_t a = 0; a < nattrs; ++a) {
      if (attr_part_[a] == part) attrs.push_back(a);
    }
    if (attrs.empty()) {
      throw std::invalid_argument("PimStore: a part has no attributes");
    }
    layouts_.push_back(RecordLayout::build(schema, attrs, cfg));
  }

  // Page allocation: all parts span the same number of pages so that record
  // coordinates align across parts.
  records_ = table.row_count();
  if (records_ == 0) throw std::invalid_argument("PimStore: empty relation");
  records_per_page_ = cfg.records_per_page();
  pages_per_part_ = (records_ + records_per_page_ - 1) / records_per_page_;
  for (int part = 0; part < parts(); ++part) {
    // Data columns (attributes + validity, [0, scratch_begin)) form the
    // shareable CoW segment of every crossbar; scratch stays private.
    base_page_.push_back(
        module.allocate_pages(pages_per_part_, layouts_[part].scratch_begin()));
  }
  rows_per_crossbar_ = cfg.crossbar_rows;
  max_distinct_ = opt.max_distinct;
  attr_mutated_.assign(nattrs, false);
  distinct_stale_.assign(nattrs, false);
  distinct_.resize(nattrs);

  if (snap != nullptr) {
    // View mode: data comes from the snapshot's shared segments — nothing
    // to load, and every derived structure delegates to the snapshot.
    adopt(std::move(snap));
    return;
  }

  for (int part = 0; part < parts(); ++part) load_part(part);

  // Zone-map sketches, accumulated from the backing table (record r lives
  // in crossbar r / rows; the partial last crossbar's sketch covers only
  // its valid records).
  {
    std::vector<std::uint32_t> attr_bits;
    attr_bits.reserve(nattrs);
    for (std::size_t a = 0; a < nattrs; ++a) {
      attr_bits.push_back(schema.attribute(a).bits);
    }
    const std::size_t crossbars =
        pages_per_part_ * cfg.crossbars_per_page;
    zones_ = ZoneMaps(crossbars, attr_bits);
    for (std::size_t a = 0; a < nattrs; ++a) {
      const std::vector<std::uint64_t>& col = table.column(a);
      for (std::size_t r = 0; r < records_; ++r) {
        zones_.add(a, r / rows_per_crossbar_, col[r]);
      }
    }
  }

  // Distinct stats for GROUP-BY candidate enumeration.
  for (std::size_t a = 0; a < nattrs; ++a) {
    distinct_[a] = scan_distinct(*this, a, /*mutated=*/false, max_distinct_);
  }
}

void PimStore::adopt(std::shared_ptr<const StoreSnapshot> snap) {
  if (snap == nullptr) {
    throw std::invalid_argument("PimStore::adopt: null snapshot");
  }
  if (snap->pages_per_part() != pages_per_part_) {
    throw std::invalid_argument("PimStore::adopt: geometry mismatch");
  }
  for (int part = 0; part < parts(); ++part) {
    for (std::size_t p = 0; p < pages_per_part_; ++p) {
      pim::Page& pg = page(part, p);
      for (std::uint32_t x = 0; x < pg.crossbar_count(); ++x) {
        pg.crossbar(x).adopt_data(snap->segment(part, p, x));
      }
    }
  }
  snap_ = std::move(snap);
}

void PimStore::load_part(int part) {
  // One block scatter per (record block, attribute): the same bits and the
  // same per-row wear as a write_row_bits per record and attribute.
  const RecordLayout& layout = layouts_[part];
  std::array<std::uint64_t, kBlockRecords> vals;
  std::array<std::uint64_t, kBlockRecords> ones;
  ones.fill(1);
  for (std::size_t b = 0; b < record_blocks(); ++b) {
    const std::size_t first = b * kBlockRecords;
    const std::uint32_t n = block_records(b);
    const std::uint64_t mask = n == 64 ? ~0ULL : (1ULL << n) - 1;
    const std::uint32_t in_page =
        static_cast<std::uint32_t>(first % records_per_page_);
    const pim::Page::RecordCoord c =
        page(part, first / records_per_page_).locate(in_page);
    pim::Crossbar& xb = page(part, first / records_per_page_)
                            .crossbar(c.crossbar);
    const std::uint32_t word = c.row / kBlockRecords;
    for (const std::size_t a : layout.attrs()) {
      const std::vector<std::uint64_t>& col = table_->column(a);
      std::copy(col.begin() + first, col.begin() + first + n, vals.begin());
      std::fill(vals.begin() + n, vals.end(), 0ULL);
      const pim::Field f = layout.field(a);
      xb.write_rows_block(word, mask, f.offset, f.width, vals);
    }
    xb.write_rows_block(word, mask, layout.valid_col(), 1, ones);
  }
}

pim::Page& PimStore::page(int part, std::size_t i) {
  return module_->page(module_page_index(part, i));
}

std::size_t PimStore::module_page_index(int part, std::size_t i) const {
  if (i >= pages_per_part_) throw std::out_of_range("PimStore: page index");
  return base_page_.at(part) + i;
}

std::uint32_t PimStore::page_records(std::size_t i) const {
  const std::size_t first = i * records_per_page_;
  if (first >= records_) return 0;
  return static_cast<std::uint32_t>(
      std::min<std::size_t>(records_per_page_, records_ - first));
}

const std::unordered_map<std::uint64_t, std::uint64_t>*
PimStore::functional_dependency(std::size_t attr_a, std::size_t attr_b) const {
  if (snap_ != nullptr) {
    return snap_->stats().functional_dependency(attr_a, attr_b, *this);
  }
  if (attr_a == attr_b) return nullptr;
  // Through the refreshing accessor: mutation can change the capped status.
  if (!distinct_values(attr_a) || !distinct_values(attr_b)) return nullptr;
  const auto key = std::make_pair(attr_a, attr_b);
  auto it = fd_cache_.find(key);
  if (it == fd_cache_.end()) {
    it = fd_cache_
             .emplace(key, scan_functional_dependency(
                               *this, attr_a, attr_mutated_[attr_a], attr_b,
                               attr_mutated_[attr_b],
                               distinct_[attr_a]->size()))
             .first;
  }
  return it->second ? &*it->second : nullptr;
}

const std::unordered_map<std::uint64_t, std::vector<std::uint64_t>>*
PimStore::co_occurrence(std::size_t attr_a, std::size_t attr_b) const {
  if (snap_ != nullptr) {
    return snap_->stats().co_occurrence(attr_a, attr_b, *this);
  }
  if (attr_a == attr_b) return nullptr;
  if (!distinct_values(attr_a) || !distinct_values(attr_b)) return nullptr;
  const auto key = std::make_pair(attr_a, attr_b);
  auto it = co_cache_.find(key);
  if (it == co_cache_.end()) {
    it = co_cache_
             .emplace(key, scan_co_occurrence(*this, attr_a,
                                              attr_mutated_[attr_a], attr_b,
                                              attr_mutated_[attr_b],
                                              distinct_[attr_a]->size()))
             .first;
  }
  return &it->second;
}

std::uint64_t PimStore::read_attr(std::size_t record, std::size_t attr) const {
  const int part = attr_part_.at(attr);
  const std::size_t p = record / records_per_page_;
  const std::uint32_t in_page = static_cast<std::uint32_t>(record % records_per_page_);
  return module_->read_record_field(module_page_index(part, p), in_page,
                                    layouts_[part].field(attr));
}

void PimStore::read_attr_block(
    std::size_t block, std::size_t attr,
    std::span<std::uint64_t, kBlockRecords> out) const {
  const int part = attr_part_.at(attr);
  const std::size_t first = block * kBlockRecords;
  const pim::Page& pg =
      module_->page(module_page_index(part, first / records_per_page_));
  const pim::Page::RecordCoord c =
      pg.locate(static_cast<std::uint32_t>(first % records_per_page_));
  const pim::Field f = layouts_[part].field(attr);
  const std::uint32_t n = block_records(block);
  pg.crossbar(c.crossbar)
      .read_rows_block(c.row / kBlockRecords,
                       n == kBlockRecords ? ~0ULL : (1ULL << n) - 1, f.offset,
                       f.width, out);
}

void PimStore::current_block(std::size_t block, std::size_t attr, bool mutated,
                             std::span<std::uint64_t, kBlockRecords> out) const {
  if (mutated) {
    read_attr_block(block, attr, out);
    return;
  }
  const std::vector<std::uint64_t>& col = table_->column(attr);
  const std::size_t first = block * kBlockRecords;
  const std::uint32_t n = block_records(block);
  std::copy(col.begin() + first, col.begin() + first + n, out.begin());
}

const std::optional<std::vector<std::uint64_t>>& PimStore::distinct_values(
    std::size_t attr) const {
  if (snap_ != nullptr) return snap_->stats().distinct_values(attr, *this);
  if (distinct_stale_.at(attr)) {
    // Rebuild from the crossbars (the backing table column no longer
    // reflects the stored values). Lazy so a burst of replayed updates pays
    // one rescan at the next consumer.
    distinct_[attr] = scan_distinct(*this, attr, /*mutated=*/true,
                                    max_distinct_);
    distinct_stale_[attr] = false;
  }
  return distinct_.at(attr);
}

std::uint64_t PimStore::contents_checksum() const {
  std::uint64_t h = 1469598103934665603ULL;
  const std::size_t nattrs = table_->schema().attribute_count();
  std::vector<std::array<std::uint64_t, kBlockRecords>> vals(nattrs);
  for (std::size_t b = 0; b < record_blocks(); ++b) {
    for (std::size_t a = 0; a < nattrs; ++a) read_attr_block(b, a, vals[a]);
    // Record-major, as a walk of read_attr(r, a) would hash.
    for (std::uint32_t j = 0; j < block_records(b); ++j) {
      for (std::size_t a = 0; a < nattrs; ++a) {
        h = (h ^ vals[a][j]) * 1099511628211ULL;
      }
    }
  }
  return h;
}

void PimStore::rebuild_zone_crossbar(std::size_t attr,
                                     std::size_t crossbar) const {
  zones_.clear(attr, crossbar);
  const std::size_t blocks = rows_per_crossbar_ / kBlockRecords;
  const std::size_t first = crossbar * blocks;
  const std::size_t last = std::min(first + blocks, record_blocks());
  std::array<std::uint64_t, kBlockRecords> vals;
  for (std::size_t b = first; b < last; ++b) {
    read_attr_block(b, attr, vals);
    for (std::uint32_t j = 0; j < block_records(b); ++j) {
      zones_.add(attr, crossbar, vals[j]);
    }
  }
}

const ZoneMaps& PimStore::zone_maps() const {
  if (snap_ != nullptr) return snap_->zone_maps();
  if (zones_.any_stale()) {
    for (std::size_t a = 0; a < zones_.attr_count(); ++a) {
      if (!zones_.stale(a)) continue;
      for (std::size_t x = 0; x < zones_.crossbar_count(); ++x) {
        rebuild_zone_crossbar(a, x);
      }
      zones_.clear_stale(a);
    }
  }
  return zones_;
}

void PimStore::note_mutation(std::size_t attr,
                             const std::vector<std::uint32_t>* touched_crossbars) {
  if (snap_ != nullptr) {
    throw std::logic_error(
        "PimStore: view stores are immutable; apply updates through the "
        "builder (db::SnapshotManager) and adopt the published snapshot");
  }
  assert(mutation_locked_by_caller() &&
         "PimStore::note_mutation requires the mutation lock");
  attr_mutated_.at(attr) = true;
  distinct_stale_.at(attr) = true;
  data_version_.fetch_add(1, std::memory_order_acq_rel);

  // Zone sketches: rebuild exactly the crossbars the mutation touched when
  // the caller knows them (pim_update popcounts the select column per
  // crossbar anyway); an attribute already marked stale keeps its lazy
  // full rebuild — a partial refresh could not clear it.
  if (touched_crossbars != nullptr && !zones_.stale(attr)) {
    for (const std::uint32_t x : *touched_crossbars) {
      rebuild_zone_crossbar(attr, x);
    }
  } else {
    zones_.mark_stale(attr);
  }

  // Derived-statistics caches involving the attribute are stale; drop them
  // so the next consumer recomputes from current data (current_block reads
  // mutated attributes through the crossbars).
  for (auto it = fd_cache_.begin(); it != fd_cache_.end();) {
    it = (it->first.first == attr || it->first.second == attr)
             ? fd_cache_.erase(it)
             : std::next(it);
  }
  for (auto it = co_cache_.begin(); it != co_cache_.end();) {
    it = (it->first.first == attr || it->first.second == attr)
             ? co_cache_.erase(it)
             : std::next(it);
  }

  // Compiled-filter programs for the mutated part: the programs themselves
  // are pure functions of (predicates, layout), but the cache key cannot
  // observe data mutation — per-part invalidation keeps the contract simple
  // and is what the regression tests pin.
  filter_cache_.invalidate(part_of_attr(attr));

  // Page classifications summarize the mutated data; drop them wholesale
  // (keys do not name attributes, and mutation is rare on the builder).
  class_memo_.invalidate();
}

std::optional<std::vector<std::uint64_t>> scan_distinct(
    const PimStore& store, std::size_t attr, bool mutated,
    std::size_t max_distinct) {
  std::unordered_set<std::uint64_t> seen;
  std::array<std::uint64_t, PimStore::kBlockRecords> vals;
  for (std::size_t b = 0; b < store.record_blocks(); ++b) {
    store.current_block(b, attr, mutated, vals);
    for (std::uint32_t j = 0; j < store.block_records(b); ++j) {
      seen.insert(vals[j]);
      if (seen.size() > max_distinct) return std::nullopt;
    }
  }
  std::vector<std::uint64_t> sorted(seen.begin(), seen.end());
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

std::optional<std::unordered_map<std::uint64_t, std::uint64_t>>
scan_functional_dependency(const PimStore& store, std::size_t attr_a,
                           bool mutated_a, std::size_t attr_b, bool mutated_b,
                           std::size_t reserve) {
  std::unordered_map<std::uint64_t, std::uint64_t> map;
  map.reserve(reserve);
  std::array<std::uint64_t, PimStore::kBlockRecords> va;
  std::array<std::uint64_t, PimStore::kBlockRecords> vb;
  for (std::size_t b = 0; b < store.record_blocks(); ++b) {
    store.current_block(b, attr_a, mutated_a, va);
    store.current_block(b, attr_b, mutated_b, vb);
    for (std::uint32_t j = 0; j < store.block_records(b); ++j) {
      const auto [entry, fresh] = map.try_emplace(va[j], vb[j]);
      if (!fresh && entry->second != vb[j]) return std::nullopt;
    }
  }
  return map;
}

std::unordered_map<std::uint64_t, std::vector<std::uint64_t>>
scan_co_occurrence(const PimStore& store, std::size_t attr_a, bool mutated_a,
                   std::size_t attr_b, bool mutated_b, std::size_t reserve) {
  std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> map;
  map.reserve(reserve);
  std::array<std::uint64_t, PimStore::kBlockRecords> va;
  std::array<std::uint64_t, PimStore::kBlockRecords> vb;
  for (std::size_t b = 0; b < store.record_blocks(); ++b) {
    store.current_block(b, attr_a, mutated_a, va);
    store.current_block(b, attr_b, mutated_b, vb);
    for (std::uint32_t j = 0; j < store.block_records(b); ++j) {
      std::vector<std::uint64_t>& vals = map[va[j]];
      if (std::find(vals.begin(), vals.end(), vb[j]) == vals.end()) {
        vals.push_back(vb[j]);
      }
    }
  }
  for (auto& [a, vals] : map) std::sort(vals.begin(), vals.end());
  return map;
}

}  // namespace bbpim::engine
