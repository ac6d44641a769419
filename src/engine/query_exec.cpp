#include "engine/query_exec.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <set>
#include <stdexcept>
#include <unordered_map>

#include "common/parallel.hpp"
#include "engine/fault_injector.hpp"
#include "engine/filter_compiler.hpp"
#include "host/pipeline.hpp"
#include "host/read_set.hpp"
#include "pim/agg_circuit.hpp"
#include "pim/controller.hpp"
#include "pimdb/bitserial.hpp"

namespace bbpim::engine {
namespace {

using GroupKey = std::vector<std::uint64_t>;

struct KeyHash {
  std::size_t operator()(const GroupKey& k) const {
    std::size_t h = 1469598103934665603ULL;
    for (const std::uint64_t v : k) {
      h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
    return h;
  }
};

/// One aggregation pass (product/linearity decomposition; see header).
struct AggPass {
  bool use_select_as_value = false;  ///< value = the select bit column
  pim::Field value{};                ///< on part 0
  std::int64_t scale = 1;            ///< host-side multiplier for pass total
  /// AND this attribute bit column into the select (mul decomposition).
  std::optional<std::uint16_t> mask_attr_col;
  pim::AggOp op = pim::AggOp::kSum;
  bool carries_count = false;        ///< circuit also reports the row count
};

constexpr std::size_t kCandidateCap = 65536;
constexpr std::uint16_t kMulDecompositionMaxBits = 12;

}  // namespace

// ===========================================================================
// Execution context: one query run.
// ===========================================================================

namespace {

class Execution {
 public:
  /// `shared_allocs` (one ColumnAlloc per part) switches this execution into
  /// batch mode: scratch columns come from the batch's shared allocators —
  /// private allocators would hand different queries the same physical
  /// columns — and nothing else changes. nullptr (solo) builds private ones.
  /// `cancel_override` (batch mode) replaces the token resolve_cancel would
  /// derive from `opts` — each fused member checks its own token.
  Execution(EngineKind kind, PimStore& store, const host::HostConfig& hcfg,
            const LatencyModels& models, const sql::BoundQuery& q,
            const ExecOptions& opts,
            std::vector<pim::ColumnAlloc>* shared_allocs = nullptr,
            const CancelToken* cancel_override = nullptr)
      : kind_(kind),
        store_(store),
        cfg_(store.module().config()),
        hcfg_(hcfg),
        models_(models),
        q_(q),
        opts_(opts),
        sim_threads_(resolve_threads(opts.sim_threads.value_or(hcfg.sim_threads))),
        vectorized_(!opts.sim_scalar),
        prune_(opts.prune.value_or(hcfg.prune)),
        wallprof_(std::getenv("BBPIM_SIM_WALLPROF") != nullptr) {
    cancel_ = cancel_override != nullptr ? *cancel_override
                                         : resolve_cancel(opts);
    if (shared_allocs != nullptr) {
      alloc_src_ = shared_allocs;
    } else {
      for (int part = 0; part < store_.parts(); ++part) {
        allocs_.push_back(store_.layout(part).make_alloc());
      }
      alloc_src_ = &allocs_;
    }
    // Selectivity-ordered execution: predicates compile most-selective
    // first (sketch-estimated; deterministic). AND is commutative and each
    // predicate costs the same cycles at any position, so rows and modeled
    // stats are unchanged — the order is what EXPLAIN shows and what the
    // zone-map classifier meets first.
    filters_ = order_by_selectivity(q.filters, store);
    all_pages_.resize(store.pages_per_part());
    for (std::size_t p = 0; p < all_pages_.size(); ++p) all_pages_[p] = p;
    if (prune_) {
      // Memoized classification: batch members sharing a WHERE — and
      // repeated executions against the same store version — reuse one
      // analysis instead of re-classifying every (page, predicate) pair.
      analysis_ = analyze_filters_cached(filters_, store,
                                         &stats_.classification_memo_hits);
      for (std::size_t p = 0; p < all_pages_.size(); ++p) {
        if (!analysis_->page_skip[p]) active_pages_.push_back(p);
      }
    } else {
      active_pages_ = all_pages_;
    }
    mask_ready_.assign(all_pages_.size(), 0);
  }

  QueryOutput run();

  /// Filter-only scan: filter phase, residual bit-vector read, survivor
  /// walk reading back `attrs` (see PimQueryEngine::execute_scan).
  ScanOutput run_scan(const std::vector<std::size_t>& attrs);

  // --- shared-scan batching -------------------------------------------------
  // A batch executes in three stages. Stage 1, per member in batch order:
  // batch_prepare() analyzes and compiles the member's WHERE (no gate
  // program runs). Stage 2, once: run_fused_filter() walks the store page by
  // page and runs every member's gate program back to back per crossbar
  // visit, journaling energy and traces per (visit, member). Stage 3, per
  // member in batch order: batch_finish() schedules the member's own traces
  // into its own clock and runs the rest of the query exactly as run()
  // would. Per-member meters, trackers, and clocks mean a member's modeled
  // cost comes entirely from its own work — a batchmate is never billed.

  /// Stage 1: predicate analysis, program compilation (through the shared
  /// filter cache), always-true page synthesis. Caller resets module wear
  /// once per batch before any stage-2 program runs.
  void batch_prepare() { filter_compile(); }

  /// Stage 2: the fused pass. Visits every (part, page) some member runs
  /// on, in part-major page-ascending order — each member's subsequence is
  /// exactly its solo job order, which is what keeps its meter replay and
  /// trace schedule bit-identical in shape to a solo run. Members' programs
  /// within one visit run sequentially in batch order (programs may share
  /// released temp columns; sequencing makes the reuse safe), visits run in
  /// parallel under the batch's sim-thread budget with per-(visit, member)
  /// journal meters replayed deterministically afterwards.
  static void run_fused_filter(const std::vector<Execution*>& execs);

  /// Stage 3: schedules this member's fused traces (same order and window
  /// parameters its solo logic_phase would use), combines part results,
  /// builds the aggregation plan, and finishes the query. Releases every
  /// scratch column still held so the shared allocator is clean for the
  /// next member's tail.
  QueryOutput batch_finish();

 private:
  // --- small helpers --------------------------------------------------------
  std::size_t pages() const { return store_.pages_per_part(); }
  std::uint32_t rows() const { return cfg_.crossbar_rows; }
  pim::ColumnAlloc& alloc(int part) { return (*alloc_src_)[part]; }

  /// Wall-clock phase instrumentation of the simulation itself (not the
  /// modeled time), printed to stderr when BBPIM_SIM_WALLPROF is set.
  template <typename Fn>
  void wall(const char* name, Fn&& fn) {
    if (!wallprof_) {
      fn();
      return;
    }
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    std::fprintf(stderr, "[sim-wall] %-12s %8.3f ms\n", name,
                 std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count());
  }

  void advance_clock(TimeNs phase_end, TimeNs* slot) {
    const TimeNs dur = phase_end - clock_ + hcfg_.phase_overhead_ns;
    *slot += dur;
    clock_ += dur;
  }

  /// Schedules one phase of per-page requests and advances the clock.
  void schedule_phase(const std::vector<pim::RequestTrace>& traces,
                      std::uint32_t window, TimeNs issue_gap, TimeNs* slot) {
    host::ScheduleParams params;
    params.threads = hcfg_.threads;
    params.window = window;
    params.issue_gap_ns = issue_gap;
    const TimeNs end =
        host::schedule_requests(traces, params, clock_, &tracker_);
    stats_.pim_requests += traces.size();
    advance_clock(end, slot);
  }

  /// Runs fn(job_index, meter) for every index in [0, n), split across the
  /// simulation thread budget. Jobs must be independent (each touches its
  /// own page and writes its own output slots). Parallel workers accumulate
  /// energy into per-chunk journaling meters that are replayed into meter_
  /// in chunk (== job) order afterwards, so every run — serial or parallel,
  /// any thread count — performs the identical sequence of meter adds and
  /// stays bit-identical.
  template <typename Fn>
  void run_jobs(std::size_t n, Fn&& fn) {
    if (sim_threads_ <= 1 || n <= 1) {
      for (std::size_t i = 0; i < n; ++i) fn(i, meter_);
      return;
    }
    const std::size_t chunks = parallel_chunks(n, sim_threads_);
    std::vector<pim::EnergyMeter> meters(chunks,
                                         pim::EnergyMeter(/*journal=*/true));
    parallel_for(n, sim_threads_,
                 [&](std::size_t chunk, std::size_t begin, std::size_t end) {
                   for (std::size_t i = begin; i < end; ++i) {
                     fn(i, meters[chunk]);
                   }
                 });
    for (const pim::EnergyMeter& m : meters) m.replay_into(meter_);
  }

  /// One program of a logic phase: the gate program (costed) plus its
  /// optional word-level semantic twin (fast functional evaluation), run on
  /// `run_pages` (nullptr = every page).
  struct PhaseProg {
    int part;
    const pim::MicroProgram* prog;
    const pim::WordProgram* words = nullptr;
    const std::vector<std::size_t>* run_pages = nullptr;
  };

  /// Runs a micro-program on the selected pages of selected parts as one
  /// phase. Pages absent from a program's run list get no request, no
  /// modeled cost, and no functional effect — zone-map pruning in action.
  void logic_phase(const std::vector<PhaseProg>& part_programs, TimeNs* slot) {
    struct Job {
      const PhaseProg* pp;
      std::size_t page;
    };
    std::vector<Job> jobs;
    for (const PhaseProg& pp : part_programs) {
      if (pp.prog == nullptr || pp.prog->empty()) continue;
      const std::vector<std::size_t>& run =
          pp.run_pages != nullptr ? *pp.run_pages : all_pages_;
      for (const std::size_t p : run) jobs.push_back({&pp, p});
    }
    if (jobs.empty()) return;
    // Cooperative checkpoint + fault seam at page-loop entry: unwinding here
    // is clean (no job has touched a crossbar yet), and the check stays off
    // the per-page kernels.
    cancel_.check();
    fault_point(FaultSeam::kCrossbarVisit);
    std::vector<pim::RequestTrace> traces(jobs.size());
    run_jobs(jobs.size(), [&](std::size_t i, pim::EnergyMeter& meter) {
      const Job& j = jobs[i];
      traces[i] =
          pim::execute_program(store_.page(j.pp->part, j.page), *j.pp->prog,
                               cfg_, &meter, vectorized_, j.pp->words);
    });
    schedule_phase(traces, hcfg_.request_window, hcfg_.issue_ns, slot);
  }

  /// Reads one bit column of the listed pages of a part (host streaming
  /// reads; nullptr = every page). The returned vector is indexed by page;
  /// unread pages hold empty BitVecs — their select is statically empty, so
  /// no readback is modeled (or performed) for them.
  std::vector<BitVec> read_column_phase(
      int part, std::uint16_t col, TimeNs* slot,
      const std::vector<std::size_t>* pages_list = nullptr) {
    const std::vector<std::size_t>& run =
        pages_list != nullptr ? *pages_list : all_pages_;
    cancel_.check();
    fault_point(FaultSeam::kReadback);
    std::vector<BitVec> out(pages());
    std::vector<pim::RequestTrace> traces(run.size());
    run_jobs(run.size(), [&](std::size_t i, pim::EnergyMeter& meter) {
      const std::size_t p = run[i];
      traces[i] =
          pim::read_bit_column(store_.page(part, p), col, hcfg_.line_stream_ns,
                               cfg_, &meter, &out[p], vectorized_);
    });
    // Plain loads: the issuing thread is occupied for the whole stream.
    schedule_phase(traces, /*window=*/1, /*issue_gap=*/0.0, slot);
    return out;
  }

  /// Writes per-page bit vectors into a column of a part (two-xb transfer);
  /// `bits` is indexed by page, only the listed pages are written.
  void write_column_phase(int part, std::uint16_t col,
                          const std::vector<BitVec>& bits, TimeNs* slot,
                          const std::vector<std::size_t>* pages_list = nullptr) {
    const std::vector<std::size_t>& run =
        pages_list != nullptr ? *pages_list : all_pages_;
    std::vector<pim::RequestTrace> traces(run.size());
    run_jobs(run.size(), [&](std::size_t i, pim::EnergyMeter& meter) {
      const std::size_t p = run[i];
      traces[i] = pim::write_bit_column(store_.page(part, p), col, bits[p],
                                        hcfg_.line_stream_ns, cfg_, &meter,
                                        vectorized_);
    });
    schedule_phase(traces, /*window=*/1, /*issue_gap=*/0.0, slot);
  }

  /// Host-known-constant column synthesis: functionally fills `col` of the
  /// listed pages with a copy of the part's validity column. Used when the
  /// zone-map analyzer proved the page's predicate subset always-true (the
  /// select IS the validity column) and when zeroing the pim-gb mask on
  /// pages a pruned subgroup never touched. The host knows these values
  /// statically, so nothing is modeled: no request, no energy, no wear.
  void synthesize_column(int part, std::uint16_t col,
                         const std::vector<std::size_t>& pages_list,
                         bool valid_copy) {
    const std::uint16_t valid = store_.layout(part).valid_col();
    for (const std::size_t p : pages_list) {
      pim::Page& page = store_.page(part, p);
      for (std::uint32_t x = 0; x < page.crossbar_count(); ++x) {
        pim::Crossbar& xb = page.crossbar(x);
        std::uint64_t* dst = xb.column_data_mut(col);
        const std::uint32_t words = xb.words_per_column();
        if (valid_copy) {
          const std::uint64_t* src = xb.column_data(valid);
          for (std::uint32_t w = 0; w < words; ++w) dst[w] = src[w];
        } else {
          for (std::uint32_t w = 0; w < words; ++w) dst[w] = 0;
        }
      }
    }
  }

  /// Zeroes the pim-gb mask column on any listed page whose mask was never
  /// initialized by a subgroup program (the subgroup's select is provably
  /// empty there, so zero IS its value).
  void ensure_mask_zero(const std::vector<std::size_t>& pages_list) {
    std::vector<std::size_t> missing;
    for (const std::size_t p : pages_list) {
      if (!mask_ready_[p]) missing.push_back(p);
    }
    if (!missing.empty()) {
      synthesize_column(0, mask_col_, missing, /*valid_copy=*/false);
      for (const std::size_t p : missing) mask_ready_[p] = 1;
    }
  }

  /// Charges a host read of `total_lines` result lines (streaming).
  void line_read_phase(std::size_t total_lines, TimeNs* slot) {
    const double per_thread =
        std::ceil(static_cast<double>(total_lines) / hcfg_.threads);
    meter_.add(pim::EnergyCat::kRead,
               static_cast<double>(total_lines) * cfg_.line_bytes() * 8 *
                   cfg_.read_energy_pj_per_bit * units::kJoulePerPj);
    advance_clock(clock_ + per_thread * hcfg_.line_stream_ns, slot);
  }

  // --- phases ---------------------------------------------------------------
  /// Filter front half: prune stats, program compilation (filter cache),
  /// per-part run-page and pending-synthesis lists. No gate program runs.
  void filter_compile();
  /// Copies the validity column into the result column of every page queued
  /// in synth_pages_ (see that member for why this runs after the gate
  /// programs, never before).
  void synthesize_pending();
  /// Filter back half: part combination (two-xb transfer + AND) and the
  /// selected-record popcount. Requires the gate programs to have run and
  /// synthesize_pending() to have been called.
  void filter_combine();
  /// filter_compile + the solo gate-program phase + filter_combine; the
  /// batch path replaces the middle step with the fused pass.
  void filter_phase();
  /// Everything run() does after the filter phase: aggregation, planning,
  /// group-by, finalize, planner-input export, stats epilogue.
  QueryOutput finish_run();
  void build_agg_passes();
  void no_groupby_aggregate();
  void sample_phase();
  void build_candidates();
  void plan_phase();
  void pim_gb_phase();
  void host_gb_phase();
  void finalize_phase();
  /// Stats epilogue shared by run() and run_scan(): modeled total, energy
  /// breakdown, peak chip power, wear.
  void finish_stats();

  /// Aggregates one pass over `select_col` on the listed pages; returns the
  /// combined value across crossbars and pages (SUM adds, MIN/MAX fold);
  /// `out_count` receives the circuit count when the pass carries it.
  /// Unlisted pages provably contribute the fold identity (their select is
  /// statically empty), so skipping them is exact.
  std::uint64_t run_agg_pass(const AggPass& pass, std::uint16_t select_col,
                             std::uint64_t* out_count, TimeNs* slot,
                             const std::vector<std::size_t>& on_pages);

  /// Aggregates one subgroup (all passes); returns {agg value, count}.
  std::pair<std::int64_t, std::uint64_t> aggregate_group(const GroupKey& key,
                                                         bool update_mask);

  std::vector<std::uint64_t> group_attr_key(std::size_t record) const {
    std::vector<std::uint64_t> key;
    key.reserve(q_.group_by.size());
    for (const std::size_t a : q_.group_by) {
      key.push_back(store_.read_attr(record, a));
    }
    return key;
  }

  /// (part, chunk) pairs the host touches per record for the given attrs.
  std::set<std::pair<int, std::uint32_t>> chunk_set(
      const std::vector<std::size_t>& attrs) const {
    std::set<std::pair<int, std::uint32_t>> chunks;
    for (const std::size_t a : attrs) {
      const int part = store_.part_of_attr(a);
      const pim::Field f = store_.field(a);
      const std::uint32_t first = f.offset / cfg_.read_bits;
      const std::uint32_t last = (f.offset + f.width - 1) / cfg_.read_bits;
      for (std::uint32_t c = first; c <= last; ++c) chunks.insert({part, c});
    }
    return chunks;
  }

  std::vector<std::size_t> host_read_attrs() const {
    std::vector<std::size_t> attrs(q_.group_by);
    if (!(q_.agg_func == sql::AggFunc::kCount)) {
      attrs.push_back(q_.agg_expr.a);
      if (q_.agg_expr.kind != sql::Expr::Kind::kColumn) {
        attrs.push_back(q_.agg_expr.b);
      }
    }
    return attrs;
  }

  /// An attribute resolved once for a block walk: its part and field.
  struct WalkAttr {
    int part;
    pim::Field f;
  };
  std::vector<WalkAttr> walk_attrs(const std::vector<std::size_t>& attrs) const {
    std::vector<WalkAttr> walk;
    walk.reserve(attrs.size());
    for (const std::size_t a : attrs) {
      walk.push_back({store_.part_of_attr(a), store_.field(a)});
    }
    return walk;
  }
  using BlockValues = std::vector<std::array<std::uint64_t, 64>>;

  /// Survivor mask of record block `blk` of a page (its records
  /// [64 * blk, 64 * blk + 64), one row word of one crossbar): the page's
  /// select bits cut at its `valid` records.
  static std::uint64_t block_mask(const BitVec& bits, std::size_t blk,
                                  std::uint32_t valid) {
    const std::size_t first = blk * 64;
    if (first >= valid) return 0;
    const std::uint64_t m = bits.words()[blk];
    return valid - first >= 64 ? m : m & ((1ULL << (valid - first)) - 1);
  }

  /// Walks the survivors of page `p` a record block at a time, in record
  /// order: for every block with a survivor, gathers each of `walk`'s
  /// attributes with one crossbar block gather (vals[a][j] for every bit j
  /// of the block's survivor mask) and calls
  /// fn(first_record_in_page, mask, vals). Returns the page's unique host
  /// lines: a line carries one chunk of one row of every crossbar of the
  /// page, so they are the rows any crossbar's survivor sits on (the block
  /// masks OR-ed across crossbars) times `chunks` lines per row — the count
  /// a per-survivor ReadSet::touch of every chunk would reach.
  template <typename Fn>
  std::uint32_t walk_page_blocks(std::size_t p, const BitVec& bits,
                                 const std::vector<WalkAttr>& walk,
                                 std::size_t chunks, BlockValues& vals,
                                 Fn&& fn) {
    const std::uint32_t valid = store_.page_records(p);
    const pim::Page* part_pages[2] = {&store_.page(0, p), nullptr};
    if (store_.parts() == 2) part_pages[1] = &store_.page(1, p);
    const std::uint32_t row_words = rows() / 64;
    std::vector<std::uint64_t> row_or(row_words, 0);
    vals.resize(walk.size());
    for (std::uint32_t x = 0; x < part_pages[0]->crossbar_count(); ++x) {
      for (std::uint32_t w = 0; w < row_words; ++w) {
        const std::size_t blk = static_cast<std::size_t>(x) * row_words + w;
        const std::uint64_t mask = block_mask(bits, blk, valid);
        if (mask == 0) continue;
        row_or[w] |= mask;
        for (std::size_t a = 0; a < walk.size(); ++a) {
          part_pages[walk[a].part]->crossbar(x).read_rows_block(
              w, mask, walk[a].f.offset, walk[a].f.width, vals[a]);
        }
        fn(blk * 64, mask, vals);
      }
    }
    std::uint32_t rows_hit = 0;
    for (const std::uint64_t m : row_or) {
      rows_hit += static_cast<std::uint32_t>(std::popcount(m));
    }
    return rows_hit * static_cast<std::uint32_t>(chunks);
  }

  // --- members ---------------------------------------------------------------
  EngineKind kind_;
  PimStore& store_;
  const pim::PimConfig& cfg_;
  const host::HostConfig& hcfg_;
  const LatencyModels& models_;
  const sql::BoundQuery& q_;
  const ExecOptions& opts_;

  std::vector<pim::ColumnAlloc> allocs_;   ///< private scratch (solo mode)
  /// Where alloc() draws from: &allocs_ solo, the batch's shared set fused.
  std::vector<pim::ColumnAlloc>* alloc_src_ = nullptr;
  unsigned sim_threads_ = 1;  ///< resolved simulation thread budget
  bool vectorized_ = true;    ///< fast kernels (off for the scalar baseline)
  bool prune_ = false;        ///< zone-map data skipping for this execution
  bool wallprof_ = false;     ///< BBPIM_SIM_WALLPROF phase instrumentation
  /// q_.filters reordered most-selective-first (what actually compiles).
  std::vector<sql::BoundPredicate> filters_;
  /// Shared (memoized) when prune_; nullptr otherwise.
  std::shared_ptr<const FilterPruneAnalysis> analysis_;
  std::vector<std::size_t> all_pages_;     ///< 0 .. pages()-1
  std::vector<std::size_t> active_pages_;  ///< pages the filter executes on
  std::vector<std::uint8_t> mask_ready_;   ///< mask_col_ initialized per page
  /// Compiled per-part WHERE programs (filter_compile -> combine/fused pass).
  std::vector<std::shared_ptr<const CompiledFilter>> compiled_;
  /// Per-part pages whose gate program actually runs (active minus synth).
  std::vector<std::vector<std::size_t>> run_pages_;
  /// Per-part pages whose predicate subset is provably always-true, awaiting
  /// validity-copy synthesis. Deferred until after the gate programs ran:
  /// in a batch, a batchmate's program may reuse this member's result column
  /// as a released temp on pages this member never visits — synthesizing
  /// before the fused pass would let that trample the copied bits. (Solo
  /// runs synthesize between compile and the logic phase, as always.)
  std::vector<std::vector<std::size_t>> synth_pages_;
  bool skip_transfer_ = false;  ///< two-xb: part 1 provably all-true
  /// Fused-pass traces of THIS member, in its solo job order; scheduled by
  /// batch_finish into the member's own clock.
  std::vector<pim::RequestTrace> pending_traces_;
  pim::EnergyMeter meter_;
  pim::PowerTracker tracker_;
  TimeNs clock_ = 0;
  QueryStats stats_;
  /// Effective abort token (empty = every check free); see the ctor.
  CancelToken cancel_;

  std::uint16_t r_col_ = 0;          ///< filter result on part 0
  std::uint16_t mask_col_ = 0;       ///< OR of pim-gb subgroup selects
  bool mask_valid_ = false;
  std::optional<pim::Field> transfer_chunk_;  ///< part-0 chunk for transfers

  std::vector<AggPass> passes_;
  pim::Field result_field_{};
  pim::Field count_field_{};
  std::uint32_t n_chunks_ = 1;  ///< model parameter n
  std::uint32_t s_chunks_ = 2;  ///< model parameter s

  std::vector<GroupCandidate> candidates_;
  bool candidates_complete_ = true;
  double selectivity_est_ = 0;
  std::size_t chosen_k_ = 0;

  std::unordered_map<GroupKey, std::pair<std::int64_t, bool>, KeyHash>
      results_;  ///< key -> (agg, from_pim)
  std::vector<ResultRow> rows_;
};

// ---------------------------------------------------------------------------
// Phase 1: filter
// ---------------------------------------------------------------------------

void Execution::filter_compile() {
  if (prune_) {
    stats_.pages_skipped = analysis_->pages_skipped;
    stats_.pages_synthesized = analysis_->pages_synthesized;
    stats_.crossbars_skipped = analysis_->crossbars_skipped;
    stats_.predicates_short_circuited = analysis_->predicates_short_circuited;
  }

  // Memoized compilation: the key covers (predicates, part, allocator
  // state), so repeated prepared-statement executions reuse the program and
  // only replay its result-column allocation. The scalar baseline compiles
  // from scratch, matching the pre-cache behavior it measures.
  const std::size_t cache_h0 = store_.filter_cache().hit_count();
  const std::size_t cache_m0 = store_.filter_cache().miss_count();
  for (int part = 0; part < store_.parts(); ++part) {
    if (vectorized_) {
      compiled_.push_back(store_.filter_cache().get_or_compile(
          filters_, part, store_.layout(part), alloc(part)));
    } else {
      compiled_.push_back(std::make_shared<const CompiledFilter>(
          compile_filter(filters_, store_.layout(part), alloc(part))));
    }
  }
  if (vectorized_) {
    stats_.filter_cache_hits = store_.filter_cache().hit_count() - cache_h0;
    stats_.filter_cache_misses =
        store_.filter_cache().miss_count() - cache_m0;
  }

  // Per-part gate-program page lists: active pages minus the pages whose
  // part subset is provably always-true — those get the validity column
  // synthesized into the result column instead (no gate program).
  run_pages_.assign(store_.parts(), {});
  // two-xb: when every active page of part 1 is synthesizable, its result
  // column would be exactly the validity column, which part 0's program
  // already folds in — the whole inter-part transfer is skipped.
  skip_transfer_ =
      prune_ && store_.parts() == 2 &&
      [&] {
        for (const std::size_t p : active_pages_) {
          if (!analysis_->page_synth[p][1]) return false;
        }
        return true;
      }();
  synth_pages_.assign(store_.parts(), {});
  for (int part = 0; part < store_.parts(); ++part) {
    if (part == 1 && skip_transfer_) continue;  // program never needed
    for (const std::size_t p : active_pages_) {
      if (prune_ && analysis_->page_synth[p][part]) {
        synth_pages_[part].push_back(p);
      } else {
        run_pages_[part].push_back(p);
      }
    }
  }
}

void Execution::synthesize_pending() {
  for (int part = 0; part < store_.parts(); ++part) {
    if (!synth_pages_[part].empty()) {
      synthesize_column(part, compiled_[part]->result_col, synth_pages_[part],
                        /*valid_copy=*/true);
      synth_pages_[part].clear();
    }
  }
}

void Execution::filter_combine() {
  if (store_.parts() == 1) {
    r_col_ = compiled_[0]->result_col;
  } else if (skip_transfer_) {
    alloc(1).release(compiled_[1]->result_col);
    r_col_ = compiled_[0]->result_col;
  } else {
    // two-xb: ship part 1's bits through the host and AND them into part 0.
    transfer_chunk_ = alloc(0).alloc_aligned_chunk(cfg_.read_bits);
    const std::vector<BitVec> bits = read_column_phase(
        1, compiled_[1]->result_col, &stats_.phases.transfer, &active_pages_);
    write_column_phase(0, transfer_chunk_->offset, bits,
                       &stats_.phases.transfer, &active_pages_);
    pim::ProgramBuilder pb(alloc(0));
    const std::uint16_t combined =
        pb.emit_and(compiled_[0]->result_col, transfer_chunk_->offset);
    const pim::WordProgram wp = {pim::WordOp::and_op(
        compiled_[0]->result_col, transfer_chunk_->offset, combined)};
    const pim::MicroProgram prog = pb.take();
    logic_phase({{0, &prog, &wp, &active_pages_}}, &stats_.phases.transfer);
    alloc(0).release(compiled_[0]->result_col);
    alloc(1).release(compiled_[1]->result_col);
    r_col_ = combined;
  }

  // Free introspection: exact selected-record count for the stats tables.
  // Copy-free column popcounts, active pages in parallel, reduced in page
  // order; skipped pages provably select nothing and contribute zero.
  std::vector<std::size_t> page_selected(pages(), 0);
  run_jobs(active_pages_.size(), [&](std::size_t i, pim::EnergyMeter&) {
    const std::size_t p = active_pages_[i];
    pim::Page& page = store_.page(0, p);
    std::size_t n = 0;
    for (std::uint32_t x = 0; x < page.crossbar_count(); ++x) {
      n += vectorized_ ? page.crossbar(x).column_popcount(r_col_)
                       : page.crossbar(x).column(r_col_).popcount();
    }
    page_selected[p] = n;
  });
  std::size_t selected = 0;
  for (const std::size_t n : page_selected) selected += n;
  stats_.selected_records = selected;
  stats_.selectivity =
      static_cast<double>(selected) / static_cast<double>(store_.record_count());
}

void Execution::filter_phase() {
  filter_compile();
  {
    std::vector<PhaseProg> progs;
    for (int part = 0; part < store_.parts(); ++part) {
      if (part == 1 && skip_transfer_) continue;
      progs.push_back({part, &compiled_[part]->program, &compiled_[part]->words,
                       &run_pages_[part]});
    }
    logic_phase(progs, &stats_.phases.filter);
  }
  synthesize_pending();
  filter_combine();
}

// ---------------------------------------------------------------------------
// Aggregation pass construction
// ---------------------------------------------------------------------------

void Execution::build_agg_passes() {
  using sql::AggFunc;
  using sql::Expr;

  const rel::Schema& schema = store_.table().schema();
  auto part0_field = [&](std::size_t attr) {
    if (store_.part_of_attr(attr) != 0) {
      throw std::runtime_error(
          "aggregated attribute '" + schema.attribute(attr).name +
          "' must reside in the fact partition");
    }
    return store_.field(attr);
  };

  std::uint32_t max_value_bits = 1;
  if (q_.agg_func == AggFunc::kCount) {
    AggPass p;
    p.use_select_as_value = true;
    p.carries_count = false;  // the pass value IS the count
    passes_.push_back(p);
  } else if (q_.agg_expr.kind == Expr::Kind::kColumn) {
    AggPass p;
    p.value = part0_field(q_.agg_expr.a);
    p.op = q_.agg_func == AggFunc::kMin   ? pim::AggOp::kMin
           : q_.agg_func == AggFunc::kMax ? pim::AggOp::kMax
                                          : pim::AggOp::kSum;
    p.carries_count = true;
    passes_.push_back(p);
    max_value_bits = p.value.width;
  } else if (q_.agg_expr.kind == Expr::Kind::kSub ||
             q_.agg_expr.kind == Expr::Kind::kAdd) {
    if (q_.agg_func != AggFunc::kSum) {
      throw std::runtime_error("MIN/MAX over expressions is not supported");
    }
    // SUM(a +- b) = SUM(a) +- SUM(b).
    AggPass pa;
    pa.value = part0_field(q_.agg_expr.a);
    pa.carries_count = true;
    passes_.push_back(pa);
    AggPass pb;
    pb.value = part0_field(q_.agg_expr.b);
    pb.scale = q_.agg_expr.kind == Expr::Kind::kSub ? -1 : 1;
    passes_.push_back(pb);
    max_value_bits = std::max(pa.value.width, pb.value.width);
  } else {  // kMul
    if (q_.agg_func != AggFunc::kSum) {
      throw std::runtime_error("MIN/MAX over expressions is not supported");
    }
    pim::Field fa = part0_field(q_.agg_expr.a);
    pim::Field fb = part0_field(q_.agg_expr.b);
    if (fb.width > fa.width) std::swap(fa, fb);  // fb is the narrow one
    if (fb.width > kMulDecompositionMaxBits) {
      throw std::runtime_error(
          "SUM of a product needs one operand of <= 12 bits");
    }
    // SUM(a*b) = sum_i 2^i * SUM(a | b_i AND select).
    for (std::uint16_t i = 0; i < fb.width; ++i) {
      AggPass p;
      p.value = fa;
      p.scale = static_cast<std::int64_t>(1) << i;
      p.mask_attr_col = static_cast<std::uint16_t>(fb.offset + i);
      passes_.push_back(p);
    }
    // All passes are masked; a dedicated pass recovers the subgroup count.
    AggPass pc;
    pc.use_select_as_value = true;
    pc.scale = 0;
    passes_.push_back(pc);
    max_value_bits = fa.width;
  }

  // Result slots: sums over 1024 rows add log2(rows) bits.
  const std::uint32_t result_bits = std::min<std::uint32_t>(
      64, max_value_bits + rel::bits_for_max(rows() - 1));
  result_field_ = alloc(0).alloc_field(static_cast<std::uint16_t>(result_bits));
  count_field_ =
      alloc(0).alloc_field(static_cast<std::uint16_t>(rel::bits_for_max(rows())));

  for (const AggPass& p : passes_) {
    const std::uint32_t n =
        p.use_select_as_value ? 1 : pim::chunk_span(p.value, cfg_);
    n_chunks_ = std::max(n_chunks_, n);
  }
  s_chunks_ = static_cast<std::uint32_t>(chunk_set(host_read_attrs()).size());
}

// ---------------------------------------------------------------------------
// One aggregation pass over a select column
// ---------------------------------------------------------------------------

std::uint64_t Execution::run_agg_pass(const AggPass& pass,
                                      std::uint16_t select_col,
                                      std::uint64_t* out_count, TimeNs* slot,
                                      const std::vector<std::size_t>& on_pages) {
  const bool want_count = pass.carries_count && out_count != nullptr;
  pim::AggRequest req;
  req.select_col = select_col;
  req.value = pass.use_select_as_value ? pim::Field{select_col, 1} : pass.value;
  req.op = pass.op;
  req.result = result_field_;
  req.result_row = 0;
  req.with_count = want_count;
  req.count = count_field_;

  // Per-page partial folds, combined in page order at the end: SUM is exact
  // modular u64 addition and MIN/MAX are associative, so the split cannot
  // change the result. In vectorized mode the partials are captured while
  // the circuits run (the written result fields read back to exactly the
  // captured masked values, so re-reading them is pure overhead); the
  // scalar baseline reads them back from the crossbars like the host would.
  struct Partial {
    std::uint64_t acc;
    std::uint64_t count;
  };
  const std::uint64_t value_max =
      req.value.width >= 64 ? ~0ULL : (1ULL << req.value.width) - 1;
  std::vector<Partial> partials(
      on_pages.size(), Partial{req.op == pim::AggOp::kMin ? value_max : 0, 0});
  bool folded = false;

  if (kind_ == EngineKind::kPimdb) {
    // Pure bulk-bitwise reduction: identical result, very different price.
    // Each tree level is a separate macro request per page (the host must
    // fence between levels), so the reduction costs one scheduled phase per
    // level — the issue-cost multiplier behind PIMDB's Table II column.
    std::vector<std::uint64_t> phases =
        pimdb::bitserial_agg_phases(req.value.width, rows(), req.op);
    if (want_count) {
      const std::vector<std::uint64_t> count_phases =
          pimdb::bitserial_agg_phases(1, rows(), pim::AggOp::kSum);
      phases.insert(phases.end(), count_phases.begin(), count_phases.end());
    }
    std::uint64_t total_cycles = 0;
    for (const std::uint64_t c : phases) total_cycles += c;

    run_jobs(on_pages.size(), [&](std::size_t i, pim::EnergyMeter&) {
      pim::Page& page = store_.page(0, on_pages[i]);
      Partial& part = partials[i];
      for (std::uint32_t x = 0; x < page.crossbar_count(); ++x) {
        pim::Crossbar& xb = page.crossbar(x);
        std::uint64_t count = 0;
        const std::uint64_t v = pim::compute_aggregate(
            xb, req.value, select_col, req.op, &count, vectorized_);
        const std::uint64_t rmask =
            req.result.width >= 64 ? ~0ULL : (1ULL << req.result.width) - 1;
        xb.write_row_bits(0, req.result.offset, req.result.width, v & rmask);
        if (want_count) {
          xb.write_row_bits(0, req.count.offset, req.count.width, count);
        }
        xb.add_uniform_wear(total_cycles);
        if (vectorized_) {
          part.acc = pim::agg_fold(req.op, part.acc, v & rmask);
          const std::uint64_t cmask =
              req.count.width >= 64 ? ~0ULL : (1ULL << req.count.width) - 1;
          if (want_count) part.count += count & cmask;
        }
      }
    });
    folded = vectorized_;
    for (const std::uint64_t cycles : phases) {
      std::vector<pim::RequestTrace> traces;
      traces.reserve(on_pages.size());
      for (const std::size_t p : on_pages) {
        pim::RequestTrace t = pim::logic_trace_cost(
            cfg_, cycles, store_.page(0, p).crossbar_count());
        meter_.add(pim::EnergyCat::kLogic, t.energy_j);
        traces.push_back(t);
      }
      schedule_phase(traces, hcfg_.request_window, hcfg_.issue_ns, slot);
    }
  } else {
    std::vector<pim::RequestTrace> traces(on_pages.size());
    std::vector<pim::PageAggResult> page_results(on_pages.size());
    run_jobs(on_pages.size(), [&](std::size_t i, pim::EnergyMeter& meter) {
      traces[i] =
          pim::execute_aggregate(store_.page(0, on_pages[i]), req, cfg_,
                                 &meter, vectorized_,
                                 vectorized_ ? &page_results[i] : nullptr);
    });
    if (vectorized_) {
      for (std::size_t i = 0; i < on_pages.size(); ++i) {
        partials[i] = Partial{page_results[i].value, page_results[i].count};
      }
      folded = true;
    }
    schedule_phase(traces, hcfg_.request_window, hcfg_.issue_ns, slot);
  }

  // Host fetches each crossbar's result (and count) line(s) — only from
  // pages that ran the pass.
  std::uint32_t lines_per_page = pim::chunk_span(result_field_, cfg_);
  if (want_count) lines_per_page += pim::chunk_span(count_field_, cfg_);
  line_read_phase(on_pages.size() * lines_per_page, slot);

  if (!folded) {
    run_jobs(on_pages.size(), [&](std::size_t i, pim::EnergyMeter&) {
      pim::Page& page = store_.page(0, on_pages[i]);
      Partial& part = partials[i];
      for (std::uint32_t x = 0; x < page.crossbar_count(); ++x) {
        const std::uint64_t v = page.crossbar(x).read_row_bits(
            0, result_field_.offset, result_field_.width);
        part.acc = pim::agg_fold(req.op, part.acc, v);
        if (want_count) {
          part.count += page.crossbar(x).read_row_bits(0, count_field_.offset,
                                                       count_field_.width);
        }
      }
    });
  }
  std::uint64_t acc = req.op == pim::AggOp::kMin ? value_max : 0;
  std::uint64_t count = 0;
  for (const Partial& part : partials) {
    acc = pim::agg_fold(req.op, acc, part.acc);
    count += part.count;
  }
  if (want_count) *out_count = count;
  return acc;
}

// ---------------------------------------------------------------------------
// Subgroup aggregation (pim-gb)
// ---------------------------------------------------------------------------

std::pair<std::int64_t, std::uint64_t> Execution::aggregate_group(
    const GroupKey& key, bool update_mask) {
  TimeNs* slot = &stats_.phases.pim_gb;

  // Zone-map pruning, per subgroup: pages where the sketches refute the
  // group key on every crossbar cannot hold a member, so the group match,
  // the aggregation passes, and the result readback are all skipped there.
  // The subgroup select is provably all-zero on those pages, which is
  // exactly what the mask bookkeeping below synthesizes when needed.
  std::vector<std::size_t> group_pages;
  const std::vector<std::size_t>* on = &active_pages_;
  if (prune_) {
    const std::vector<std::uint8_t> possible =
        analyze_group_match(q_.group_by, key, store_, &active_pages_);
    for (const std::size_t p : active_pages_) {
      if (possible[p]) group_pages.push_back(p);
    }
    stats_.group_pages_skipped += active_pages_.size() - group_pages.size();
    on = &group_pages;
    if (on->empty()) return {0, 0};  // no page can hold this subgroup
  }

  // Part-1 group match (two-xb): compute, then transfer to part 0.
  bool have_transfer = false;
  if (store_.parts() == 2) {
    CompiledFilter match1 =
        compile_group_match(q_.group_by, key, store_.layout(1), alloc(1));
    if (match1.predicate_count > 0) {
      logic_phase({{1, &match1.program, &match1.words, on}}, slot);
      const std::vector<BitVec> bits =
          read_column_phase(1, match1.result_col, slot, on);
      if (!transfer_chunk_) {
        transfer_chunk_ = alloc(0).alloc_aligned_chunk(cfg_.read_bits);
      }
      write_column_phase(0, transfer_chunk_->offset, bits, slot, on);
      have_transfer = true;
    }
    alloc(1).release(match1.result_col);
  }

  // Part-0 program: group match AND filter result (AND transferred bits),
  // plus mask bookkeeping and per-pass masked selects, in one request.
  pim::ProgramBuilder pb(alloc(0));
  pim::WordProgram wp;
  std::uint16_t acc = 0;
  bool have_acc = false;
  for (std::size_t i = 0; i < q_.group_by.size(); ++i) {
    if (!store_.layout(0).has(q_.group_by[i])) continue;
    const pim::Field f = store_.layout(0).field(q_.group_by[i]);
    const std::uint16_t eq = pb.emit_eq_const(f, key[i]);
    wp.push_back(
        pim::WordOp::predicate(pim::WordOp::Kind::kEq, f, key[i], 0, eq));
    if (!have_acc) {
      acc = eq;
      have_acc = true;
    } else {
      const std::uint16_t next = pb.emit_and(acc, eq);
      wp.push_back(pim::WordOp::and_op(acc, eq, next));
      pb.release(acc);
      pb.release(eq);
      acc = next;
    }
  }
  std::uint16_t sg;
  if (have_acc) {
    sg = pb.emit_and(acc, r_col_);
    wp.push_back(pim::WordOp::and_op(acc, r_col_, sg));
    pb.release(acc);
  } else {
    sg = pb.emit_copy(r_col_);
    wp.push_back(pim::WordOp::copy(r_col_, sg));
  }
  if (have_transfer) {
    const std::uint16_t next = pb.emit_and(sg, transfer_chunk_->offset);
    wp.push_back(pim::WordOp::and_op(sg, transfer_chunk_->offset, next));
    pb.release(sg);
    sg = next;
  }
  if (update_mask) {
    if (!mask_valid_) {
      mask_col_ = alloc(0).alloc();
      pb.emit_copy_into(sg, mask_col_);
      wp.push_back(pim::WordOp::copy(sg, mask_col_));
      mask_valid_ = true;
    } else {
      // Pages this subgroup runs on may have been pruned out of every
      // earlier subgroup — their mask was never written. Zero it there
      // (host-known: the pruned subgroups' selects are provably empty)
      // before the OR below reads it.
      ensure_mask_zero(*on);
      const std::uint16_t m = pb.emit_or(mask_col_, sg);
      pb.emit_copy_into(m, mask_col_);
      wp.push_back(pim::WordOp::or_op(mask_col_, sg, m));
      wp.push_back(pim::WordOp::copy(m, mask_col_));
      pb.release(m);
    }
  }
  // Per-pass masked selects (mul decomposition).
  std::vector<std::uint16_t> pass_select(passes_.size(), sg);
  std::vector<std::uint16_t> owned_selects;
  for (std::size_t i = 0; i < passes_.size(); ++i) {
    if (passes_[i].mask_attr_col) {
      pass_select[i] = pb.emit_and(sg, *passes_[i].mask_attr_col);
      wp.push_back(
          pim::WordOp::and_op(sg, *passes_[i].mask_attr_col, pass_select[i]));
      owned_selects.push_back(pass_select[i]);
    }
  }
  {
    const pim::MicroProgram prog = pb.take();
    logic_phase({{0, &prog, &wp, on}}, slot);
  }
  if (update_mask) {
    for (const std::size_t p : *on) mask_ready_[p] = 1;
  }

  // Aggregation passes.
  std::int64_t total = 0;
  std::uint64_t count = 0;
  bool have_minmax = false;
  for (std::size_t i = 0; i < passes_.size(); ++i) {
    const AggPass& pass = passes_[i];
    std::uint64_t pass_count = 0;
    const std::uint64_t v = run_agg_pass(
        pass, pass_select[i], pass.carries_count ? &pass_count : nullptr, slot,
        *on);
    if (pass.carries_count) count = pass_count;
    if (q_.agg_func == sql::AggFunc::kCount) {
      total = static_cast<std::int64_t>(v);
      count = v;
    } else if (pass.op == pim::AggOp::kSum) {
      if (pass.use_select_as_value && pass.scale == 0) {
        count = v;  // dedicated count pass
      } else {
        total += pass.scale * static_cast<std::int64_t>(v);
      }
    } else {
      total = static_cast<std::int64_t>(v);  // single MIN/MAX pass
      have_minmax = true;
    }
  }
  if (have_minmax && count == 0) total = 0;

  for (const std::uint16_t c : owned_selects) alloc(0).release(c);
  alloc(0).release(sg);
  return {total, count};
}

// ---------------------------------------------------------------------------
// Phase 2: sampling (Section IV)
// ---------------------------------------------------------------------------

void Execution::sample_phase() {
  TimeNs* slot = &stats_.phases.sample;

  // Read the filter bits of one page (32 K records), single thread. When
  // the zone maps skipped page 0, its select is statically empty — the
  // sampled survivor set is known to be empty at zero modeled cost, and
  // (because the unpruned run would have read an all-zero column) the
  // resulting estimates, candidates, and plan are identical either way.
  BitVec bits;
  const bool page0_skipped = prune_ && analysis_->page_skip[0] != 0;
  if (!page0_skipped) {
    pim::RequestTrace t =
        pim::read_bit_column(store_.page(0, 0), r_col_, hcfg_.line_stream_ns,
                             cfg_, &meter_, &bits, vectorized_);
    advance_clock(clock_ + t.duration_ns, slot);
    ++stats_.pim_requests;
  }

  // Read the group attributes of every sampled survivor, a record block at
  // a time.
  std::unordered_map<GroupKey, std::uint64_t, KeyHash> counts;
  std::size_t hits = 0;
  std::uint32_t lines = 0;
  const std::uint32_t valid = store_.page_records(0);
  if (!page0_skipped) {
    GroupKey key(q_.group_by.size(), 0);
    BlockValues vals;
    lines = walk_page_blocks(
        0, bits, walk_attrs(q_.group_by), chunk_set(q_.group_by).size(), vals,
        [&](std::size_t, std::uint64_t mask, const BlockValues& v) {
          for (; mask != 0; mask &= mask - 1) {
            const unsigned j = static_cast<unsigned>(std::countr_zero(mask));
            ++hits;
            for (std::size_t a = 0; a < key.size(); ++a) key[a] = v[a][j];
            ++counts[key];
          }
        });
  }
  // Single-threaded sample walk (shared across threads, Section V-A).
  const TimeNs read_ns =
      static_cast<double>(lines) * hcfg_.line_random_ns +
      static_cast<double>(hits) * hcfg_.cpu_ns_per_sample;
  meter_.add(pim::EnergyCat::kRead,
             static_cast<double>(lines) * cfg_.line_bytes() * 8 *
                 cfg_.read_energy_pj_per_bit * units::kJoulePerPj);
  advance_clock(clock_ + read_ns, slot);

  stats_.sampled_subgroups = counts.size();
  selectivity_est_ = valid > 0 ? static_cast<double>(hits) / valid : 0.0;

  for (auto& [key, count] : counts) {
    GroupCandidate c;
    c.key = key;
    c.sampled = true;
    c.sample_count = count;
    c.est_mass = hits > 0 ? static_cast<double>(count) / hits : 0.0;
    candidates_.push_back(std::move(c));
  }
}

// ---------------------------------------------------------------------------
// Candidate enumeration ("total subgroups", Table II)
// ---------------------------------------------------------------------------

void Execution::build_candidates() {
  // Candidate values per group attribute: distinct values consistent with
  // the query's own predicates on that attribute.
  std::vector<std::vector<std::uint64_t>> domains;
  candidates_complete_ = true;
  double product = 1.0;
  for (const std::size_t attr : q_.group_by) {
    const auto& dv = store_.distinct_values(attr);
    if (!dv) {
      candidates_complete_ = false;
      break;
    }
    // Per-predicate state hoisted out of the value loop: the co-occurrence
    // lookup is a cache-map access and used to run once per (value,
    // predicate) — the dominant cost of candidate enumeration for
    // high-cardinality group attributes.
    struct PredDomain {
      const sql::BoundPredicate* p;
      /// Co-occurring values per candidate value; null when the predicate
      /// is on `attr` itself or no co-occurrence stats exist.
      const std::unordered_map<std::uint64_t, std::vector<std::uint64_t>>* co;
    };
    std::vector<PredDomain> preds;
    for (const sql::BoundPredicate& p : q_.filters) {
      if (p.kind == sql::BoundPredicate::Kind::kAlways) continue;
      // Predicates on co-occurring attributes constrain the candidate
      // domain too (e.g. p_category = 'MFGR#12' leaves only that
      // category's brands; d_yearmonth = 'Dec1997' leaves d_year = 1997 —
      // Table II's "subgroups according to query and database details").
      preds.push_back(
          {&p, p.attr == attr ? nullptr : store_.co_occurrence(attr, p.attr)});
    }
    std::vector<std::uint64_t> vals;
    for (const std::uint64_t v : *dv) {
      bool ok = true;
      for (const PredDomain& pd : preds) {
        const sql::BoundPredicate& p = *pd.p;
        if (p.attr == attr) {
          if (!p.matches(v)) {
            ok = false;
            break;
          }
          continue;
        }
        if (pd.co != nullptr) {
          const auto dep = pd.co->find(v);
          if (dep != pd.co->end()) {
            bool any = false;
            for (const std::uint64_t w : dep->second) {
              if (p.matches(w)) {
                any = true;
                break;
              }
            }
            if (!any) {
              ok = false;
              break;
            }
          }
        }
      }
      if (ok) vals.push_back(v);
    }
    product *= static_cast<double>(vals.size());
    domains.push_back(std::move(vals));
  }

  if (candidates_complete_ && product <= static_cast<double>(kCandidateCap)) {
    stats_.total_subgroups = static_cast<std::size_t>(product);
    // Enumerate the cartesian product; merge with sampled candidates.
    std::unordered_map<GroupKey, std::size_t, KeyHash> sampled_index;
    for (std::size_t i = 0; i < candidates_.size(); ++i) {
      sampled_index.emplace(candidates_[i].key, i);
    }
    GroupKey key(domains.size(), 0);
    std::vector<std::size_t> idx(domains.size(), 0);
    const std::size_t total = stats_.total_subgroups;
    for (std::size_t count = 0; count < total; ++count) {
      for (std::size_t d = 0; d < domains.size(); ++d) key[d] = domains[d][idx[d]];
      if (!sampled_index.contains(key)) {
        GroupCandidate c;
        c.key = key;
        candidates_.push_back(std::move(c));
      }
      // Odometer increment.
      for (std::size_t d = domains.size(); d-- > 0;) {
        if (++idx[d] < domains[d].size()) break;
        idx[d] = 0;
      }
    }
    // Sampled keys outside the enumerated domain (shouldn't happen: sampled
    // records satisfied the filters) are kept — harmless.
  } else {
    candidates_complete_ = false;
    stats_.total_subgroups =
        product > static_cast<double>(kCandidateCap) || !candidates_complete_
            ? static_cast<std::size_t>(
                  std::min(product, 1e18))
            : candidates_.size();
  }
  sort_candidates(candidates_);
}

// ---------------------------------------------------------------------------
// Phase 3: planning (Equation 3)
// ---------------------------------------------------------------------------

void Execution::plan_phase() {
  if (opts_.force_k) {
    chosen_k_ = std::min(*opts_.force_k, candidates_.size());
    return;
  }
  GroupByPlanInput in;
  in.pages = static_cast<double>(pages());
  in.n = n_chunks_;
  in.s = s_chunks_;
  in.selectivity_est = selectivity_est_;
  in.candidates = candidates_;
  in.candidates_complete = candidates_complete_;
  const GroupByPlan plan = choose_k(models_, in);
  chosen_k_ = plan.k;
  advance_clock(clock_ + hcfg_.plan_overhead_ns, &stats_.phases.plan);
}

// ---------------------------------------------------------------------------
// Phase 4: pim-gb
// ---------------------------------------------------------------------------

void Execution::pim_gb_phase() {
  const bool host_side_needed =
      !opts_.skip_host_gb &&
      !(candidates_complete_ && chosen_k_ == candidates_.size());
  for (std::size_t g = 0; g < chosen_k_; ++g) {
    cancel_.check();  // per-subgroup boundary: each group is a full PIM pass
    const auto [value, count] =
        aggregate_group(candidates_[g].key, /*update_mask=*/host_side_needed);
    if (count > 0) {
      results_[candidates_[g].key] = {value, true};
    }
  }
  stats_.pim_subgroups = chosen_k_;
}

// ---------------------------------------------------------------------------
// Phase 5: host-gb
// ---------------------------------------------------------------------------

void Execution::host_gb_phase() {
  TimeNs* slot = &stats_.phases.host_gb;

  // Residual selection R' = R AND NOT mask (mask = union of pim-gb groups).
  std::uint16_t residual = r_col_;
  bool residual_owned = false;
  if (mask_valid_) {
    // Pages every pim-gb subgroup was pruned off never wrote their mask;
    // zero it there (those subgroups provably selected nothing) so the
    // AND-NOT below reads a defined value on every active page.
    ensure_mask_zero(active_pages_);
    pim::ProgramBuilder pb(alloc(0));
    residual = pb.emit_andnot(r_col_, mask_col_);
    const pim::WordProgram wp = {
        pim::WordOp::andnot_op(r_col_, mask_col_, residual)};
    residual_owned = true;
    const pim::MicroProgram prog = pb.take();
    logic_phase({{0, &prog, &wp, &active_pages_}}, slot);
  }

  const std::vector<BitVec> bits =
      read_column_phase(0, residual, slot, &active_pages_);

  const auto chunks = chunk_set(host_read_attrs());
  std::size_t processed = 0;
  std::vector<std::uint32_t> page_lines(pages(), 0);

  if (!vectorized_) {
    // Scalar baseline: the seed's record-at-a-time walk (hash-set line
    // dedupe, a key vector per record).
    host::ReadSet rs(pages());
    for (std::size_t p = 0; p < pages(); ++p) {
      const std::uint32_t valid = store_.page_records(p);
      for (std::size_t i = bits[p].find_next(0); i < bits[p].size();
           i = bits[p].find_next(i + 1)) {
        if (i >= valid) break;
        ++processed;
        const std::size_t record = p * store_.records_per_page() + i;
        const pim::Page::RecordCoord c =
            store_.page(0, p).locate(static_cast<std::uint32_t>(i));
        for (const auto& [part, chunk] : chunks) {
          rs.touch(static_cast<std::uint32_t>(p), c.row,
                   static_cast<std::uint32_t>(part) * cfg_.chunks_per_row() +
                       chunk);
        }
        // Classify + aggregate on the CPU.
        GroupKey key = group_attr_key(record);
        std::int64_t v = 1;
        if (q_.agg_func != sql::AggFunc::kCount) {
          const std::uint64_t va = store_.read_attr(record, q_.agg_expr.a);
          const std::uint64_t vb =
              q_.agg_expr.kind == sql::Expr::Kind::kColumn
                  ? 0
                  : store_.read_attr(record, q_.agg_expr.b);
          v = static_cast<std::int64_t>(q_.agg_expr.eval(va, vb));
        }
        auto [it, fresh] = results_.try_emplace(
            std::move(key), std::pair<std::int64_t, bool>{0, false});
        if (q_.agg_func == sql::AggFunc::kMin) {
          it->second.first = fresh ? v : std::min(it->second.first, v);
        } else if (q_.agg_func == sql::AggFunc::kMax) {
          it->second.first = fresh ? v : std::max(it->second.first, v);
        } else {
          it->second.first += v;
        }
      }
    }
    page_lines.assign(rs.per_page_lines().begin(), rs.per_page_lines().end());
  } else {
    // Page-parallel walk: every page classifies into a private group map
    // with a reused key buffer, a record block at a time (one block gather
    // per attribute, see walk_page_blocks); partials are merged into
    // results_ in page order. Per-key combines are exact integer ops, so the
    // split is invisible: the merged map — and after the total-order sort,
    // the rows — match the record-at-a-time walk bit for bit.
    struct PagePartial {
      std::unordered_map<GroupKey, std::int64_t, KeyHash> groups;
      /// Bit-packed variant used when the group attributes fit in 64 bits
      /// (the common case): no vector hashing/compares per record.
      std::unordered_map<std::uint64_t, std::int64_t> packed;
      std::size_t processed = 0;
      std::uint32_t lines = 0;
    };
    std::vector<PagePartial> partials(pages());
    // Walked attributes: the group attributes, then the aggregate operands.
    const std::vector<WalkAttr> group_attrs = walk_attrs(q_.group_by);
    std::uint32_t key_bits = 0;
    for (const WalkAttr& wa : group_attrs) key_bits += wa.f.width;
    // Field values are < 2^width by construction, so concatenating them is
    // a lossless key encoding whenever the total width fits a word.
    const bool pack_keys = key_bits <= 64;
    const bool want_values = q_.agg_func != sql::AggFunc::kCount;
    const bool have_b = q_.agg_expr.kind != sql::Expr::Kind::kColumn;
    std::vector<std::size_t> walked(q_.group_by);
    const std::size_t idx_a = walked.size();
    const std::size_t idx_b = idx_a + 1;
    if (want_values) {
      walked.push_back(q_.agg_expr.a);
      if (have_b) walked.push_back(q_.agg_expr.b);
    }
    const std::vector<WalkAttr> walk = walk_attrs(walked);
    run_jobs(active_pages_.size(), [&](std::size_t job, pim::EnergyMeter&) {
      const std::size_t p = active_pages_[job];
      PagePartial& part = partials[p];
      GroupKey key(q_.group_by.size(), 0);
      BlockValues vals;
      part.lines = walk_page_blocks(
          p, bits[p], walk, chunks.size(), vals,
          [&](std::size_t, std::uint64_t mask, const BlockValues& bv) {
            for (; mask != 0; mask &= mask - 1) {
              const unsigned j = static_cast<unsigned>(std::countr_zero(mask));
              ++part.processed;
              std::int64_t v = 1;
              if (want_values) {
                v = static_cast<std::int64_t>(q_.agg_expr.eval(
                    bv[idx_a][j], have_b ? bv[idx_b][j] : 0));
              }
              auto combine = [&](std::int64_t& slot) {
                if (q_.agg_func == sql::AggFunc::kMin) {
                  slot = std::min(slot, v);
                } else if (q_.agg_func == sql::AggFunc::kMax) {
                  slot = std::max(slot, v);
                } else {
                  slot += v;
                }
              };
              if (pack_keys) {
                std::uint64_t pk = 0;
                std::uint32_t shift = 0;
                for (std::size_t a = 0; a < group_attrs.size(); ++a) {
                  pk |= bv[a][j] << shift;
                  shift += group_attrs[a].f.width;
                }
                const auto [it, fresh] = part.packed.try_emplace(pk, v);
                if (!fresh) combine(it->second);
              } else {
                for (std::size_t a = 0; a < group_attrs.size(); ++a) {
                  key[a] = bv[a][j];
                }
                const auto it = part.groups.find(key);
                if (it == part.groups.end()) {
                  part.groups.emplace(key, v);  // key copied on first sighting
                } else {
                  combine(it->second);
                }
              }
            }
          });
    });
    GroupKey unpacked(q_.group_by.size(), 0);
    for (std::size_t p = 0; p < pages(); ++p) {
      processed += partials[p].processed;
      page_lines[p] = partials[p].lines;
      auto merge = [&](const GroupKey& key, std::int64_t v) {
        auto [it, fresh] = results_.try_emplace(
            key, std::pair<std::int64_t, bool>{0, false});
        if (q_.agg_func == sql::AggFunc::kMin) {
          it->second.first = fresh ? v : std::min(it->second.first, v);
        } else if (q_.agg_func == sql::AggFunc::kMax) {
          it->second.first = fresh ? v : std::max(it->second.first, v);
        } else {
          it->second.first += v;
        }
      };
      for (const auto& [pk, v] : partials[p].packed) {
        std::uint64_t rest = pk;
        for (std::size_t a = 0; a < group_attrs.size(); ++a) {
          const std::uint32_t w = group_attrs[a].f.width;
          unpacked[a] = w >= 64 ? rest : rest & ((1ULL << w) - 1);
          rest = w >= 64 ? 0 : rest >> w;
        }
        merge(unpacked, v);
      }
      for (const auto& [key, v] : partials[p].groups) merge(key, v);
    }
  }

  std::size_t unique_lines = 0;
  for (const std::uint32_t n : page_lines) unique_lines += n;
  stats_.host_lines = unique_lines;
  meter_.add(pim::EnergyCat::kRead,
             static_cast<double>(unique_lines) * cfg_.line_bytes() * 8 *
                 cfg_.read_energy_pj_per_bit * units::kJoulePerPj);
  const TimeNs cpu = static_cast<double>(processed) * hcfg_.cpu_ns_per_record /
                     hcfg_.threads;
  advance_clock(clock_ + host::lines_phase_time_ns(page_lines, hcfg_) + cpu,
                slot);

  if (residual_owned) alloc(0).release(residual);
}

// ---------------------------------------------------------------------------
// No-GROUP-BY fast path (Q1.x): a single aggregation over R
// ---------------------------------------------------------------------------

void Execution::no_groupby_aggregate() {
  TimeNs* slot = &stats_.phases.pim_gb;

  // Per-pass masked selects.
  std::vector<std::uint16_t> pass_select(passes_.size(), r_col_);
  std::vector<std::uint16_t> owned;
  {
    pim::ProgramBuilder pb(alloc(0));
    pim::WordProgram wp;
    bool any = false;
    for (std::size_t i = 0; i < passes_.size(); ++i) {
      if (passes_[i].mask_attr_col) {
        pass_select[i] = pb.emit_and(r_col_, *passes_[i].mask_attr_col);
        wp.push_back(pim::WordOp::and_op(r_col_, *passes_[i].mask_attr_col,
                                         pass_select[i]));
        owned.push_back(pass_select[i]);
        any = true;
      }
    }
    if (any) {
      const pim::MicroProgram prog = pb.take();
      logic_phase({{0, &prog, &wp, &active_pages_}}, slot);
    }
  }

  std::int64_t total = 0;
  for (std::size_t i = 0; i < passes_.size(); ++i) {
    const AggPass& pass = passes_[i];
    const std::uint64_t v =
        run_agg_pass(pass, pass_select[i], nullptr, slot, active_pages_);
    if (q_.agg_func == sql::AggFunc::kCount) {
      total = static_cast<std::int64_t>(v);
    } else if (pass.op == pim::AggOp::kSum) {
      if (!(pass.use_select_as_value && pass.scale == 0)) {
        total += pass.scale * static_cast<std::int64_t>(v);
      }
    } else {
      total = stats_.selected_records > 0 ? static_cast<std::int64_t>(v) : 0;
    }
  }
  rows_.push_back(ResultRow{{}, total});
}

// ---------------------------------------------------------------------------
// Phase 6: finalize
// ---------------------------------------------------------------------------

void Execution::finalize_phase() {
  for (auto& [key, value] : results_) {
    rows_.push_back(ResultRow{key, value.first});
  }
  std::sort(rows_.begin(), rows_.end(), [&](const ResultRow& a,
                                            const ResultRow& b) {
    for (const sql::BoundOrderItem& o : q_.order_by) {
      if (o.is_agg) {
        if (a.agg != b.agg) return o.desc ? a.agg > b.agg : a.agg < b.agg;
      } else {
        const std::uint64_t va = a.group[o.group_pos];
        const std::uint64_t vb = b.group[o.group_pos];
        if (va != vb) return o.desc ? va > vb : va < vb;
      }
    }
    return a.group < b.group;  // deterministic tiebreak
  });
  advance_clock(clock_ + static_cast<double>(rows_.size()) * 50.0,
                &stats_.phases.finalize);
}

// ---------------------------------------------------------------------------
// Top level
// ---------------------------------------------------------------------------

QueryOutput Execution::run() {
  cancel_.check();
  store_.module().reset_wear();
  wall("agg_passes", [&] { build_agg_passes(); });
  wall("filter", [&] { filter_phase(); });
  return finish_run();
}

QueryOutput Execution::finish_run() {
  cancel_.check();
  // Early-exit aggregation on statically empty selects: every page was
  // skipped by the zone maps, so the host knows — without one PIM request —
  // that zero records survive. The plan-semantic stats (candidates, chosen
  // k, estimates) are still produced, identically to the unpruned run; only
  // the per-subgroup and host aggregation work is dropped, and the rows
  // (none for GROUP BY, the zero aggregate otherwise) match exactly.
  const bool statically_empty = prune_ && active_pages_.empty();

  if (!q_.has_group_by()) {
    if (statically_empty) {
      rows_.push_back(ResultRow{{}, 0});
    } else {
      wall("no_gb_agg", [&] { no_groupby_aggregate(); });
    }
    stats_.total_subgroups = 1;  // Table II: Q1.x aggregate once, in PIM
    stats_.pim_subgroups = 1;
  } else {
    wall("sample", [&] { sample_phase(); });
    wall("candidates", [&] { build_candidates(); });
    wall("plan", [&] { plan_phase(); });
    if (statically_empty) {
      stats_.pim_subgroups = chosen_k_;
    } else {
      wall("pim_gb", [&] { pim_gb_phase(); });
      const bool pure_pim =
          candidates_complete_ && chosen_k_ == candidates_.size();
      if (!pure_pim && !opts_.skip_host_gb) {
        wall("host_gb", [&] { host_gb_phase(); });
      }
    }
    wall("finalize", [&] { finalize_phase(); });
  }

  // Export the planner inputs for offline Equation-3 re-evaluation.
  stats_.n_chunks = n_chunks_;
  stats_.s_chunks = s_chunks_;
  stats_.selectivity_estimate = selectivity_est_;
  stats_.candidates_complete = candidates_complete_;
  stats_.candidate_masses.reserve(candidates_.size());
  for (const GroupCandidate& c : candidates_) {
    stats_.candidate_masses.push_back(c.est_mass);
  }

  finish_stats();

  QueryOutput out;
  out.rows = std::move(rows_);
  out.stats = stats_;
  return out;
}

void Execution::finish_stats() {
  stats_.total_ns = clock_;
  const pim::EnergyBreakdown energy = pim::energy_breakdown(meter_);
  stats_.energy_j = energy.total;
  stats_.energy_logic_j = energy.logic;
  stats_.energy_read_j = energy.read;
  stats_.energy_write_j = energy.write;
  stats_.energy_controller_j = energy.controller;
  stats_.energy_agg_circuit_j = energy.agg_circuit;
  stats_.peak_chip_w = tracker_.peak_module_w() / cfg_.chips;
  stats_.wear_row_writes = store_.module().max_row_writes();
}

// ---------------------------------------------------------------------------
// Shared-scan batching (stages 2 and 3; see the public section above)
// ---------------------------------------------------------------------------

void Execution::run_fused_filter(const std::vector<Execution*>& execs) {
  struct MemberProg {
    Execution* exec;
    const pim::MicroProgram* prog;
    const pim::WordProgram* words;
  };
  struct Visit {
    int part;
    std::size_t page;
    std::vector<MemberProg> progs;  ///< batch order
  };

  Execution& lead = *execs.front();
  const int parts = lead.store_.parts();
  const std::size_t pages = lead.pages();

  // Visit assembly, part-major page-ascending: a member's subsequence of
  // visits is then exactly its solo job order (run_pages_ lists ascend), so
  // its meter replay and trace schedule below match a solo run's shape.
  std::vector<Visit> visits;
  for (int part = 0; part < parts; ++part) {
    std::vector<std::vector<std::uint8_t>> member_runs(execs.size());
    for (std::size_t m = 0; m < execs.size(); ++m) {
      Execution* e = execs[m];
      if (part == 1 && e->skip_transfer_) continue;
      if (e->compiled_[part]->program.empty()) continue;
      if (e->run_pages_[part].empty()) continue;
      member_runs[m].assign(pages, 0);
      for (const std::size_t p : e->run_pages_[part]) member_runs[m][p] = 1;
    }
    for (std::size_t pg = 0; pg < pages; ++pg) {
      Visit v{part, pg, {}};
      for (std::size_t m = 0; m < execs.size(); ++m) {
        if (member_runs[m].empty() || !member_runs[m][pg]) continue;
        v.progs.push_back({execs[m], &execs[m]->compiled_[part]->program,
                           &execs[m]->compiled_[part]->words});
      }
      if (!v.progs.empty()) visits.push_back(std::move(v));
    }
  }
  if (visits.empty()) return;

  // A member cancelled before the fused pass aborts the whole batch here;
  // PimQueryEngine::execute_batch's fallback then re-runs every member solo,
  // so batchmates still get their exact rows and stats. The fused pass is a
  // crossbar-visit seam of its own: an injected fault here exercises the
  // same fallback.
  for (Execution* e : execs) e->cancel_.check();
  fault_point(FaultSeam::kCrossbarVisit);

  // Flat (visit, member) slots. Journal meters always — even single-thread —
  // so every run performs the identical per-member sequence of meter adds
  // regardless of how visits were scheduled across simulation threads.
  std::vector<std::size_t> off(visits.size() + 1, 0);
  for (std::size_t v = 0; v < visits.size(); ++v) {
    off[v + 1] = off[v] + visits[v].progs.size();
  }
  std::vector<pim::EnergyMeter> meters(off.back(),
                                       pim::EnergyMeter(/*journal=*/true));
  std::vector<pim::RequestTrace> traces(off.back());

  auto run_visit = [&](std::size_t vi) {
    const Visit& v = visits[vi];
    pim::Page& page = lead.store_.page(v.part, v.page);
    // Members run back to back within the visit — the shared-scan locality
    // win, and what makes released-temp-column reuse across members safe
    // (every program writes its temps before reading them).
    for (std::size_t i = 0; i < v.progs.size(); ++i) {
      const MemberProg& mp = v.progs[i];
      traces[off[vi] + i] =
          pim::execute_program(page, *mp.prog, lead.cfg_, &meters[off[vi] + i],
                               mp.exec->vectorized_, mp.words);
    }
  };
  // Visits touch disjoint (part, page) state, so they parallelize exactly
  // like solo filter jobs do. The batch shares one thread budget (admission
  // only groups executions with identical options).
  const unsigned threads = lead.sim_threads_;
  if (threads <= 1 || visits.size() <= 1) {
    for (std::size_t vi = 0; vi < visits.size(); ++vi) run_visit(vi);
  } else {
    parallel_for(visits.size(), threads,
                 [&](std::size_t, std::size_t begin, std::size_t end) {
                   for (std::size_t vi = begin; vi < end; ++vi) run_visit(vi);
                 });
  }

  // Demux: each slot's energy replays into its member's own meter and its
  // trace joins the member's own pending list, in visit order — a member is
  // billed for exactly the work its solo run would have done. A visit that
  // served two or more members counts as a fused page pass for each.
  for (std::size_t vi = 0; vi < visits.size(); ++vi) {
    const bool shared = visits[vi].progs.size() > 1;
    for (std::size_t i = 0; i < visits[vi].progs.size(); ++i) {
      Execution* e = visits[vi].progs[i].exec;
      meters[off[vi] + i].replay_into(e->meter_);
      e->pending_traces_.push_back(traces[off[vi] + i]);
      if (shared) ++e->stats_.fused_page_passes;
    }
  }
}

QueryOutput Execution::batch_finish() {
  // The member's fused traces schedule exactly as its solo logic_phase
  // would have: same order, same window parameters, its own clock from 0.
  // An empty list (everything synthesized or pruned) means no phase at all,
  // matching logic_phase's early return.
  if (!pending_traces_.empty()) {
    schedule_phase(pending_traces_, hcfg_.request_window, hcfg_.issue_ns,
                   &stats_.phases.filter);
    pending_traces_.clear();
  }
  // Synthesis waits until the member's own tail: every batchmate program
  // that could reuse this member's result column as a temp has already run.
  synthesize_pending();
  filter_combine();
  // Deferred from run()'s prologue: allocating every member's result/count
  // fields up front would exhaust the shared scratch space; allocating in
  // the tail reuses the columns released by the previous member's tail.
  build_agg_passes();
  QueryOutput out = finish_run();

  // Return held scratch to the shared allocator for the next member's tail.
  alloc(0).release(r_col_);
  if (transfer_chunk_) {
    alloc(0).release_field(*transfer_chunk_);
    transfer_chunk_.reset();
  }
  alloc(0).release_field(result_field_);
  alloc(0).release_field(count_field_);
  if (mask_valid_) {
    alloc(0).release(mask_col_);
    mask_valid_ = false;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Filter-only scan (join feeder)
// ---------------------------------------------------------------------------

ScanOutput Execution::run_scan(const std::vector<std::size_t>& attrs) {
  cancel_.check();
  store_.module().reset_wear();
  filter_phase();

  ScanOutput out;
  out.columns.resize(attrs.size());

  // Statically empty: every page refuted by the zone maps — the host knows
  // there are no survivors without a single readback.
  if (!(prune_ && active_pages_.empty())) {
    TimeNs* slot = &stats_.phases.host_gb;
    const std::vector<BitVec> bits =
        read_column_phase(0, r_col_, slot, &active_pages_);

    // Exact-size output: survivors are counted per page first (popcount of
    // the block masks), so row_ids and every column are allocated once and
    // each page writes its own slice, in page order, during the
    // page-parallel block walk.
    std::vector<std::size_t> page_first(pages(), 0);
    std::size_t processed = 0;
    for (const std::size_t p : active_pages_) {
      page_first[p] = processed;
      const std::uint32_t valid = store_.page_records(p);
      for (std::size_t blk = 0; blk * 64 < valid; ++blk) {
        processed += static_cast<std::size_t>(
            std::popcount(block_mask(bits[p], blk, valid)));
      }
    }
    out.row_ids.resize(processed);
    for (std::vector<std::uint64_t>& col : out.columns) col.resize(processed);

    const std::size_t chunks = chunk_set(attrs).size();
    const std::vector<WalkAttr> walk = walk_attrs(attrs);
    std::vector<std::uint32_t> page_lines(pages(), 0);
    run_jobs(active_pages_.size(), [&](std::size_t job, pim::EnergyMeter&) {
      const std::size_t p = active_pages_[job];
      const std::uint64_t page_base = p * store_.records_per_page();
      std::size_t at = page_first[p];
      BlockValues vals;
      page_lines[p] = walk_page_blocks(
          p, bits[p], walk, chunks, vals,
          [&](std::size_t first, std::uint64_t mask, const BlockValues& bv) {
            for (; mask != 0; mask &= mask - 1, ++at) {
              const unsigned j = static_cast<unsigned>(std::countr_zero(mask));
              out.row_ids[at] = page_base + first + j;
              for (std::size_t a = 0; a < bv.size(); ++a) {
                out.columns[a][at] = bv[a][j];
              }
            }
          });
    });

    std::size_t unique_lines = 0;
    for (const std::uint32_t n : page_lines) unique_lines += n;
    stats_.host_lines = unique_lines;
    meter_.add(pim::EnergyCat::kRead,
               static_cast<double>(unique_lines) * cfg_.line_bytes() * 8 *
                   cfg_.read_energy_pj_per_bit * units::kJoulePerPj);
    const TimeNs cpu = static_cast<double>(processed) *
                       hcfg_.cpu_ns_per_record / hcfg_.threads;
    advance_clock(clock_ + host::lines_phase_time_ns(page_lines, hcfg_) + cpu,
                  slot);
  }

  finish_stats();
  out.stats = stats_;
  return out;
}

}  // namespace

CancelToken resolve_cancel(const ExecOptions& opts) {
  if (opts.cancel.state != nullptr) {
    // Arm the caller's token from deadline_us exactly once: a token that
    // already carries a deadline (e.g. armed at submission so queue wait
    // counts against the budget) keeps it.
    if (opts.deadline_us > 0 && !opts.cancel.state->has_deadline()) {
      opts.cancel.state->set_deadline(
          std::chrono::steady_clock::now() +
          std::chrono::microseconds(opts.deadline_us));
    }
    return opts.cancel;
  }
  if (opts.deadline_us == 0) return {};
  CancelToken token = make_cancel_token();
  token.state->set_deadline(std::chrono::steady_clock::now() +
                            std::chrono::microseconds(opts.deadline_us));
  return token;
}

// ===========================================================================
// PimQueryEngine
// ===========================================================================

PimQueryEngine::PimQueryEngine(EngineKind kind, PimStore& store,
                               host::HostConfig hcfg, LatencyModels models)
    : kind_(kind), store_(&store), hcfg_(hcfg), models_(std::move(models)) {
  if (kind == EngineKind::kTwoXb && store.parts() != 2) {
    throw std::invalid_argument("two-xb engine needs a two-part store");
  }
  if (kind != EngineKind::kTwoXb && store.parts() != 1) {
    throw std::invalid_argument("one-xb/pimdb engines need a one-part store");
  }
}

QueryOutput PimQueryEngine::execute(const sql::BoundQuery& q,
                                    const ExecOptions& opts) {
  Execution exec(kind_, *store_, hcfg_, models_, q, opts);
  return exec.run();
}

PimQueryEngine::BatchOutput PimQueryEngine::execute_batch(
    const std::vector<const sql::BoundQuery*>& queries,
    const ExecOptions& opts, const std::vector<CancelToken>& cancels) {
  BatchOutput out;
  out.outputs.resize(queries.size());
  out.errors.resize(queries.size());
  if (queries.empty()) return out;
  // Per-member effective tokens: the aligned override when given, else the
  // one token `opts` resolves to (shared by every member, as for a solo run).
  std::vector<CancelToken> tokens;
  tokens.reserve(queries.size());
  if (cancels.empty()) {
    const CancelToken shared_token = resolve_cancel(opts);
    tokens.assign(queries.size(), shared_token);
  } else {
    for (const CancelToken& t : cancels) {
      tokens.push_back(t.valid() ? t : resolve_cancel(opts));
    }
  }
  const auto solo = [&](std::size_t i) {
    Execution exec(kind_, *store_, hcfg_, models_, *queries[i], opts,
                   /*shared_allocs=*/nullptr, &tokens[i]);
    return exec.run();
  };
  if (queries.size() == 1) {
    // Degenerate batch: exactly today's solo path, stats included
    // (batched_queries stays 0).
    try {
      out.outputs[0] = solo(0);
    } catch (...) {
      out.errors[0] = std::current_exception();
    }
    return out;
  }
  try {
    // Shared scratch allocators, one per part and spanning the whole batch:
    // no two members are ever handed the same physical column, and a
    // member's tail reuses whatever its released predecessors occupied.
    std::vector<pim::ColumnAlloc> shared;
    shared.reserve(static_cast<std::size_t>(store_->parts()));
    for (int part = 0; part < store_->parts(); ++part) {
      shared.push_back(store_->layout(part).make_alloc());
    }
    // One wear epoch per batch (solo run() resets per query; the tails must
    // not reset it again or they would erase the fused pass's writes).
    store_->module().reset_wear();

    std::vector<std::unique_ptr<Execution>> execs;
    execs.reserve(queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      execs.push_back(std::make_unique<Execution>(
          kind_, *store_, hcfg_, models_, *queries[i], opts, &shared,
          &tokens[i]));
    }
    std::vector<Execution*> raw;
    raw.reserve(execs.size());
    for (const std::unique_ptr<Execution>& e : execs) raw.push_back(e.get());
    for (Execution* e : raw) e->batch_prepare();
    Execution::run_fused_filter(raw);
    // Tails run sequentially in batch order: they mutate shared crossbar
    // scratch (aggregation passes) and the shared allocators.
    for (std::size_t i = 0; i < raw.size(); ++i) {
      out.outputs[i] = raw[i]->batch_finish();
      out.outputs[i].stats.batched_queries = queries.size();
    }
  } catch (...) {
    // Any failure in the fused path — a member whose aggregate the engine
    // does not support, scratch exhaustion on an oversized batch — falls
    // back to executing every member solo, which reproduces each member's
    // own result or error without a batchmate in the blast radius.
    // Leftover shared-scratch garbage is harmless: programs initialize
    // their own columns, and solo run() resets wear.
    for (std::size_t i = 0; i < queries.size(); ++i) {
      out.outputs[i] = QueryOutput{};
      out.errors[i] = nullptr;
      try {
        out.outputs[i] = solo(i);
        out.outputs[i].stats.batch_fallbacks = 1;
      } catch (...) {
        out.errors[i] = std::current_exception();
      }
    }
  }
  return out;
}

ScanOutput PimQueryEngine::execute_scan(
    const std::vector<sql::BoundPredicate>& filters,
    const std::vector<std::size_t>& attrs, const ExecOptions& opts) {
  // A filters-only query shell: the Execution ctor orders and analyzes the
  // predicates; no aggregation plan is ever built for a scan.
  sql::BoundQuery q;
  q.filters = filters;
  q.agg_func = sql::AggFunc::kCount;
  Execution exec(kind_, *store_, hcfg_, models_, q, opts);
  return exec.run_scan(attrs);
}

}  // namespace bbpim::engine
