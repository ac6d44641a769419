// QueryService: concurrent query serving over one Database.
//
// A fixed pool of std::thread workers drains a FIFO task queue; each worker
// owns a private Session (per-worker session affinity), so the stateful PIM
// executors — private scratch the simulator mutates per query — are never
// shared across threads. What IS shared is thread-safe: the Database
// catalog (shared-locked reads), one ModelCache (fit-once under lock: N
// workers needing the same engine kind trigger exactly one fitting
// campaign), and the per-table snapshot store — every worker's executor
// pins the same immutable StoreSnapshot for its data version, so there is
// no per-worker data replica and no catch-up replay. The simulator is
// deterministic, so a query returns byte-identical rows and stats no
// matter which worker serves it.
//
//   db::QueryService service(database, {.workers = 4});
//   std::future<db::ResultSet> f = service.submit(
//       "SELECT region, SUM(qty) FROM sales GROUP BY region");
//   db::ResultSet rs = f.get();      // rethrows parse/bind/exec errors
//
// Overload safety (all off by default — the defaults serve exactly like the
// pre-admission service):
//   - AdmissionOptions bounds the queue; a full queue rejects, blocks, or
//     sheds the longest-waiting statement depending on the policy.
//   - ExecOptions::deadline_us starts the statement's deadline clock at
//     submit(), so time spent queued counts; workers settle already-expired
//     statements with engine::QueryTimeout without executing them, and the
//     engine aborts in-flight ones cooperatively at phase boundaries.
//   - Failures classified transient (engine::TransientFault) are retried
//     with capped exponential backoff within RetryOptions' budget.
//   - shutdown() settles still-queued statements with ServiceStopped;
//     statements a worker already picked up complete normally.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "db/backend.hpp"
#include "db/database.hpp"
#include "db/errors.hpp"
#include "db/result_set.hpp"
#include "db/session.hpp"
#include "engine/cancel.hpp"
#include "engine/query_exec.hpp"

namespace bbpim::db {

/// What submit() does when the bounded queue is full.
enum class OverloadPolicy {
  /// Refuse the new statement immediately with OverloadError.
  kReject,
  /// Block the submitter until a slot frees (producer backpressure), up to
  /// AdmissionOptions::block_timeout_us; then OverloadError.
  kBlock,
  /// Admit the new statement by dropping the longest-waiting queued one,
  /// settling its future with OverloadError.
  kShedOldest,
};

/// Bounded admission. Internal work (warm_up's barrier tasks) bypasses
/// admission entirely and never counts against the depth.
struct AdmissionOptions {
  /// Most statements that may wait in the queue. 0 = unbounded (the
  /// pre-admission behavior).
  std::size_t max_queue_depth = 0;
  OverloadPolicy policy = OverloadPolicy::kReject;
  /// kBlock only: how long a submitter waits for a slot before the service
  /// gives up and rejects.
  std::uint64_t block_timeout_us = 1'000'000;
};

/// Retry budget for failures classified transient (engine::TransientFault
/// and subclasses — fault-injection faults, recoverable device hiccups).
/// Anything else is permanent and settles the future on first throw.
struct RetryOptions {
  /// Re-executions after the first attempt. 0 disables retry.
  std::size_t max_retries = 2;
  /// Backoff before retry k (1-based): min(base << (k-1), cap) microseconds.
  std::uint64_t backoff_base_us = 200;
  std::uint64_t backoff_cap_us = 5'000;
};

/// Shared-scan admission (the batch former). When enabled, a worker that
/// pops a submitted statement gathers the other in-flight statements with a
/// matching (backend, options) signature — waiting out a small window for
/// stragglers when the queue runs dry — and serves the whole set through
/// Session::execute_batch: single-table SELECTs over one table fuse into
/// ONE pass over its pages, duplicates of one statement execute once, and
/// everything else runs exactly as today. Per-statement results and errors
/// land on each submitter's future as usual; rows and semantic stats are
/// byte-identical to unbatched serving. Off by default — solo executions
/// then stay byte-identical to the pre-batching service, modeled
/// time/energy included.
struct SharedScanOptions {
  bool enabled = false;
  /// Most statements one fused pass may serve.
  std::size_t max_batch = 8;
  /// How long the batch former keeps waiting for companions once it holds
  /// at least one statement and the queue is empty.
  std::uint64_t gather_window_us = 200;
  /// Graceful degradation: when admission is bounded and the queue has
  /// filled past half its depth, the gather window is multiplied by this
  /// factor — wider gathers fuse more statements per page pass, raising
  /// throughput before the service has to shed. 1 (or unbounded admission)
  /// disables the boost.
  std::size_t overload_window_boost = 4;
};

struct QueryServiceOptions {
  /// Worker threads (each with a private Session). 0 = hardware concurrency
  /// (at least 1).
  std::size_t workers = 0;
  /// Template for every worker's session. When `session.models` is null one
  /// shared ModelCache is created from `model_cache_dir`/`model_cache_tag`
  /// and injected into all workers, preserving fit-once across the pool.
  SessionOptions session;
  /// Shared-scan batched execution of concurrent submissions.
  SharedScanOptions shared_scan;
  /// Bounded admission; unbounded by default.
  AdmissionOptions admission;
  /// Transient-failure retry budget.
  RetryOptions retry;
};

class QueryService {
 public:
  /// What one worker is doing right now.
  enum class WorkerState {
    kIdle,       ///< waiting for work
    kGathering,  ///< took a statement; collecting batchmates (gather window)
    kExecuting,  ///< running its statement or batch
  };

  /// Robustness telemetry since construction (monotonic, mutex-consistent).
  struct Counters {
    std::size_t rejected = 0;      ///< admissions refused (kReject, or kBlock
                                   ///< wait timeout)
    std::size_t shed = 0;          ///< queued statements dropped (kShedOldest)
    std::size_t timed_out = 0;     ///< futures settled with QueryTimeout
    std::size_t cancelled = 0;     ///< futures settled with QueryCancelled
    std::size_t retries = 0;       ///< transient-failure re-executions
    std::size_t degraded_gathers = 0;  ///< gathers run with the boosted window
    std::size_t peak_queue_depth = 0;  ///< high-water mark of queue_depth()
    /// Workers in WorkerState::kExecuting now (a gauge, not monotonic).
    std::size_t executing = 0;
  };

  explicit QueryService(Database& db, QueryServiceOptions opts = {});
  ~QueryService();
  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  // --- asynchronous serving ----------------------------------------------
  /// Enqueues one statement on the default backend — SELECT or UPDATE; the
  /// pool serves mixed read/write traffic. An UPDATE executed by any worker
  /// goes through the table's SnapshotManager: Algorithm 1 runs once in the
  /// shared builder store under the exclusive writer gate, commits to the
  /// per-table update log, and publishes a copy-on-write successor
  /// snapshot. Other workers keep serving their pinned snapshot untouched
  /// and re-pin (a pointer swap, no replay) before their next execution on
  /// that table, so reads anywhere observe a consistent log prefix
  /// (reported by ResultSet::data_version). The future delivers the
  /// ResultSet, or rethrows whatever the statement raised on the worker.
  /// Throws ServiceStopped once shutdown() has been called, OverloadError
  /// when bounded admission refuses the statement; `opts.deadline_us` (when
  /// nonzero) starts counting here, queue wait included.
  std::future<ResultSet> submit(std::string sql_text,
                                const engine::ExecOptions& opts = {});
  std::future<ResultSet> submit(std::string sql_text, BackendKind backend,
                                const engine::ExecOptions& opts = {});

  // --- synchronous batches -----------------------------------------------
  /// Submits the whole batch, then blocks; results come back in input
  /// order. The first failing query's exception is rethrown after the
  /// remaining queries finished (workers never die with the batch).
  std::vector<ResultSet> execute_batch(std::span<const std::string> sqls);
  std::vector<ResultSet> execute_batch(std::span<const std::string> sqls,
                                       BackendKind backend);

  /// Blocks until EVERY worker has built its executor for the default
  /// target on `backend` — the one shared snapshot-store load, per-worker
  /// scratch allocation, and the one shared model fit all happen here, not
  /// inside the first timed queries. Benches call this before the clock
  /// starts. (There is no per-worker replay to warm any more: workers pin
  /// immutable snapshots and re-pin in O(crossbars) when behind.)
  void warm_up(BackendKind backend);

  /// Stops intake, settles still-queued statements with ServiceStopped
  /// (statements already picked up by a worker complete normally), joins
  /// the workers. Idempotent; the destructor calls it.
  void shutdown();

  std::size_t worker_count() const { return sessions_.size(); }
  /// Queries completed (successfully or not) since construction. Rejected
  /// and shed statements never executed and are counted in counters(), not
  /// here.
  std::size_t executed_count() const;
  /// Statements currently waiting in the queue (internal work excluded).
  std::size_t queue_depth() const;
  Counters counters() const;
  /// Every worker's current state, index-aligned with the pool. A worker
  /// leaves kExecuting only after settling its statements' futures, so a
  /// caller that just drained a future may still see it executing.
  std::vector<WorkerState> worker_states() const;
  const std::shared_ptr<ModelCache>& model_cache() const {
    return model_cache_;
  }

 private:
  struct Task {
    std::function<ResultSet(Session&)> run;
    std::promise<ResultSet> result;
    /// Shared-scan admission metadata; set by submit() only (warm-up and
    /// other internal tasks never fuse).
    bool batchable = false;
    std::string sql;
    bool has_backend = false;
    BackendKind backend = BackendKind::kOneXb;
    engine::ExecOptions opts;
    /// Internal pool maintenance (warm_up): bypasses admission, survives
    /// shutdown's queue sweep (a WarmBarrier member that never ran would
    /// park its siblings forever), carries no serving timings.
    bool internal = false;
    /// Deadline/cancellation token, armed at submit() so queue wait counts
    /// against the deadline. Invalid when the statement has neither.
    engine::CancelToken cancel;
    std::chrono::steady_clock::time_point enqueued;
    std::chrono::steady_clock::time_point dequeued;
  };

  std::future<ResultSet> enqueue(Task task);
  /// Blocks on every future in order; rethrows the first failure only after
  /// the whole set completed (workers never die with a batch).
  static std::vector<ResultSet> drain(
      std::vector<std::future<ResultSet>> futures);
  void worker_loop(std::size_t index);
  /// Serves >= 2 gathered statements through session.execute_batch and
  /// settles each task's promise (counting every member in executed_).
  void serve_batch(Session& session, std::vector<Task>& batch);
  /// Executes `task` with the transient-retry budget and settles its
  /// promise. `consumed_attempts` counts executions that already failed
  /// transiently elsewhere (a batch member retried solo) against the budget.
  void run_task(Session& session, Task& task,
                std::size_t consumed_attempts = 0);
  void settle_success(Task& task, ResultSet rs);
  /// Settles with `error`, counting it (timed_out/cancelled/executed_).
  void settle_error(Task& task, std::exception_ptr error);

  Database* db_;
  QueryServiceOptions opts_;
  std::shared_ptr<ModelCache> model_cache_;
  /// One session per worker, index-aligned with workers_; built before the
  /// threads start and only ever touched by its own worker afterwards.
  std::vector<std::unique_ptr<Session>> sessions_;
  std::vector<std::thread> workers_;

  mutable std::mutex mutex_;
  std::condition_variable work_available_;
  /// kBlock submitters park here; workers signal after dequeuing.
  std::condition_variable queue_not_full_;
  std::deque<Task> queue_;
  bool accepting_ = true;
  std::size_t executed_ = 0;
  /// Statements in queue_ that count against admission (== queue_ minus
  /// internal tasks).
  std::size_t external_queued_ = 0;
  Counters counters_;
  /// One per worker, sized before the threads start; guarded by mutex_.
  std::vector<WorkerState> worker_states_;
  /// Serializes warm_up calls: two interleaved warm-up barriers on one FIFO
  /// queue could each hold half the workers forever.
  std::mutex warm_mutex_;
};

}  // namespace bbpim::db
