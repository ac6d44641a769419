#include "db/service.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <utility>

#include "engine/fault_injector.hpp"

namespace bbpim::db {
namespace {

/// Rendezvous for warm_up: each worker executes exactly one warm task
/// because no worker can finish its task before every worker has one.
/// Cancellable: when warm_up fails to enqueue the full set (shutdown raced
/// it), the workers already parked here must be released or the drain in
/// shutdown() would join forever.
struct WarmBarrier {
  explicit WarmBarrier(std::size_t n) : remaining(n) {}

  void arrive_and_wait() {
    std::unique_lock lock(mutex);
    if (--remaining == 0 || cancelled) {
      cv.notify_all();
    } else {
      cv.wait(lock, [&] { return remaining == 0 || cancelled; });
    }
  }

  void cancel() {
    std::lock_guard lock(mutex);
    cancelled = true;
    cv.notify_all();
  }

  std::mutex mutex;
  std::condition_variable cv;
  std::size_t remaining;
  bool cancelled = false;
};

std::uint64_t wall_us(std::chrono::steady_clock::time_point from,
                      std::chrono::steady_clock::time_point to) {
  if (to <= from) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(to - from)
          .count());
}

}  // namespace

QueryService::QueryService(Database& db, QueryServiceOptions opts)
    : db_(&db), opts_(std::move(opts)) {
  std::size_t workers = opts_.workers;
  if (workers == 0) {
    workers = std::thread::hardware_concurrency();
    if (workers == 0) workers = 1;
  }

  // One ModelCache across the pool: either the caller's, or one built from
  // the template's disk-cache settings. Without this, every worker would run
  // its own fitting campaign — the exact duplication fit-once exists to stop.
  model_cache_ = opts_.session.models;
  if (model_cache_ == nullptr) {
    model_cache_ = std::make_shared<ModelCache>(opts_.session.model_cache_dir,
                                                opts_.session.model_cache_tag);
  }

  sessions_.reserve(workers);
  workers_.reserve(workers);
  worker_states_.assign(workers, WorkerState::kIdle);
  for (std::size_t i = 0; i < workers; ++i) {
    SessionOptions worker_opts = opts_.session;
    worker_opts.models = model_cache_;
    sessions_.push_back(std::make_unique<Session>(*db_, std::move(worker_opts)));
  }
  try {
    for (std::size_t i = 0; i < workers; ++i) {
      workers_.emplace_back([this, i] { worker_loop(i); });
    }
  } catch (...) {
    // Thread creation failed partway (e.g. EAGAIN): shut the partial pool
    // down before rethrowing, or destroying the joinable threads would
    // std::terminate.
    {
      std::lock_guard lock(mutex_);
      accepting_ = false;
    }
    work_available_.notify_all();
    for (std::thread& w : workers_) w.join();
    throw;
  }
}

QueryService::~QueryService() { shutdown(); }

std::future<ResultSet> QueryService::enqueue(Task task) {
  std::future<ResultSet> result = task.result.get_future();
  const AdmissionOptions& adm = opts_.admission;
  std::optional<Task> shed_victim;
  {
    std::unique_lock lock(mutex_);
    if (!accepting_) {
      throw ServiceStopped("QueryService: submit after shutdown");
    }
    if (!task.internal && adm.max_queue_depth > 0 &&
        external_queued_ >= adm.max_queue_depth) {
      switch (adm.policy) {
        case OverloadPolicy::kReject:
          ++counters_.rejected;
          throw OverloadError("QueryService: queue full (policy kReject)");
        case OverloadPolicy::kBlock: {
          const bool room = queue_not_full_.wait_for(
              lock, std::chrono::microseconds(adm.block_timeout_us), [&] {
                return !accepting_ ||
                       external_queued_ < adm.max_queue_depth;
              });
          if (!accepting_) {
            throw ServiceStopped(
                "QueryService: shutdown while blocked on admission");
          }
          if (!room) {
            ++counters_.rejected;
            throw OverloadError(
                "QueryService: queue full (kBlock wait timed out)");
          }
          break;
        }
        case OverloadPolicy::kShedOldest: {
          // The head of the queue is the longest-waiting statement; sweep
          // past internal tasks (they bypass admission and must run).
          for (auto it = queue_.begin(); it != queue_.end(); ++it) {
            if (it->internal) continue;
            shed_victim = std::move(*it);
            queue_.erase(it);
            --external_queued_;
            ++counters_.shed;
            break;
          }
          break;
        }
      }
    }
    task.enqueued = std::chrono::steady_clock::now();
    if (!task.internal) {
      ++external_queued_;
      counters_.peak_queue_depth =
          std::max(counters_.peak_queue_depth, external_queued_);
    }
    queue_.push_back(std::move(task));
  }
  work_available_.notify_one();
  // Settle outside the lock: the submitter waiting on this future may react
  // by grabbing service state.
  if (shed_victim.has_value()) {
    shed_victim->result.set_exception(std::make_exception_ptr(OverloadError(
        "QueryService: shed by a newer submission (policy kShedOldest)")));
  }
  return result;
}

std::future<ResultSet> QueryService::submit(std::string sql_text,
                                            const engine::ExecOptions& opts) {
  Task task;
  task.batchable = true;
  task.sql = std::move(sql_text);
  // Arm the deadline NOW: queue wait counts against it. The armed token
  // rides inside the options the worker executes with.
  engine::ExecOptions eopts = opts;
  eopts.cancel = engine::resolve_cancel(opts);
  task.opts = eopts;
  task.cancel = eopts.cancel;
  task.run = [sql = task.sql, eopts](Session& session) {
    return session.execute(sql, eopts);
  };
  return enqueue(std::move(task));
}

std::future<ResultSet> QueryService::submit(std::string sql_text,
                                            BackendKind backend,
                                            const engine::ExecOptions& opts) {
  Task task;
  task.batchable = true;
  task.sql = std::move(sql_text);
  task.has_backend = true;
  task.backend = backend;
  engine::ExecOptions eopts = opts;
  eopts.cancel = engine::resolve_cancel(opts);
  task.opts = eopts;
  task.cancel = eopts.cancel;
  task.run = [sql = task.sql, backend, eopts](Session& session) {
    return session.execute(sql, backend, eopts);
  };
  return enqueue(std::move(task));
}

std::vector<ResultSet> QueryService::drain(
    std::vector<std::future<ResultSet>> futures) {
  std::vector<ResultSet> out;
  out.reserve(futures.size());
  std::exception_ptr first_error;
  for (std::future<ResultSet>& f : futures) {
    try {
      out.push_back(f.get());
    } catch (...) {
      if (first_error == nullptr) first_error = std::current_exception();
      out.emplace_back();
    }
  }
  if (first_error != nullptr) std::rethrow_exception(first_error);
  return out;
}

std::vector<ResultSet> QueryService::execute_batch(
    std::span<const std::string> sqls) {
  std::vector<std::future<ResultSet>> futures;
  futures.reserve(sqls.size());
  for (const std::string& sql : sqls) futures.push_back(submit(sql));
  return drain(std::move(futures));
}

std::vector<ResultSet> QueryService::execute_batch(
    std::span<const std::string> sqls, BackendKind backend) {
  std::vector<std::future<ResultSet>> futures;
  futures.reserve(sqls.size());
  for (const std::string& sql : sqls) futures.push_back(submit(sql, backend));
  return drain(std::move(futures));
}

void QueryService::warm_up(BackendKind backend) {
  // One warm-up at a time: two interleaved barriers on one FIFO queue could
  // each capture half the workers and park them forever.
  std::lock_guard warm_lock(warm_mutex_);
  const auto barrier = std::make_shared<WarmBarrier>(sessions_.size());
  std::vector<std::future<ResultSet>> futures;
  futures.reserve(sessions_.size());
  try {
    for (std::size_t i = 0; i < sessions_.size(); ++i) {
      Task warm_task;
      warm_task.internal = true;
      warm_task.run = [backend, barrier](Session& session) {
        // Always arrive, even on failure: a worker that threw before the
        // barrier would otherwise park its siblings forever.
        std::exception_ptr error;
        try {
          // First touch: the worker pins the table's current snapshot (the
          // shared store loads once, on whichever worker gets there first)
          // and allocates its private scratch pages — outside the caller's
          // timed region. No replay happens here or later: serving a newer
          // version is a snapshot re-pin, not a log replay.
          session.executor(backend);
          if (const auto kind = engine_kind_of(backend)) {
            session.models(*kind);  // fit-once across the pool
          }
        } catch (...) {
          error = std::current_exception();
        }
        barrier->arrive_and_wait();
        if (error != nullptr) std::rethrow_exception(error);
        return ResultSet();
      };
      futures.push_back(enqueue(std::move(warm_task)));
    }
  } catch (...) {
    // shutdown() raced us mid-enqueue: a partial barrier can never fill, so
    // release the workers already parked in it, let the queued remainder
    // finish, then surface the shutdown error.
    barrier->cancel();
    for (std::future<ResultSet>& f : futures) {
      try {
        f.get();
      } catch (...) {
        // already reporting the enqueue failure
      }
    }
    throw;
  }
  for (std::future<ResultSet>& f : futures) f.get();
}

void QueryService::shutdown() {
  // Sweep still-queued external statements out before the workers drain:
  // their submitters get a prompt typed answer instead of a shutdown-length
  // wait. Internal (warm-up) tasks stay queued — each holds a seat in a
  // WarmBarrier that must fill before any of its siblings can finish.
  std::vector<Task> orphans;
  {
    std::lock_guard lock(mutex_);
    accepting_ = false;
    for (auto it = queue_.begin(); it != queue_.end();) {
      if (it->internal) {
        ++it;
        continue;
      }
      orphans.push_back(std::move(*it));
      it = queue_.erase(it);
      --external_queued_;
    }
  }
  work_available_.notify_all();
  queue_not_full_.notify_all();
  for (Task& t : orphans) {
    t.result.set_exception(std::make_exception_ptr(
        ServiceStopped("QueryService: shutdown before execution")));
  }
  std::vector<std::thread> workers;
  {
    std::lock_guard lock(mutex_);
    workers.swap(workers_);  // first caller joins; later calls are no-ops
  }
  for (std::thread& w : workers) w.join();
}

std::size_t QueryService::executed_count() const {
  std::lock_guard lock(mutex_);
  return executed_;
}

std::size_t QueryService::queue_depth() const {
  std::lock_guard lock(mutex_);
  return external_queued_;
}

QueryService::Counters QueryService::counters() const {
  std::lock_guard lock(mutex_);
  Counters c = counters_;
  c.executing = static_cast<std::size_t>(std::count(
      worker_states_.begin(), worker_states_.end(), WorkerState::kExecuting));
  return c;
}

std::vector<QueryService::WorkerState> QueryService::worker_states() const {
  std::lock_guard lock(mutex_);
  return worker_states_;
}

void QueryService::settle_success(Task& task, ResultSet rs) {
  if (!task.internal) {
    const auto now = std::chrono::steady_clock::now();
    rs.set_service_timing(wall_us(task.enqueued, task.dequeued),
                          wall_us(task.dequeued, now));
  }
  // Count before fulfilling the promise: a caller that drained its future
  // must never read an executed_count below what it submitted.
  {
    std::lock_guard lock(mutex_);
    ++executed_;
  }
  task.result.set_value(std::move(rs));
}

void QueryService::settle_error(Task& task, std::exception_ptr error) {
  {
    std::lock_guard lock(mutex_);
    ++executed_;
    try {
      std::rethrow_exception(error);
    } catch (const engine::QueryCancelled&) {
      ++counters_.cancelled;
    } catch (const engine::QueryTimeout&) {
      ++counters_.timed_out;
    } catch (...) {
    }
  }
  task.result.set_exception(std::move(error));
}

void QueryService::run_task(Session& session, Task& task,
                            std::size_t consumed_attempts) {
  const RetryOptions& retry = opts_.retry;
  for (std::size_t attempt = consumed_attempts;; ++attempt) {
    try {
      // A deadline that expired during backoff (or while queued) settles
      // here instead of burning a full execution.
      if (task.cancel.valid()) task.cancel.check();
      settle_success(task, task.run(session));
      return;
    } catch (const engine::TransientFault&) {
      if (attempt >= retry.max_retries) {
        settle_error(task, std::current_exception());
        return;
      }
      {
        std::lock_guard lock(mutex_);
        ++counters_.retries;
      }
      const std::uint64_t backoff = std::min(
          retry.backoff_base_us << attempt, retry.backoff_cap_us);
      if (backoff > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(backoff));
      }
    } catch (...) {
      settle_error(task, std::current_exception());
      return;
    }
  }
}

void QueryService::worker_loop(std::size_t index) {
  Session& session = *sessions_[index];
  const SharedScanOptions& shared = opts_.shared_scan;
  const AdmissionOptions& adm = opts_.admission;
  for (;;) {
    std::vector<Task> batch;
    {
      std::unique_lock lock(mutex_);
      worker_states_[index] = WorkerState::kIdle;
      work_available_.wait(lock,
                           [&] { return !queue_.empty() || !accepting_; });
      if (queue_.empty()) return;  // shutdown requested and queue drained
      worker_states_[index] = WorkerState::kGathering;
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
      batch.front().dequeued = std::chrono::steady_clock::now();
      if (!batch.front().internal) {
        --external_queued_;
        queue_not_full_.notify_one();
      }
      // Batch former: gather the other in-flight statements whose admission
      // signature matches the one just popped. The queue is drained of
      // compatible tasks first; when it runs dry the worker waits out the
      // remainder of the gather window for stragglers. Incompatible tasks
      // stay queued for other workers (or for this one's next iteration).
      if (shared.enabled && shared.max_batch > 1 && batch.front().batchable) {
        // Copies, not references: gathering grows `batch`, which would
        // invalidate a reference into it.
        const bool head_has_backend = batch.front().has_backend;
        const BackendKind head_backend = batch.front().backend;
        const engine::ExecOptions head_opts = batch.front().opts;
        std::uint64_t window_us = shared.gather_window_us;
        // Graceful degradation: a queue past half its bound widens the
        // window so more statements fuse into each page pass — throughput
        // over latency, before admission has to shed anything.
        if (adm.max_queue_depth > 0 && shared.overload_window_boost > 1 &&
            external_queued_ >= (adm.max_queue_depth + 1) / 2) {
          window_us *= shared.overload_window_boost;
          ++counters_.degraded_gathers;
        }
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::microseconds(window_us);
        while (batch.size() < shared.max_batch) {
          bool gathered = false;
          for (auto it = queue_.begin();
               it != queue_.end() && batch.size() < shared.max_batch;) {
            if (it->batchable && it->has_backend == head_has_backend &&
                it->backend == head_backend && it->opts == head_opts) {
              it->dequeued = std::chrono::steady_clock::now();
              if (!it->internal) {
                --external_queued_;
                queue_not_full_.notify_one();
              }
              batch.push_back(std::move(*it));
              it = queue_.erase(it);
              gathered = true;
            } else {
              ++it;
            }
          }
          if (batch.size() >= shared.max_batch) break;
          if (!accepting_) break;  // never stall shutdown for the window
          if (!gathered &&
              work_available_.wait_until(lock, deadline) ==
                  std::cv_status::timeout) {
            break;
          }
        }
      }
      worker_states_[index] = WorkerState::kExecuting;
    }
    // Statements already dead at dequeue (deadline spent in the queue,
    // caller cancelled) settle typed without costing an execution — and
    // without dragging live batchmates through a doomed fused pass.
    std::vector<Task> live;
    live.reserve(batch.size());
    for (Task& t : batch) {
      if (!t.internal && t.cancel.valid() && t.cancel.should_stop()) {
        try {
          t.cancel.check();
        } catch (...) {
          settle_error(t, std::current_exception());
        }
      } else {
        live.push_back(std::move(t));
      }
    }
    if (live.empty()) continue;
    if (live.size() > 1) {
      serve_batch(session, live);
      continue;
    }
    run_task(session, live.front());
  }
}

void QueryService::serve_batch(Session& session, std::vector<Task>& batch) {
  std::vector<std::string> sqls;
  std::vector<engine::CancelToken> cancels;
  sqls.reserve(batch.size());
  cancels.reserve(batch.size());
  bool any_token = false;
  for (const Task& t : batch) {
    sqls.push_back(t.sql);
    cancels.push_back(t.cancel);
    any_token |= t.cancel.valid();
  }
  if (!any_token) cancels.clear();
  // The head's armed token must not leak into the shared options: members
  // carry their own (or none) through `cancels`.
  engine::ExecOptions shared_opts = batch.front().opts;
  shared_opts.cancel = engine::CancelToken{};
  shared_opts.deadline_us = 0;

  std::vector<Session::BatchItem> items;
  try {
    items = batch.front().has_backend
                ? session.execute_batch(sqls, batch.front().backend,
                                        shared_opts, cancels)
                : session.execute_batch(sqls, shared_opts, cancels);
  } catch (const engine::TransientFault&) {
    // The batch entry point failed before per-statement isolation (snapshot
    // pin, plan-cache claim) on something retryable: re-run every member
    // solo; run_task retries within the budget and settles each promise.
    for (Task& t : batch) {
      {
        std::lock_guard lock(mutex_);
        ++counters_.retries;
      }
      run_task(session, t, /*consumed_attempts=*/1);
    }
    return;
  } catch (...) {
    // Permanent service-level fault (per-statement problems come back as
    // items): every member gets it.
    const std::exception_ptr error = std::current_exception();
    for (Task& t : batch) settle_error(t, error);
    return;
  }
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (items[i].error == nullptr) {
      settle_success(batch[i], std::move(items[i].result));
      continue;
    }
    bool transient = false;
    try {
      std::rethrow_exception(items[i].error);
    } catch (const engine::TransientFault&) {
      transient = true;
    } catch (...) {
    }
    if (transient && opts_.retry.max_retries > 0) {
      // This member already burned one transient attempt inside the batch;
      // its solo re-execution is retry #1 against the same budget.
      {
        std::lock_guard lock(mutex_);
        ++counters_.retries;
      }
      run_task(session, batch[i], /*consumed_attempts=*/1);
    } else {
      settle_error(batch[i], items[i].error);
    }
  }
}

}  // namespace bbpim::db
