// Overload-safe serving: bounded admission under all three policies
// (reject / block / shed-oldest), query deadlines settling both at dequeue
// and mid-execution, graceful degradation (boosted gather windows before
// shedding), shutdown-while-queued settling futures with ServiceStopped
// under every policy, execute_batch's first-failure rethrow ordering, and
// the robustness-off parity pin: with admission unbounded and no deadline,
// serving is byte-identical to a plain Session — rows, semantic stats, and
// modeled time/energy. Deterministic scheduling comes from the fault
// injector's stall rules (a slow-device model), never from sleeps alone.
// Run under ThreadSanitizer in CI.
#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <functional>
#include <future>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "db/db.hpp"
#include "engine/cancel.hpp"
#include "engine/fault_injector.hpp"
#include "engine_test_util.hpp"

namespace bbpim {
namespace {

constexpr const char* kCount =
    "SELECT COUNT(*) FROM synthetic WHERE f_key < 2048";

db::LoadPolicy synthetic_policy() {
  db::LoadPolicy policy;
  policy.part_of = [](const std::string& name) {
    return name.rfind("f_", 0) == 0 ? 0 : 1;
  };
  return policy;
}

db::SessionOptions fast_options() {
  db::SessionOptions opts;
  opts.pim = testutil::small_pim_config();
  opts.pim.crossbar_cols = 256;
  return opts;
}

/// Polls until `done` holds or ~2 s pass; the conditions waited on are
/// guaranteed by the stall rules, the timeout only bounds a broken build.
bool wait_until(const std::function<bool()>& done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

struct Fixture {
  db::Database database;

  explicit Fixture(db::QueryServiceOptions opts = {}) {
    database.register_table(testutil::make_synthetic_table(400, 13),
                            synthetic_policy());
    opts.workers = opts.workers == 0 ? 1 : opts.workers;
    opts.session = fast_options();
    service.emplace(database, std::move(opts));
    service->warm_up(db::BackendKind::kOneXb);
  }

  /// Parks the single worker inside a long execution (stalled crossbar
  /// visits) and waits until it is executing the statement — past its
  /// gather window — so subsequent submits deterministically land in the
  /// queue instead of joining the occupier's batch. The queue check comes
  /// first: once the statement is off the queue, the worker's state is the
  /// occupier's, not a warm-up task's that has not reported idle yet.
  std::future<db::ResultSet> occupy_worker() {
    std::future<db::ResultSet> f = service->submit(kCount);
    if (!wait_until([&] {
          return service->queue_depth() == 0 &&
                 service->counters().executing == 1;
        })) {
      ADD_FAILURE() << "worker never started executing the occupying statement";
    }
    return f;
  }

  std::optional<db::QueryService> service;
};

/// Slow-device model: every crossbar visit sleeps, making one statement's
/// execution long enough to fill queues deterministically.
engine::FaultRule stall_rule(std::uint64_t us) {
  engine::FaultRule rule;
  rule.stall_us = us;
  return rule;
}

// ---------------------------------------------------------------------------
// Admission policies
// ---------------------------------------------------------------------------

TEST(ServiceOverload, RejectPolicyRefusesWithTypedError) {
  db::QueryServiceOptions opts;
  opts.admission.max_queue_depth = 2;
  opts.admission.policy = db::OverloadPolicy::kReject;
  Fixture fx(opts);

  engine::FaultInjector fi;
  fi.arm(engine::FaultSeam::kCrossbarVisit, stall_rule(20'000));
  engine::ScopedFaultInjection scope(fi);

  std::future<db::ResultSet> busy = fx.occupy_worker();
  std::vector<std::future<db::ResultSet>> queued;
  queued.push_back(fx.service->submit(kCount));
  queued.push_back(fx.service->submit(kCount));
  EXPECT_EQ(fx.service->queue_depth(), 2u);
  EXPECT_THROW(fx.service->submit(kCount), db::OverloadError);
  EXPECT_THROW(fx.service->submit(kCount), db::ServiceError)
      << "OverloadError must stay catchable as ServiceError";

  // Admitted statements are unharmed by the rejections.
  EXPECT_EQ(busy.get().row_count(), 1u);
  for (std::future<db::ResultSet>& f : queued) {
    EXPECT_EQ(f.get().row_count(), 1u);
  }
  const db::QueryService::Counters counters = fx.service->counters();
  EXPECT_EQ(counters.rejected, 2u);
  EXPECT_EQ(counters.shed, 0u);
  EXPECT_EQ(counters.peak_queue_depth, 2u);
  EXPECT_EQ(fx.service->executed_count(), 4u);  // occupier + 2 queued + warm
}

TEST(ServiceOverload, BlockPolicyAppliesBackpressureThenAdmits) {
  db::QueryServiceOptions opts;
  opts.admission.max_queue_depth = 1;
  opts.admission.policy = db::OverloadPolicy::kBlock;
  opts.admission.block_timeout_us = 10'000'000;
  Fixture fx(opts);

  engine::FaultInjector fi;
  fi.arm(engine::FaultSeam::kCrossbarVisit, stall_rule(5'000));
  engine::ScopedFaultInjection scope(fi);

  std::future<db::ResultSet> busy = fx.occupy_worker();
  std::future<db::ResultSet> queued = fx.service->submit(kCount);
  // The queue is full: this submit must block until the worker frees the
  // slot by dequeuing `queued`, then be admitted and eventually served.
  std::future<db::ResultSet> blocked = fx.service->submit(kCount);
  EXPECT_EQ(busy.get().row_count(), 1u);
  EXPECT_EQ(queued.get().row_count(), 1u);
  EXPECT_EQ(blocked.get().row_count(), 1u);
  EXPECT_EQ(fx.service->counters().rejected, 0u);
  EXPECT_EQ(fx.service->counters().shed, 0u);
}

TEST(ServiceOverload, BlockPolicyTimesOutIntoOverloadError) {
  db::QueryServiceOptions opts;
  opts.admission.max_queue_depth = 1;
  opts.admission.policy = db::OverloadPolicy::kBlock;
  opts.admission.block_timeout_us = 2'000;  // give up fast
  Fixture fx(opts);

  engine::FaultInjector fi;
  fi.arm(engine::FaultSeam::kCrossbarVisit, stall_rule(50'000));
  engine::ScopedFaultInjection scope(fi);

  std::future<db::ResultSet> busy = fx.occupy_worker();
  std::future<db::ResultSet> queued = fx.service->submit(kCount);
  EXPECT_THROW(fx.service->submit(kCount), db::OverloadError);
  EXPECT_EQ(fx.service->counters().rejected, 1u);
  EXPECT_EQ(busy.get().row_count(), 1u);
  EXPECT_EQ(queued.get().row_count(), 1u);
}

TEST(ServiceOverload, ShedOldestDropsTheLongestWaitingStatement) {
  db::QueryServiceOptions opts;
  opts.admission.max_queue_depth = 2;
  opts.admission.policy = db::OverloadPolicy::kShedOldest;
  Fixture fx(opts);

  engine::FaultInjector fi;
  fi.arm(engine::FaultSeam::kCrossbarVisit, stall_rule(20'000));
  engine::ScopedFaultInjection scope(fi);

  std::future<db::ResultSet> busy = fx.occupy_worker();
  std::future<db::ResultSet> oldest = fx.service->submit(kCount);
  std::future<db::ResultSet> second = fx.service->submit(kCount);
  // Queue full: admitting `newest` sheds `oldest`, whose future settles
  // with the typed overload error; nothing else is disturbed.
  std::future<db::ResultSet> newest = fx.service->submit(kCount);
  EXPECT_THROW(oldest.get(), db::OverloadError);
  EXPECT_EQ(fx.service->queue_depth(), 2u);
  EXPECT_EQ(busy.get().row_count(), 1u);
  EXPECT_EQ(second.get().row_count(), 1u);
  EXPECT_EQ(newest.get().row_count(), 1u);
  const db::QueryService::Counters counters = fx.service->counters();
  EXPECT_EQ(counters.shed, 1u);
  EXPECT_EQ(counters.rejected, 0u);
  // Shed statements never executed: occupier + second + newest + warm-up.
  EXPECT_EQ(fx.service->executed_count(), 4u);
}

// ---------------------------------------------------------------------------
// Deadlines and cancellation
// ---------------------------------------------------------------------------

TEST(ServiceOverload, DeadlineSpentInQueueSettlesWithoutExecuting) {
  db::QueryServiceOptions opts;
  Fixture fx(opts);

  engine::FaultInjector fi;
  fi.arm(engine::FaultSeam::kCrossbarVisit, stall_rule(20'000));
  engine::ScopedFaultInjection scope(fi);

  std::future<db::ResultSet> busy = fx.occupy_worker();
  engine::ExecOptions doomed;
  doomed.deadline_us = 1;  // expires while queued behind the stalled worker
  std::future<db::ResultSet> f = fx.service->submit(kCount, doomed);
  EXPECT_THROW(f.get(), engine::QueryTimeout);
  EXPECT_EQ(busy.get().row_count(), 1u);
  EXPECT_EQ(fx.service->counters().timed_out, 1u);
}

TEST(ServiceOverload, DeadlineExpiresMidExecution) {
  db::Database database;
  database.register_table(testutil::make_synthetic_table(400, 13),
                          synthetic_policy());
  db::Session session(database, fast_options());
  session.execute(kCount);  // bind + pin outside the stalled region

  engine::FaultInjector fi;
  fi.arm(engine::FaultSeam::kCrossbarVisit, stall_rule(5'000));
  engine::ScopedFaultInjection scope(fi);

  engine::ExecOptions opts;
  opts.deadline_us = 2'000;  // shorter than a single stalled crossbar visit
  EXPECT_THROW(session.execute(kCount, opts), engine::QueryTimeout);
}

TEST(ServiceOverload, ExplicitCancellationWinsOverExpiry) {
  db::Database database;
  database.register_table(testutil::make_synthetic_table(400, 13),
                          synthetic_policy());
  db::Session session(database, fast_options());

  engine::ExecOptions opts;
  opts.deadline_us = 1;
  opts.cancel = engine::make_cancel_token();
  opts.cancel.state->cancel();
  std::this_thread::sleep_for(std::chrono::milliseconds(1));  // both apply
  EXPECT_THROW(session.execute(kCount, opts), engine::QueryCancelled);
}

TEST(ServiceOverload, CancelledBatchMemberLeavesBatchmatesExact) {
  const std::vector<std::string> sqls = {
      "SELECT COUNT(*) FROM synthetic WHERE f_key < 512",
      "SELECT SUM(f_val) AS s FROM synthetic WHERE f_key < 1024",
      "SELECT SUM(f_val2) AS s FROM synthetic WHERE f_gid < 4",
  };
  db::Database reference_db;
  reference_db.register_table(testutil::make_synthetic_table(400, 13),
                              synthetic_policy());
  db::Session reference(reference_db, fast_options());
  std::vector<db::ResultSet> want;
  for (const std::string& sql : sqls) want.push_back(reference.execute(sql));

  db::Database database;
  database.register_table(testutil::make_synthetic_table(400, 13),
                          synthetic_policy());
  db::Session session(database, fast_options());

  std::vector<engine::CancelToken> cancels(sqls.size());
  cancels[1] = engine::make_cancel_token();
  cancels[1].state->cancel();
  std::vector<db::Session::BatchItem> items =
      session.execute_batch(sqls, engine::ExecOptions{}, cancels);
  ASSERT_EQ(items.size(), sqls.size());
  ASSERT_TRUE(items[1].error != nullptr);
  EXPECT_THROW(std::rethrow_exception(items[1].error),
               engine::QueryCancelled);
  for (const std::size_t i : {std::size_t{0}, std::size_t{2}}) {
    ASSERT_TRUE(items[i].error == nullptr) << sqls[i];
    ASSERT_EQ(items[i].result.row_count(), want[i].row_count()) << sqls[i];
    for (std::size_t c = 0; c < items[i].result.column_count(); ++c) {
      EXPECT_EQ(items[i].result.code(0, c), want[i].code(0, c)) << sqls[i];
    }
    // Identical selection work to a solo run of the same statement.
    EXPECT_EQ(items[i].result.stats().selected_records,
              want[i].stats().selected_records)
        << sqls[i];
  }
}

// ---------------------------------------------------------------------------
// Graceful degradation: boosted gather windows before shedding
// ---------------------------------------------------------------------------

TEST(ServiceOverload, PressureBoostsGatherWindowBeforeShedding) {
  db::QueryServiceOptions opts;
  opts.shared_scan.enabled = true;
  opts.shared_scan.max_batch = 8;
  opts.shared_scan.gather_window_us = 100;
  opts.shared_scan.overload_window_boost = 4;
  opts.admission.max_queue_depth = 4;
  opts.admission.policy = db::OverloadPolicy::kShedOldest;
  Fixture fx(opts);

  engine::FaultInjector fi;
  fi.arm(engine::FaultSeam::kCrossbarVisit, stall_rule(10'000));
  engine::ScopedFaultInjection scope(fi);

  std::future<db::ResultSet> busy = fx.occupy_worker();
  std::vector<std::future<db::ResultSet>> queued;
  for (std::size_t i = 0; i < 4; ++i) {
    queued.push_back(fx.service->submit(kCount));
  }
  EXPECT_EQ(busy.get().row_count(), 1u);
  for (std::future<db::ResultSet>& f : queued) {
    EXPECT_EQ(f.get().row_count(), 1u);
  }
  const db::QueryService::Counters counters = fx.service->counters();
  // The queue sat past half its bound when the worker came back for more:
  // that gather must have run with the widened window (and, with the queue
  // never over its bound, nothing was shed).
  EXPECT_GE(counters.degraded_gathers, 1u);
  EXPECT_EQ(counters.shed, 0u);
}

TEST(ServiceOverload, WorkerStateGoesGatheringExecutingIdle) {
  db::QueryServiceOptions opts;
  opts.shared_scan.enabled = true;
  opts.shared_scan.max_batch = 8;
  opts.shared_scan.gather_window_us = 200'000;  // a window wide enough to see
  Fixture fx(opts);
  using State = db::QueryService::WorkerState;
  auto state = [&] { return fx.service->worker_states().at(0); };
  ASSERT_TRUE(wait_until([&] { return state() == State::kIdle; }));
  EXPECT_EQ(fx.service->counters().executing, 0u);

  engine::FaultInjector fi;
  fi.arm(engine::FaultSeam::kCrossbarVisit, stall_rule(20'000));
  engine::ScopedFaultInjection scope(fi);
  std::future<db::ResultSet> f = fx.service->submit(kCount);
  // Alone in the queue, the statement waits out the gather window first.
  EXPECT_TRUE(wait_until([&] { return state() == State::kGathering; }));
  EXPECT_EQ(fx.service->counters().executing, 0u);
  EXPECT_TRUE(wait_until([&] {
    return state() == State::kExecuting && fx.service->counters().executing == 1;
  }));
  EXPECT_EQ(f.get().row_count(), 1u);
  EXPECT_TRUE(wait_until([&] {
    return state() == State::kIdle && fx.service->counters().executing == 0;
  }));
}

// ---------------------------------------------------------------------------
// Shutdown while statements are queued, under every policy
// ---------------------------------------------------------------------------

class ShutdownWhileQueued
    : public ::testing::TestWithParam<db::OverloadPolicy> {};

TEST_P(ShutdownWhileQueued, SettlesQueuedFuturesWithServiceStopped) {
  db::QueryServiceOptions opts;
  opts.admission.max_queue_depth = 8;
  opts.admission.policy = GetParam();
  Fixture fx(opts);

  engine::FaultInjector fi;
  fi.arm(engine::FaultSeam::kCrossbarVisit, stall_rule(20'000));
  engine::ScopedFaultInjection scope(fi);

  std::future<db::ResultSet> busy = fx.occupy_worker();
  std::vector<std::future<db::ResultSet>> queued;
  for (std::size_t i = 0; i < 3; ++i) {
    queued.push_back(fx.service->submit(kCount));
  }
  fx.service->shutdown();
  // The in-flight statement completes; every queued future settles promptly
  // with the typed shutdown error; intake is closed.
  EXPECT_EQ(busy.get().row_count(), 1u);
  for (std::future<db::ResultSet>& f : queued) {
    EXPECT_THROW(f.get(), db::ServiceStopped);
  }
  EXPECT_THROW(fx.service->submit(kCount), db::ServiceStopped);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, ShutdownWhileQueued,
                         ::testing::Values(db::OverloadPolicy::kReject,
                                           db::OverloadPolicy::kBlock,
                                           db::OverloadPolicy::kShedOldest));

TEST(ServiceOverload, ShutdownReleasesBlockedSubmitters) {
  db::QueryServiceOptions opts;
  opts.admission.max_queue_depth = 1;
  opts.admission.policy = db::OverloadPolicy::kBlock;
  opts.admission.block_timeout_us = 10'000'000;
  Fixture fx(opts);

  engine::FaultInjector fi;
  fi.arm(engine::FaultSeam::kCrossbarVisit, stall_rule(50'000));
  engine::ScopedFaultInjection scope(fi);

  std::future<db::ResultSet> busy = fx.occupy_worker();
  std::future<db::ResultSet> queued = fx.service->submit(kCount);
  // This submitter parks on the full queue; shutdown must release it with
  // the typed error instead of letting it ride out the 10 s timeout.
  std::thread blocked([&] {
    EXPECT_THROW(fx.service->submit(kCount), db::ServiceStopped);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  fx.service->shutdown();
  blocked.join();
  EXPECT_EQ(busy.get().row_count(), 1u);
  EXPECT_THROW(queued.get(), db::ServiceStopped);
}

// ---------------------------------------------------------------------------
// execute_batch rethrow ordering
// ---------------------------------------------------------------------------

TEST(ServiceOverload, ExecuteBatchRethrowsTheFirstFailureByInputOrder) {
  Fixture fx;

  engine::FaultInjector fi;
  engine::FaultRule fatal;
  fatal.nth = 1;
  fatal.transient = false;
  fi.arm(engine::FaultSeam::kUpdateCommit, fatal);
  engine::ScopedFaultInjection scope(fi);

  const std::string update = "UPDATE synthetic SET f_val = 7 WHERE f_key < 64";
  // Index 1 fails with the injected fatal fault, index 2 with a parse
  // error; input order decides which one the batch call rethrows.
  const std::vector<std::string> fatal_first = {kCount, update, "NOT SQL"};
  EXPECT_THROW(fx.service->execute_batch(fatal_first),
               engine::InjectedFatalFault);

  const std::vector<std::string> parse_first = {kCount, "NOT SQL", kCount};
  EXPECT_THROW(fx.service->execute_batch(parse_first), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Robustness-off parity and serving timings
// ---------------------------------------------------------------------------

TEST(ServiceOverload, DefaultsServeByteIdenticalToPlainSession) {
  const std::vector<std::string> sqls = {
      kCount,
      "SELECT SUM(f_val) AS s FROM synthetic WHERE f_key < 1024",
      "SELECT f_gid, SUM(f_val) AS s FROM synthetic "
      "WHERE f_key < 2048 GROUP BY f_gid ORDER BY s DESC",
  };
  db::Database reference_db;
  reference_db.register_table(testutil::make_synthetic_table(400, 13),
                              synthetic_policy());
  db::Session reference(reference_db, fast_options());
  std::vector<db::ResultSet> want;
  for (const std::string& sql : sqls) want.push_back(reference.execute(sql));

  Fixture fx;  // admission unbounded, no deadlines: robustness all off
  for (std::size_t i = 0; i < sqls.size(); ++i) {
    const db::ResultSet got = fx.service->submit(sqls[i]).get();
    ASSERT_EQ(got.row_count(), want[i].row_count()) << sqls[i];
    for (std::size_t r = 0; r < got.row_count(); ++r) {
      for (std::size_t c = 0; c < got.column_count(); ++c) {
        EXPECT_EQ(got.code(r, c), want[i].code(r, c)) << sqls[i];
      }
    }
    // Byte-identical modeled execution, not just rows: admission, tokens,
    // and seams must cost nothing when unused.
    EXPECT_EQ(got.stats().total_ns, want[i].stats().total_ns) << sqls[i];
    EXPECT_EQ(got.stats().energy_j, want[i].stats().energy_j) << sqls[i];
    EXPECT_EQ(got.stats().selected_records, want[i].stats().selected_records)
        << sqls[i];
    // Serving-layer wall timings ride along without touching the model.
    EXPECT_GT(got.service_us() + got.queue_wait_us(), 0u) << sqls[i];
    EXPECT_EQ(want[i].service_us(), 0u) << "plain sessions carry no timings";
  }
  const db::QueryService::Counters counters = fx.service->counters();
  EXPECT_EQ(counters.rejected, 0u);
  EXPECT_EQ(counters.shed, 0u);
  EXPECT_EQ(counters.timed_out, 0u);
  EXPECT_EQ(counters.cancelled, 0u);
  EXPECT_EQ(counters.retries, 0u);
}

}  // namespace
}  // namespace bbpim
