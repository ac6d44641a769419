#include "record.hpp"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>

#include <chrono>
#include <cstdint>
#include <thread>

namespace pimbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kSpinSteps = 40'000'000;

std::uint64_t spin() {
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (std::uint64_t i = 0; i < kSpinSteps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

double spin_threads_ms(unsigned threads) {
  std::vector<std::uint64_t> sink(threads);
  std::vector<std::thread> pool;
  const Clock::time_point start = Clock::now();
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&sink, t] { sink[t] = spin(); });
  }
  for (std::thread& th : pool) th.join();
  const double ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  // Keep the spin's result observable so it is not optimized away.
  volatile std::uint64_t keep = 0;
  for (const std::uint64_t s : sink) keep = keep + s;
  return ms;
}

}  // namespace

double calibration_spin_ms() { return spin_threads_ms(1); }

std::vector<std::pair<unsigned, double>> parallel_spin_ms(unsigned nproc) {
  std::vector<std::pair<unsigned, double>> out;
  for (const unsigned n : {1u, 2u, nproc}) {
    if (!out.empty() && n <= out.back().first) continue;
    out.emplace_back(n, spin_threads_ms(n));
  }
  return out;
}

double process_cpu_ms() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto ms = [](const timeval& tv) {
    return tv.tv_sec * 1e3 + tv.tv_usec / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

double current_rss_mb() {
  long pages = 0, resident = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<double>(resident) * sysconf(_SC_PAGESIZE) / (1024.0 * 1024.0);
}

HostTicks host_ticks() {
  HostTicks t;
  if (std::FILE* f = std::fopen("/proc/stat", "r")) {
    unsigned long long v[8] = {};
    if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1],
                    &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
      for (const unsigned long long x : v) t.total += x;
      t.idle = v[3] + v[4];
      t.steal = v[7];
    }
    std::fclose(f);
  }
  return t;
}

void release_free_memory() { malloc_trim(0); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

}  // namespace pimbench
