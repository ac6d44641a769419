// What a run records about the machine it ran on: a fixed single-thread
// calibration spin, the effective parallelism the host delivers, process
// CPU time and peak resident memory. A disturbed or smaller machine then
// shows in the run record instead of as a regression.
#pragma once

#include <utility>
#include <vector>

namespace pimbench {

/// Wall milliseconds of a fixed single-thread integer spin.
double calibration_spin_ms();

/// For 1, 2 and `nproc` threads each running the calibration spin at once:
/// (threads, wall ms). Effective parallelism at n threads is n * t1 / t_n.
std::vector<std::pair<unsigned, double>> parallel_spin_ms(unsigned nproc);

/// User plus system CPU milliseconds of this process so far.
double process_cpu_ms();

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

/// Current resident set size of this process, in MB.
double current_rss_mb();

/// Whole-machine CPU time counters from /proc/stat (clock ticks summed over
/// every CPU); all zero where the file cannot be read.
struct HostTicks {
  unsigned long long total = 0;  ///< every state
  unsigned long long idle = 0;   ///< idle and iowait
  unsigned long long steal = 0;  ///< taken by the hypervisor for other guests
};
HostTicks host_ticks();

/// Returns memory the allocator holds free to the system (every arena), so
/// a resident-set reading counts live data, not what earlier set-ups freed.
void release_free_memory();

}  // namespace pimbench
