// Shared vocabulary of the benchmark: clocks, quantiles, and the figures one
// round of a workload reports.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

inline double secondsSince(Clock::time_point start) {
  return secondsBetween(start, Clock::now());
}

/// Nearest-rank quantile (q in [0, 1]) of an unsorted sample; 0 when empty.
double quantile(std::vector<double> values, double q);

inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// The figures of one round. Every round of a run replays the same inputs
/// on a freshly built stack, so counted I/O is identical from round to
/// round and wall-clock figures are samples of one distribution.
struct RoundResult {
  Clock::time_point setup_end;  // end of this round's set-up

  std::uint64_t write_ops = 0;
  double write_s = 0;        // time in the write phase
  std::uint64_t write_io = 0;  // counted I/O charged to writes
  std::uint64_t read_ops = 0;  // keys looked up
  double read_s = 0;         // time inside lookup requests
  std::uint64_t read_io = 0;   // counted I/O charged to lookups
  std::vector<double> read_latency_us;  // one sample per lookup request

  std::vector<double> checkpoint_s;  // DurabilityManager::checkpoint calls
  std::vector<double> restart_s;    // crash-and-restart cycles
  double space_bytes_per_record = 0;

  // Traced rounds only: per-layer figures (see layerMetricUnits()) and the
  // per-call table latencies, pooled over rounds for their quantiles.
  std::map<std::string, double> layer;
  std::vector<double> apply_latency_us;
  std::vector<double> lookup_latency_us;
};

/// Every per-layer metric the traced mode prints, with its unit.
const std::vector<std::pair<std::string, std::string>>& layerMetricUnits();

}  // namespace perfbench
