#include "common.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

const std::vector<std::pair<std::string, std::string>>& layerMetricUnits() {
  static const std::vector<std::pair<std::string, std::string>> units = [] {
    std::vector<std::pair<std::string, std::string>> u = {
        {"pipeline.submit_busy_s", "s"},
        {"pipeline.submit_waits", "count"},
        {"pipeline.drain_s", "s"},
        {"pipeline.windows_applied", "count"},
        {"pipeline.ops_coalesced", "count"},
        {"pipeline.ops_per_window", "ops"},
        {"tables.apply_calls", "count"},
        {"tables.apply_busy_s", "s"},
        {"tables.apply_p50_us", "us"},
        {"tables.apply_p99_us", "us"},
        {"tables.lookup_calls", "count"},
        {"tables.lookup_busy_s", "s"},
        {"tables.lookup_p50_us", "us"},
        {"tables.lookup_p99_us", "us"},
        {"tables.shard_io_max_over_mean", "ratio"},
        {"tables.construct_s", "s"},
        {"extmem.reads", "count"},
        {"extmem.writes", "count"},
        {"extmem.rmws", "count"},
        {"extmem.bypass_reads", "count"},
        {"extmem.fsyncs", "count"},
        {"extmem.blocks_in_use", "blocks"},
        {"extmem.id_space_blocks", "blocks"},
        {"extmem.cache.hits", "count"},
        {"extmem.cache.misses", "count"},
        {"extmem.cache.hit_ratio", "ratio"},
        {"extmem.cache.writebacks", "count"},
        {"extmem.cache.ghost_hits", "count"},
    };
    for (const char* device : {"table", "log"}) {
      const std::string p = std::string("extmem.storage.") + device + ".";
      u.insert(u.end(), {{p + "pread_calls", "count"},
                         {p + "pread_bytes", "bytes"},
                         {p + "pread_s", "s"},
                         {p + "pwrite_calls", "count"},
                         {p + "pwrite_bytes", "bytes"},
                         {p + "pwrite_s", "s"},
                         {p + "fsync_calls", "count"},
                         {p + "fsync_s", "s"}});
    }
    u.insert(u.end(), {
                          {"durability.wal.records", "count"},
                          {"durability.wal.blocks_written", "count"},
                          {"durability.wal.group_commits", "count"},
                          {"durability.wal.fsyncs", "count"},
                          {"durability.wal.ops_per_fsync", "ops"},
                          {"durability.checkpoints", "count"},
                          {"durability.checkpoint_busy_s", "s"},
                          {"durability.recover_s", "s"},
                          {"durability.replayed_records", "count"},
                          {"durability.replayed_ops", "count"},
                          {"workload.keygen_s", "s"},
                          {"workload.read_requests", "count"},
                          {"self.pipeline_s", "s"},
                          {"self.durability_s", "s"},
                          {"self.tables_s", "s"},
                          {"self.storage_s", "s"},
                          {"trace.overhead_write_pct", "%"},
                          {"trace.overhead_read_pct", "%"},
                      });
    return u;
  }();
  return units;
}

}  // namespace perfbench
