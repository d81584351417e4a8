// Tracing for the benchmark's traced mode. Nothing here reaches inside the
// library: spans are taken in the benchmark's own code around calls into a
// layer's public functions.
//
//   pipeline    client calls into IngestPipeline (submit, drain)
//   durability  DurabilityManager::checkpoint / recover
//   tables      ExternalHashTable::applyBatch / lookupBatch, through the
//               forwarding TracingTable below
//   storage     pread / pwrite / fsync, through the TimingFileOps installed
//               as StorageOptions::file_ops
//
// The layers nest in that order, so a layer's self time is its spans minus
// the part of them that spans of deeper layers cover (whatever thread those
// ran on: the pipeline worker applies windows while the client is inside
// submit or drain).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"
#include "extmem/file_ops.h"
#include "tables/hash_table.h"

namespace perfbench {

enum class Layer : std::uint8_t { kPipeline, kDurability, kTables, kStorage };
inline constexpr std::size_t kLayerCount = 4;
const char* layerName(Layer layer);

struct Span {
  Layer layer;
  std::uint32_t thread;  // small per-process thread number
  Clock::time_point start;
  Clock::time_point end;
};

/// Collects spans (kept in memory until the round ends) and the per-call
/// latencies of the table layer. Thread-safe.
class Tracer {
 public:
  void record(Layer layer, Clock::time_point start, Clock::time_point end);
  void tableCall(bool apply, Clock::time_point start, Clock::time_point end);

  /// Table-call latencies are kept only while measuring is on, so replay
  /// during recovery and the post-restart sweep do not mix into them.
  void setMeasuring(bool on) { measuring_.store(on); }

  std::vector<Span> takeSpans();
  std::vector<double> takeApplyLatencyUs();
  std::vector<double> takeLookupLatencyUs();

 private:
  std::atomic<bool> measuring_{false};
  std::mutex mutex_;
  std::vector<Span> spans_;
  std::vector<double> apply_us_;
  std::vector<double> lookup_us_;
};

/// Self time per layer: span time minus the part covered by deeper layers.
std::array<double, kLayerCount> selfTimes(const std::vector<Span>& spans);

/// Writes spans as a Chrome trace_event file (at most `limit` spans).
void writeChromeTrace(const std::vector<Span>& spans, Clock::time_point origin,
                      const std::string& path, std::size_t limit);

/// Records one span from construction to destruction (no-op without tracer).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, Layer layer)
      : tracer_(tracer), layer_(layer), start_(Clock::now()) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->record(layer_, start_, Clock::now());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  Layer layer_;
  Clock::time_point start_;
};

/// Forwarding table owned by the benchmark: every call goes to the wrapped
/// table unchanged; applyBatch and lookupBatch, the calls the workloads and
/// the pipeline make, are timed.
class TracingTable final : public exthash::tables::ExternalHashTable {
 public:
  TracingTable(std::unique_ptr<exthash::tables::ExternalHashTable> inner,
               Tracer& tracer);

  bool insert(std::uint64_t key, std::uint64_t value) override;
  std::optional<std::uint64_t> lookup(std::uint64_t key) override;
  bool erase(std::uint64_t key) override;
  void applyBatch(std::span<const exthash::tables::Op> ops) override;
  void lookupBatch(std::span<const std::uint64_t> keys,
                   std::span<std::optional<std::uint64_t>> out) override;
  std::size_t size() const override { return inner_->size(); }
  std::string_view name() const override { return inner_->name(); }
  void visitLayout(exthash::tables::LayoutVisitor& visitor) const override {
    inner_->visitLayout(visitor);
  }
  std::optional<exthash::extmem::BlockId> primaryBlockOf(
      std::uint64_t key) const override {
    return inner_->primaryBlockOf(key);
  }
  std::string debugString() const override { return inner_->debugString(); }
  void validateLayout(exthash::AuditReport& report) const override {
    inner_->validateLayout(report);
  }
  std::vector<std::uint64_t> serializeMeta() const override {
    return inner_->serializeMeta();
  }
  void restoreMeta(std::span<const std::uint64_t> words) override {
    inner_->restoreMeta(words);
  }
  std::size_t durableDeviceCount() const override {
    return inner_->durableDeviceCount();
  }
  exthash::extmem::BlockDevice& durableDevice(std::size_t i) override {
    return inner_->durableDevice(i);
  }
  void invalidateCaches() override { inner_->invalidateCaches(); }
  exthash::extmem::IoStats ioStats() const override {
    return inner_->ioStats();
  }
  void flushCache() const override { inner_->flushCache(); }

 private:
  std::unique_ptr<exthash::tables::ExternalHashTable> inner_;
  Tracer& tracer_;
};

/// FileOps that forwards to the kernel and counts every call. With a tracer
/// it also times each call and records it as a storage span; without one it
/// only counts, so untraced rounds pay no clock reads.
class TimingFileOps final : public exthash::extmem::FileOps {
 public:
  struct Counter {
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> bytes{0};
    std::atomic<std::int64_t> nanos{0};
  };

  explicit TimingFileOps(Tracer* tracer) : tracer_(tracer) {}

  ssize_t pread(int fd, void* buf, std::size_t count, off_t offset) override;
  ssize_t pwrite(int fd, const void* buf, std::size_t count,
                 off_t offset) override;
  int fsync(int fd) override;
  int fallocate(int fd, off_t offset, off_t len) override;

  const Counter& preads() const noexcept { return pread_; }
  const Counter& pwrites() const noexcept { return pwrite_; }
  const Counter& fsyncs() const noexcept { return fsync_; }

 private:
  /// Runs one call, counting it and, when traced, timing it.
  template <class Call>
  auto counted(Counter& counter, Call&& call);

  Tracer* tracer_;
  Counter pread_;
  Counter pwrite_;
  Counter fsync_;
};

}  // namespace perfbench
