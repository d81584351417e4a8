#include "trace.h"

#include <algorithm>
#include <cerrno>
#include <fstream>

namespace perfbench {

namespace {

std::uint32_t threadNumber() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t mine = next.fetch_add(1);
  return mine;
}

double microsBetween(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::micro>(end - start).count();
}

}  // namespace

const char* layerName(Layer layer) {
  switch (layer) {
    case Layer::kPipeline: return "pipeline";
    case Layer::kDurability: return "durability";
    case Layer::kTables: return "tables";
    case Layer::kStorage: return "storage";
  }
  return "?";
}

void Tracer::record(Layer layer, Clock::time_point start,
                    Clock::time_point end) {
  const std::uint32_t thread = threadNumber();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{layer, thread, start, end});
}

void Tracer::tableCall(bool apply, Clock::time_point start,
                       Clock::time_point end) {
  record(Layer::kTables, start, end);
  if (!measuring_.load()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  (apply ? apply_us_ : lookup_us_).push_back(microsBetween(start, end));
}

std::vector<Span> Tracer::takeSpans() {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::exchange(spans_, {});
}

std::vector<double> Tracer::takeApplyLatencyUs() {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::exchange(apply_us_, {});
}

std::vector<double> Tracer::takeLookupLatencyUs() {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::exchange(lookup_us_, {});
}

std::array<double, kLayerCount> selfTimes(const std::vector<Span>& spans) {
  std::array<double, kLayerCount> self{};
  for (std::size_t layer = 0; layer < kLayerCount; ++layer) {
    // Union of every deeper layer's spans, as sorted disjoint intervals.
    std::vector<std::pair<Clock::time_point, Clock::time_point>> deeper;
    for (const Span& s : spans) {
      if (static_cast<std::size_t>(s.layer) > layer) {
        deeper.emplace_back(s.start, s.end);
      }
    }
    std::sort(deeper.begin(), deeper.end());
    std::vector<std::pair<Clock::time_point, Clock::time_point>> merged;
    for (const auto& iv : deeper) {
      if (!merged.empty() && iv.first <= merged.back().second) {
        merged.back().second = std::max(merged.back().second, iv.second);
      } else {
        merged.push_back(iv);
      }
    }
    // Running prefix sums of the merged lengths make each overlap query a
    // pair of binary searches.
    std::vector<double> prefix(merged.size() + 1, 0.0);
    for (std::size_t i = 0; i < merged.size(); ++i) {
      prefix[i + 1] =
          prefix[i] + secondsBetween(merged[i].first, merged[i].second);
    }
    const auto coveredBefore = [&](Clock::time_point t) {
      // Covered time in (-inf, t].
      const auto it = std::upper_bound(
          merged.begin(), merged.end(), t,
          [](Clock::time_point v, const auto& iv) { return v < iv.first; });
      const std::size_t n = static_cast<std::size_t>(it - merged.begin());
      if (n == 0) return 0.0;
      const auto& last = merged[n - 1];
      const double partial =
          t < last.second ? secondsBetween(last.first, t)
                          : secondsBetween(last.first, last.second);
      return prefix[n - 1] + partial;
    };
    for (const Span& s : spans) {
      if (static_cast<std::size_t>(s.layer) != layer) continue;
      const double covered = coveredBefore(s.end) - coveredBefore(s.start);
      self[layer] += secondsBetween(s.start, s.end) - covered;
    }
  }
  return self;
}

void writeChromeTrace(const std::vector<Span>& spans, Clock::time_point origin,
                      const std::string& path, std::size_t limit) {
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  const std::size_t n = std::min(limit, spans.size());
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << layerName(s.layer)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
        << ",\"ts\":" << microsBetween(origin, s.start)
        << ",\"dur\":" << microsBetween(s.start, s.end) << "}";
  }
  out << "\n]}\n";
}

TracingTable::TracingTable(
    std::unique_ptr<exthash::tables::ExternalHashTable> inner, Tracer& tracer)
    : ExternalHashTable(inner->context()),
      inner_(std::move(inner)),
      tracer_(tracer) {}

bool TracingTable::insert(std::uint64_t key, std::uint64_t value) {
  return inner_->insert(key, value);
}

std::optional<std::uint64_t> TracingTable::lookup(std::uint64_t key) {
  return inner_->lookup(key);
}

bool TracingTable::erase(std::uint64_t key) { return inner_->erase(key); }

void TracingTable::applyBatch(std::span<const exthash::tables::Op> ops) {
  const auto start = Clock::now();
  inner_->applyBatch(ops);
  tracer_.tableCall(true, start, Clock::now());
}

void TracingTable::lookupBatch(std::span<const std::uint64_t> keys,
                               std::span<std::optional<std::uint64_t>> out) {
  const auto start = Clock::now();
  inner_->lookupBatch(keys, out);
  tracer_.tableCall(false, start, Clock::now());
}

template <class Call>
auto TimingFileOps::counted(Counter& counter, Call&& call) {
  const auto start = tracer_ != nullptr ? Clock::now() : Clock::time_point{};
  const auto result = call();
  const int call_errno = errno;  // the caller reads errno after a failure
  counter.calls.fetch_add(1, std::memory_order_relaxed);
  if (tracer_ != nullptr) {
    const auto end = Clock::now();
    counter.nanos.fetch_add(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
            .count(),
        std::memory_order_relaxed);
    tracer_->record(Layer::kStorage, start, end);
  }
  errno = call_errno;
  return result;
}

ssize_t TimingFileOps::pread(int fd, void* buf, std::size_t count,
                             off_t offset) {
  const ssize_t n = counted(pread_, [&] {
    return exthash::extmem::realFileOps().pread(fd, buf, count, offset);
  });
  if (n > 0) {
    pread_.bytes.fetch_add(static_cast<std::uint64_t>(n),
                           std::memory_order_relaxed);
  }
  return n;
}

ssize_t TimingFileOps::pwrite(int fd, const void* buf, std::size_t count,
                              off_t offset) {
  const ssize_t n = counted(pwrite_, [&] {
    return exthash::extmem::realFileOps().pwrite(fd, buf, count, offset);
  });
  if (n > 0) {
    pwrite_.bytes.fetch_add(static_cast<std::uint64_t>(n),
                            std::memory_order_relaxed);
  }
  return n;
}

int TimingFileOps::fsync(int fd) {
  return counted(fsync_,
                 [&] { return exthash::extmem::realFileOps().fsync(fd); });
}

int TimingFileOps::fallocate(int fd, off_t offset, off_t len) {
  // Preallocation is file growth, not block traffic: forwarded, not counted.
  return exthash::extmem::realFileOps().fallocate(fd, offset, len);
}

}  // namespace perfbench
