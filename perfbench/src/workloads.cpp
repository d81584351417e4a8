#include "workloads.h"

#include <algorithm>
#include <optional>
#include <sstream>

#include "durability/recovery.h"
#include "extmem/block_device.h"
#include "extmem/bucket_page.h"
#include "extmem/memory_budget.h"
#include "hashfn/hash_family.h"
#include "pipeline/ingest_pipeline.h"
#include "tables/factory.h"
#include "tables/sharded_table.h"
#include "util/random.h"
#include "util/zipf.h"
#include "workload/keygen.h"

namespace perfbench {

namespace {

using namespace exthash;
using durability::DurabilityManager;
using durability::RecoveryResult;
using extmem::IoStats;
using pipeline::IngestPipeline;
using pipeline::PipelineConfig;
using pipeline::PipelineStats;
using tables::ExternalHashTable;
using tables::GeneralConfig;
using tables::Op;
using tables::ShardedTable;
using tables::TableKind;

// b = 64 records per block on every workload.
constexpr std::size_t kB = 64;
constexpr std::size_t kWords = extmem::wordsForRecordCapacity(kB);
constexpr std::size_t kBlockBytes = kWords * sizeof(extmem::Word);

/// The value the i-th write of a round stores: distinct per round and per
/// write, so a stale version can never pass for the current one.
std::uint64_t valueFor(std::uint64_t seed, std::size_t round, std::uint64_t i) {
  const std::uint64_t v =
      splitmix64(seed ^ splitmix64((std::uint64_t{round} << 40) ^ i));
  return v == kTombstoneValue ? v ^ 1 : v;
}

/// The library objects of one round: context device, budget, hash and
/// table. In traced rounds the table is a TracingTable around the
/// library's table.
struct Stack {
  std::unique_ptr<extmem::BlockDevice> device;
  std::unique_ptr<extmem::MemoryBudget> memory;
  hashfn::HashPtr hash;
  std::unique_ptr<ExternalHashTable> table;
  ShardedTable* sharded = nullptr;  // the library's façade, when sharded

  Stack(std::uint64_t seed, const extmem::StorageOptions& storage = {})
      : device(std::make_unique<extmem::BlockDevice>(kWords, storage)),
        memory(std::make_unique<extmem::MemoryBudget>(0)),
        hash(hashfn::makeHash(hashfn::HashKind::kMix, seed)) {}

  /// Constructs the table; returns the construction time in seconds.
  double build(TableKind kind, const GeneralConfig& cfg, Tracer* tracer) {
    const auto start = Clock::now();
    auto inner = tables::makeTable(
        kind, tables::TableContext{device.get(), memory.get(), hash}, cfg);
    const double seconds = secondsSince(start);
    sharded = dynamic_cast<ShardedTable*>(inner.get());
    if (tracer != nullptr) {
      table = std::make_unique<TracingTable>(std::move(inner), *tracer);
    } else {
      table = std::move(inner);
    }
    return seconds;
  }
};

std::vector<IoStats> deviceStats(ExternalHashTable& table) {
  std::vector<IoStats> out;
  for (std::size_t i = 0; i < table.durableDeviceCount(); ++i) {
    out.push_back(table.durableDevice(i).stats());
  }
  return out;
}

double idSpaceBytes(ExternalHashTable& table) {
  std::size_t blocks = 0;
  for (std::size_t i = 0; i < table.durableDeviceCount(); ++i) {
    blocks += table.durableDevice(i).idSpaceSize();
  }
  return static_cast<double>(blocks) * kBlockBytes;
}

struct CacheCounts {
  std::uint64_t hits = 0, misses = 0, writebacks = 0, ghost_hits = 0;
};

CacheCounts cacheCounts(const ShardedTable* sharded) {
  CacheCounts c;
  if (sharded == nullptr) return c;
  for (std::size_t i = 0; i < sharded->shardCount(); ++i) {
    const extmem::BlockCache* cache = sharded->shardCache(i);
    if (cache == nullptr) continue;
    c.hits += cache->hits();
    c.misses += cache->misses();
    c.writebacks += cache->writebacks();
    c.ghost_hits += cache->ghostHits();
  }
  return c;
}

/// The façade's aggregate must equal the sum over its shards' devices plus
/// the per-shard cache counters. Both totals read the same counters, so
/// this guards the façade's aggregation only; checkFileIo is the check by
/// an independent path.
void checkIoConservation(const ShardedTable& sharded, Checker& checker) {
  IoStats sum;
  for (std::size_t i = 0; i < sharded.shardCount(); ++i) {
    sum += sharded.shardDevice(i).stats();
    if (const extmem::BlockCache* cache = sharded.shardCache(i)) {
      sum.cache_hits += cache->hits();
      sum.cache_writebacks += cache->writebacks();
      sum.cache_ghost_hits += cache->ghostHits();
    }
  }
  const IoStats agg = sharded.ioStats();
  const bool equal =
      agg.reads == sum.reads && agg.writes == sum.writes &&
      agg.rmws == sum.rmws && agg.fsyncs == sum.fsyncs &&
      agg.cache_bypass_reads == sum.cache_bypass_reads &&
      agg.cache_hits == sum.cache_hits &&
      agg.cache_writebacks == sum.cache_writebacks &&
      agg.cache_ghost_hits == sum.cache_ghost_hits;
  std::ostringstream msg;
  msg << "sharded ioStats() (cost " << agg.cost()
      << ") equals the sum over shard devices and caches (cost "
      << sum.cost() << ")";
  checker.require(equal, msg.str());
}

/// Counted I/O against the syscalls the benchmark's own FileOps saw on a
/// file-backed device, over a phase with no checkpoint, allocation or
/// restore (those read or write blocks uncounted): every counted read or
/// read-modify-write is one pread, every counted write or read-modify-write
/// one pwrite.
void checkFileIo(const IoStats& device, std::uint64_t preads,
                 std::uint64_t pwrites, Checker& checker) {
  std::ostringstream msg;
  msg << "device reads " << device.reads << " + rmws " << device.rmws
      << " == preads " << preads << ", writes " << device.writes
      << " + rmws == pwrites " << pwrites;
  checker.require(device.reads > 0 && device.reads + device.rmws == preads &&
                      device.writes + device.rmws == pwrites,
                  msg.str());
}

void checkPipelineLedger(const PipelineStats& ps, Checker& checker) {
  std::ostringstream msg;
  msg << "pipeline ops_submitted " << ps.ops_submitted
      << " == ops_applied " << ps.ops_applied << " + ops_coalesced "
      << ps.ops_coalesced;
  checker.require(ps.ops_submitted == ps.ops_applied + ps.ops_coalesced &&
                      ps.ops_discarded == 0,
                  msg.str());
}

void checkSize(ExternalHashTable& table, const ReferenceModel& model,
               Checker& checker, const char* where) {
  std::ostringstream msg;
  msg << where << ": size() " << table.size() << " == reference count "
      << model.liveCount();
  checker.require(table.size() == model.liveCount(), msg.str());
}

/// One synchronous lookup request: timed, checked, and its device reads
/// charged to the read side (writes it triggers, e.g. write-back
/// evictions, are charged to the writes that dirtied the frames).
void lookupRequest(ExternalHashTable& table, std::span<const std::uint64_t> keys,
                   const ReferenceModel& model, Checker& checker,
                   RoundResult& r) {
  std::vector<std::optional<std::uint64_t>> out(keys.size());
  const IoStats before = table.ioStats();
  const auto start = Clock::now();
  table.lookupBatch(keys, out);
  const auto end = Clock::now();
  const IoStats delta = table.ioStats() - before;
  r.read_s += secondsBetween(start, end);
  r.read_ops += keys.size();
  r.read_latency_us.push_back(secondsBetween(start, end) * 1e6);
  r.read_io += delta.reads;
  r.write_io += delta.writeCost();
  checker.lookups(keys, out, model, "lookup request");
}

/// Submits one op to the pipeline, as a pipeline span when traced.
void submitOp(IngestPipeline& pipe, const Op& op, Tracer* tracer,
              double& busy_s) {
  if (tracer == nullptr) {
    pipe.submit(op);
    return;
  }
  const auto start = Clock::now();
  pipe.submit(op);
  const auto end = Clock::now();
  tracer->record(Layer::kPipeline, start, end);
  busy_s += secondsBetween(start, end);
}

double drainPipeline(IngestPipeline& pipe, Tracer* tracer) {
  ScopedSpan span(tracer, Layer::kPipeline);
  const auto start = Clock::now();
  pipe.drain();
  return secondsSince(start);
}

double timedCheckpoint(DurabilityManager& dm, ExternalHashTable& table,
                       Tracer* tracer) {
  ScopedSpan span(tracer, Layer::kDurability);
  const auto start = Clock::now();
  dm.checkpoint(table);
  return secondsSince(start);
}

struct Restart {
  double restart_s = 0;
  double construct_s = 0;
  double recover_s = 0;
  RecoveryResult result;
};

/// The simulated crash and restart: freeze every durable device, drop the
/// table, build a fresh one with the same configuration and recover it.
Restart crashAndRestart(Stack& stack, DurabilityManager& dm, TableKind kind,
                        const GeneralConfig& cfg, Tracer* tracer,
                        Checker& checker) {
  const std::uint64_t durable_lsn = dm.wal().durableLsn();
  dm.freezeAll(*stack.table);
  stack.table.reset();
  stack.sharded = nullptr;
  stack.device->thaw();

  Restart out;
  const auto start = Clock::now();
  out.construct_s = stack.build(kind, cfg, tracer);
  {
    ScopedSpan span(tracer, Layer::kDurability);
    const auto recover_start = Clock::now();
    out.result = dm.recover(*stack.table);
    out.recover_s = secondsSince(recover_start);
  }
  out.restart_s = secondsSince(start);

  std::ostringstream msg;
  msg << "recovered_lsn " << out.result.recovered_lsn
      << " >= durable LSN at the crash " << durable_lsn;
  checker.require(out.result.recovered_lsn >= durable_lsn, msg.str());
  return out;
}

// ---- Per-layer figures of traced rounds ---------------------------------

void fillPipelineLayer(RoundResult& r, const PipelineStats& ps,
                       double submit_busy_s, double drain_s) {
  r.layer["pipeline.submit_busy_s"] = submit_busy_s;
  r.layer["pipeline.submit_waits"] = static_cast<double>(ps.submit_waits);
  r.layer["pipeline.drain_s"] = drain_s;
  r.layer["pipeline.windows_applied"] =
      static_cast<double>(ps.batches_applied);
  r.layer["pipeline.ops_coalesced"] = static_cast<double>(ps.ops_coalesced);
  r.layer["pipeline.ops_per_window"] =
      ps.batches_applied == 0 ? 0.0
                              : static_cast<double>(ps.ops_applied) /
                                    static_cast<double>(ps.batches_applied);
}

/// Device counters over the measured phases, plus the space held now.
void fillDeviceLayer(RoundResult& r, ExternalHashTable& table,
                     const std::vector<IoStats>& before) {
  const std::vector<IoStats> after = deviceStats(table);
  IoStats sum;
  double max_cost = 0;
  double total_cost = 0;
  for (std::size_t i = 0; i < after.size(); ++i) {
    const IoStats d = after[i] - before[i];
    sum += d;
    max_cost = std::max(max_cost, static_cast<double>(d.cost()));
    total_cost += static_cast<double>(d.cost());
  }
  std::size_t in_use = 0;
  std::size_t id_space = 0;
  for (std::size_t i = 0; i < table.durableDeviceCount(); ++i) {
    in_use += table.durableDevice(i).blocksInUse();
    id_space += table.durableDevice(i).idSpaceSize();
  }
  r.layer["extmem.reads"] = static_cast<double>(sum.reads);
  r.layer["extmem.writes"] = static_cast<double>(sum.writes);
  r.layer["extmem.rmws"] = static_cast<double>(sum.rmws);
  r.layer["extmem.bypass_reads"] = static_cast<double>(sum.cache_bypass_reads);
  r.layer["extmem.fsyncs"] = static_cast<double>(sum.fsyncs);
  r.layer["extmem.blocks_in_use"] = static_cast<double>(in_use);
  r.layer["extmem.id_space_blocks"] = static_cast<double>(id_space);
  const double mean = total_cost / static_cast<double>(after.size());
  r.layer["tables.shard_io_max_over_mean"] = mean > 0 ? max_cost / mean : 0.0;
}

void fillCacheLayer(RoundResult& r, const CacheCounts& before,
                    const CacheCounts& after) {
  const double hits = static_cast<double>(after.hits - before.hits);
  const double misses = static_cast<double>(after.misses - before.misses);
  r.layer["extmem.cache.hits"] = hits;
  r.layer["extmem.cache.misses"] = misses;
  r.layer["extmem.cache.hit_ratio"] =
      hits + misses > 0 ? hits / (hits + misses) : 0.0;
  r.layer["extmem.cache.writebacks"] =
      static_cast<double>(after.writebacks - before.writebacks);
  r.layer["extmem.cache.ghost_hits"] =
      static_cast<double>(after.ghost_hits - before.ghost_hits);
}

void fillStorageLayer(RoundResult& r, const std::string& prefix,
                      const TimingFileOps& ops) {
  const auto fill = [&](const char* name, const TimingFileOps::Counter& c,
                        bool with_bytes) {
    r.layer[prefix + name + "_calls"] = static_cast<double>(c.calls.load());
    r.layer[prefix + name + "_s"] = static_cast<double>(c.nanos.load()) * 1e-9;
    if (with_bytes) {
      r.layer[prefix + name + "_bytes"] = static_cast<double>(c.bytes.load());
    }
  };
  fill("pread", ops.preads(), true);
  fill("pwrite", ops.pwrites(), true);
  fill("fsync", ops.fsyncs(), false);
}

/// WAL figures at the crash.
struct WalSnapshot {
  std::uint64_t records = 0, blocks = 0, group_commits = 0, fsyncs = 0;
};

WalSnapshot walSnapshot(DurabilityManager& dm) {
  return WalSnapshot{dm.wal().recordsAppended(), dm.wal().blocksWritten(),
                     dm.wal().groupCommits(), dm.walDevice().stats().fsyncs};
}

void fillDurabilityLayer(RoundResult& r, const WalSnapshot& wal,
                         std::uint64_t logged_ops,
                         const std::vector<Restart>& restarts) {
  r.layer["durability.wal.records"] = static_cast<double>(wal.records);
  r.layer["durability.wal.blocks_written"] = static_cast<double>(wal.blocks);
  r.layer["durability.wal.group_commits"] =
      static_cast<double>(wal.group_commits);
  r.layer["durability.wal.fsyncs"] = static_cast<double>(wal.fsyncs);
  r.layer["durability.wal.ops_per_fsync"] =
      wal.fsyncs == 0 ? 0.0
                      : static_cast<double>(logged_ops) /
                            static_cast<double>(wal.fsyncs);
  // The timed checkpoint calls of the round (not the initial one, nor the
  // one recovery commits).
  r.layer["durability.checkpoints"] = static_cast<double>(r.checkpoint_s.size());
  double busy = 0;
  for (const double s : r.checkpoint_s) busy += s;
  r.layer["durability.checkpoint_busy_s"] = busy;
  std::vector<double> recover_s, construct_s;
  for (const Restart& restart : restarts) {
    recover_s.push_back(restart.recover_s);
    construct_s.push_back(restart.construct_s);
  }
  r.layer["durability.recover_s"] = median(recover_s);
  r.layer["tables.construct_s"] = median(construct_s);
  // Only the first restart after the measured work has a log to replay.
  r.layer["durability.replayed_records"] =
      static_cast<double>(restarts.front().result.replayed_records);
  r.layer["durability.replayed_ops"] =
      static_cast<double>(restarts.front().result.replayed_ops);
}

/// Ends a round of the in-memory workloads: `cycles` times a timed
/// checkpoint, the crash and the restart, each checked. Several cycles
/// give the short checkpoint and restart times enough samples.
std::vector<Restart> checkpointCrashRestart(Stack& stack,
                                            DurabilityManager& dm,
                                            TableKind kind,
                                            const GeneralConfig& cfg,
                                            std::size_t cycles, Tracer* tracer,
                                            const ReferenceModel& model,
                                            Checker& checker, RoundResult& r) {
  std::vector<Restart> restarts;
  for (std::size_t c = 0; c < cycles; ++c) {
    r.checkpoint_s.push_back(timedCheckpoint(dm, *stack.table, tracer));
    restarts.push_back(
        crashAndRestart(stack, dm, kind, cfg, tracer, checker));
    r.restart_s.push_back(restarts.back().restart_s);
    checkSize(*stack.table, model, checker, "after a restart");
  }
  return restarts;
}

// ---- ingest-distinct ----------------------------------------------------
//
// The paper's Theorem-2 table (buffered, b = 64, beta = 8) behind the
// 4-shard façade, in memory. Distinct uniform keys are bulk-loaded through
// the pipeline in large windows; synchronous lookup requests follow, half
// present and half absent keys; then a checkpoint and a restart.

class IngestDistinct final : public Workload {
 public:
  static constexpr std::size_t kKeys = std::size_t{1} << 18;
  static constexpr std::size_t kWindow = std::size_t{1} << 16;
  static constexpr std::size_t kRequests = 1024;
  static constexpr std::size_t kRequestKeys = 1024;
  static constexpr std::size_t kAbsentKeys = kKeys / 2;
  static constexpr std::size_t kCycles = 3;  // checkpoint + crash + restart

  void generate(std::uint64_t seed) override {
    seed_ = seed;
    workload::DistinctKeyStream stream(deriveSeed(seed, 1));
    keys_.resize(kKeys);
    for (auto& k : keys_) k = stream.next();
    // Absent keys continue the same permutation, so none was inserted.
    std::vector<std::uint64_t> absent(kAbsentKeys);
    for (auto& k : absent) k = stream.next();
    Xoshiro256StarStar rng(deriveSeed(seed, 2));
    requests_.resize(kRequests * kRequestKeys);
    for (std::size_t i = 0; i < requests_.size(); ++i) {
      requests_[i] = i % 2 == 0 ? keys_[rng.below(kKeys)]
                                : absent[rng.below(kAbsentKeys)];
    }
    sweep_keys_ = keys_;
    sweep_keys_.insert(sweep_keys_.end(), absent.begin(), absent.end());
  }

  RoundResult runRound(const RoundEnv& env) override {
    Tracer* tracer = env.tracer;
    Checker& checker = *env.checker;
    RoundResult r;
    ReferenceModel model;

    GeneralConfig cfg;
    cfg.expected_n = kKeys;
    cfg.buffer_items = 4096;
    cfg.beta = 8;
    cfg.gamma = 2;
    cfg.shards = 4;
    cfg.sharded_inner = TableKind::kBuffered;
    cfg.shard_threads = 2;  // + client + pipeline worker = 4 threads

    Stack stack(deriveSeed(seed_, 3));
    stack.build(TableKind::kSharded, cfg, tracer);
    DurabilityManager dm(kWords);
    dm.begin(*stack.table);
    std::vector<Op> ops(kKeys);
    for (std::size_t i = 0; i < kKeys; ++i) {
      ops[i] = Op::insertOp(keys_[i], valueFor(seed_, env.round, i));
    }
    r.setup_end = Clock::now();

    // Write phase: bulk load through the pipeline, through drain().
    if (tracer != nullptr) tracer->setMeasuring(true);
    const std::vector<IoStats> devices_before = deviceStats(*stack.table);
    const IoStats io_before = stack.table->ioStats();
    double submit_busy_s = 0;
    double drain_s = 0;
    PipelineStats ps;
    const auto write_start = Clock::now();
    {
      PipelineConfig pc;
      pc.batch_capacity = kWindow;
      pc.max_pending_batches = 1;
      IngestPipeline pipe(*stack.table, pc);
      for (const Op& op : ops) submitOp(pipe, op, tracer, submit_busy_s);
      drain_s = drainPipeline(pipe, tracer);
      ps = pipe.stats();
    }
    r.write_s = secondsSince(write_start);
    r.write_ops = kKeys;
    r.write_io = (stack.table->ioStats() - io_before).cost();
    checker.writes(kKeys);
    checkPipelineLedger(ps, checker);
    // The reference model is the checker's, not the system's: it is fed
    // between the timed phases, outside set-up and the write phase.
    for (const Op& op : ops) model.apply(op);

    // Read phase.
    for (std::size_t q = 0; q < kRequests; ++q) {
      lookupRequest(*stack.table,
                    std::span(requests_).subspan(q * kRequestKeys,
                                                 kRequestKeys),
                    model, checker, r);
    }
    if (tracer != nullptr) tracer->setMeasuring(false);

    r.space_bytes_per_record =
        idSpaceBytes(*stack.table) / static_cast<double>(stack.table->size());
    checkSize(*stack.table, model, checker, "after the load");
    checkIoConservation(*stack.sharded, checker);
    {
      std::ostringstream msg;
      msg << "Theorem-2 write_io_per_op " << r.write_io << "/" << r.write_ops
          << " < 1";
      checker.require(r.write_io < r.write_ops, msg.str());
    }
    if (tracer != nullptr) {
      fillPipelineLayer(r, ps, submit_busy_s, drain_s);
      fillDeviceLayer(r, *stack.table, devices_before);
      fillCacheLayer(r, {}, {});
    }
    const WalSnapshot wal = walSnapshot(dm);

    const std::vector<Restart> restarts =
        checkpointCrashRestart(stack, dm, TableKind::kSharded, cfg, kCycles,
                               tracer, model, checker, r);
    sweep(*stack.table, sweep_keys_, model, checker, "post-restart sweep");
    if (tracer != nullptr) fillDurabilityLayer(r, wal, 0, restarts);
    return r;
  }

 private:
  std::uint64_t seed_ = 0;
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint64_t> requests_;
  std::vector<std::uint64_t> sweep_keys_;
};

// ---- serve-zipf ---------------------------------------------------------
//
// A 4-shard chaining table pre-loaded during set-up, each shard with a
// write-back ARC cache of about a quarter of its primary blocks. One
// closed-loop client sends 16-key requests: 90% lookupBatch, 10% applyBatch
// updates, on zipf(0.99) keys over the loaded set. Then a checkpoint and a
// restart.

class ServeZipf final : public Workload {
 public:
  static constexpr std::size_t kKeys = std::size_t{1} << 18;
  static constexpr std::size_t kShards = 4;
  static constexpr double kLoad = 0.5;
  // Primary blocks: kKeys / (kLoad * b) = 8,192, 2,048 per shard. The
  // frame count is the total over all shards (the façade splits it evenly),
  // so each shard's cache holds 512 frames, a quarter of its primary blocks.
  static constexpr std::size_t kPrimaryBlocks =
      static_cast<std::size_t>(kKeys / (kLoad * kB));
  static constexpr std::size_t kCacheFrames = kPrimaryBlocks / 4;
  static constexpr std::size_t kRequests = 40000;
  static constexpr std::size_t kWarmupRequests = 8192;
  static constexpr std::size_t kRequestKeys = 16;
  static constexpr std::size_t kPreloadBatch = 16384;
  static constexpr std::size_t kCycles = 5;  // checkpoint + crash + restart
  static constexpr double kTheta = 0.99;

  void generate(std::uint64_t seed) override {
    seed_ = seed;
    workload::DistinctKeyStream stream(deriveSeed(seed, 1));
    keys_.resize(kKeys);
    for (auto& k : keys_) k = stream.next();
    ZipfDistribution zipf(kKeys, kTheta);
    Xoshiro256StarStar rng(deriveSeed(seed, 2));
    const auto draw = [&] { return keys_[zipf(rng) - 1]; };
    warmup_.resize(kWarmupRequests * kRequestKeys);
    for (auto& k : warmup_) k = draw();
    is_update_.resize(kRequests);
    request_keys_.resize(kRequests * kRequestKeys);
    for (std::size_t q = 0; q < kRequests; ++q) {
      is_update_[q] = rng.below(10) == 0;
      for (std::size_t j = 0; j < kRequestKeys; ++j) {
        request_keys_[q * kRequestKeys + j] = draw();
      }
    }
  }

  RoundResult runRound(const RoundEnv& env) override {
    Tracer* tracer = env.tracer;
    Checker& checker = *env.checker;
    RoundResult r;
    ReferenceModel model;

    GeneralConfig cfg;
    cfg.expected_n = kKeys;
    cfg.target_load = kLoad;
    cfg.shards = kShards;
    cfg.sharded_inner = TableKind::kChaining;
    cfg.shard_threads = 3;  // + the client = 4 threads
    cfg.shard_cache_frames = kCacheFrames;
    cfg.shard_cache_write_back = true;
    cfg.shard_cache_replacement = extmem::ReplacementKind::kArc;

    Stack stack(deriveSeed(seed_, 3));
    stack.build(TableKind::kSharded, cfg, tracer);
    DurabilityManager dm(kWords);
    dm.begin(*stack.table);

    // Pre-load, flush, and warm the caches with lookups.
    std::vector<Op> ops;
    for (std::size_t i = 0; i < kKeys; i += kPreloadBatch) {
      ops.clear();
      for (std::size_t j = i; j < std::min(kKeys, i + kPreloadBatch); ++j) {
        ops.push_back(Op::insertOp(keys_[j], valueFor(seed_, env.round, j)));
      }
      stack.table->applyBatch(ops);
      checker.writes(ops.size());
    }
    stack.table->flushCache();
    std::vector<std::optional<std::uint64_t>> warmup_out(warmup_.size());
    for (std::size_t q = 0; q < kWarmupRequests; ++q) {
      stack.table->lookupBatch(
          std::span(warmup_).subspan(q * kRequestKeys, kRequestKeys),
          std::span(warmup_out).subspan(q * kRequestKeys, kRequestKeys));
    }
    r.setup_end = Clock::now();

    // The reference model is the checker's, not the system's: it is fed,
    // and the warm-up answers checked, after set-up.
    for (std::size_t j = 0; j < kKeys; ++j) {
      model.apply(Op::insertOp(keys_[j], valueFor(seed_, env.round, j)));
    }
    checker.lookups(warmup_, warmup_out, model, "warm-up lookup");

    // Measured requests.
    if (tracer != nullptr) tracer->setMeasuring(true);
    const std::vector<IoStats> devices_before = deviceStats(*stack.table);
    const CacheCounts cache_before = cacheCounts(stack.sharded);
    for (std::size_t q = 0; q < kRequests; ++q) {
      const auto keys =
          std::span(request_keys_).subspan(q * kRequestKeys, kRequestKeys);
      if (!is_update_[q]) {
        lookupRequest(*stack.table, keys, model, checker, r);
        continue;
      }
      ops.clear();
      for (std::size_t j = 0; j < kRequestKeys; ++j) {
        ops.push_back(Op::insertOp(
            keys[j], valueFor(seed_, env.round, kKeys + q * kRequestKeys + j)));
        model.apply(ops.back());
      }
      const IoStats before = stack.table->ioStats();
      const auto start = Clock::now();
      stack.table->applyBatch(ops);
      r.write_s += secondsSince(start);
      r.write_io += (stack.table->ioStats() - before).cost();
      r.write_ops += ops.size();
      checker.writes(ops.size());
    }
    {
      // The write-back flush is part of what the updates cost.
      const IoStats before = stack.table->ioStats();
      const auto start = Clock::now();
      stack.table->flushCache();
      r.write_s += secondsSince(start);
      r.write_io += (stack.table->ioStats() - before).cost();
    }
    if (tracer != nullptr) tracer->setMeasuring(false);
    const CacheCounts cache_after = cacheCounts(stack.sharded);

    r.space_bytes_per_record =
        idSpaceBytes(*stack.table) / static_cast<double>(stack.table->size());
    checkSize(*stack.table, model, checker, "after the requests");
    checkIoConservation(*stack.sharded, checker);
    if (tracer != nullptr) {
      fillPipelineLayer(r, {}, 0, 0);
      fillDeviceLayer(r, *stack.table, devices_before);
      fillCacheLayer(r, cache_before, cache_after);
    }
    const WalSnapshot wal = walSnapshot(dm);

    const std::vector<Restart> restarts =
        checkpointCrashRestart(stack, dm, TableKind::kSharded, cfg, kCycles,
                               tracer, model, checker, r);
    sweep(*stack.table, keys_, model, checker, "post-restart sweep");
    if (tracer != nullptr) fillDurabilityLayer(r, wal, 0, restarts);
    return r;
  }

 private:
  std::uint64_t seed_ = 0;
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint64_t> warmup_;
  std::vector<std::uint8_t> is_update_;
  std::vector<std::uint64_t> request_keys_;
};

// ---- durable-upsert-file ------------------------------------------------
//
// Plain chaining on file-backed devices for the table, the WAL and the
// manifests. Upserts and about 10% erases on zipf keys over a universe
// smaller than the op count go through the pipeline with the WAL attached
// (one fdatasync per group commit); checkpoints run every eighth of the
// ops through submitMaintenance. A lookup phase follows, then a crash and a
// restart whose recovery replays the records logged after the last
// checkpoint.

class DurableUpsertFile final : public Workload {
 public:
  static constexpr std::size_t kUniverse = std::size_t{1} << 16;
  static constexpr std::size_t kOps = std::size_t{1} << 20;
  static constexpr std::size_t kWindow = 4096;
  static constexpr std::size_t kCheckpointEvery = kOps / 8;
  static constexpr std::size_t kRequests = 4096;
  static constexpr std::size_t kRequestKeys = 256;
  static constexpr double kTheta = 0.99;

  void generate(std::uint64_t seed) override {
    seed_ = seed;
    workload::DistinctKeyStream stream(deriveSeed(seed, 1));
    universe_.resize(kUniverse);
    for (auto& k : universe_) k = stream.next();
    ZipfDistribution zipf(kUniverse, kTheta);
    Xoshiro256StarStar rng(deriveSeed(seed, 2));
    op_keys_.resize(kOps);
    is_erase_.resize(kOps);
    for (std::size_t i = 0; i < kOps; ++i) {
      op_keys_[i] = universe_[zipf(rng) - 1];
      is_erase_[i] = rng.below(10) == 0;
    }
    // Lookups: three in four zipf, one in four uniform over the universe,
    // so keys never written and keys erased are asked for too.
    lookups_.resize(kRequests * kRequestKeys);
    for (auto& k : lookups_) {
      k = rng.below(4) == 0 ? universe_[rng.below(kUniverse)]
                            : universe_[zipf(rng) - 1];
    }
  }

  RoundResult runRound(const RoundEnv& env) override {
    Tracer* tracer = env.tracer;
    Checker& checker = *env.checker;
    RoundResult r;
    ReferenceModel model;

    const std::filesystem::path dir =
        env.scratch / ("round-" + std::to_string(env.round));
    std::filesystem::create_directories(dir);
    // One counting FileOps for the table device, one for the WAL and
    // manifests (timing too in traced rounds); both outlive every device
    // below.
    TimingFileOps table_ops(tracer);
    TimingFileOps log_ops(tracer);
    const auto storage = [&](TimingFileOps& ops) {
      extmem::StorageOptions so;
      so.backend = extmem::StorageOptions::Backend::kFile;
      so.directory = dir.string();
      so.file_ops = &ops;
      return so;
    };

    GeneralConfig cfg;
    cfg.expected_n = kUniverse;
    cfg.target_load = 0.5;
    {
      Stack stack(deriveSeed(seed_, 3), storage(table_ops));
      stack.build(TableKind::kChaining, cfg, tracer);
      DurabilityManager dm(kWords, storage(log_ops));
      dm.begin(*stack.table);
      std::vector<Op> ops(kOps);
      for (std::size_t i = 0; i < kOps; ++i) {
        ops[i] = is_erase_[i]
                     ? Op::eraseOp(op_keys_[i])
                     : Op::insertOp(op_keys_[i], valueFor(seed_, env.round, i));
      }
      r.setup_end = Clock::now();

      const auto counted = [&] {
        return stack.table->ioStats().cost() +
               dm.walDevice().stats().cost() +
               dm.manifestDevice().stats().cost();
      };

      // Write phase, through drain(); checkpoints ride the worker queue.
      if (tracer != nullptr) tracer->setMeasuring(true);
      const std::vector<IoStats> devices_before = deviceStats(*stack.table);
      const std::uint64_t io_before = counted();
      double submit_busy_s = 0;
      double drain_s = 0;
      PipelineStats ps;
      const auto write_start = Clock::now();
      {
        PipelineConfig pc;
        pc.batch_capacity = kWindow;
        pc.max_pending_batches = 1;
        pc.wal = &dm.wal();
        IngestPipeline pipe(*stack.table, pc);
        for (std::size_t i = 0; i < kOps; ++i) {
          submitOp(pipe, ops[i], tracer, submit_busy_s);
          if ((i + 1) % kCheckpointEvery == 0 && i + 1 < kOps) {
            pipe.submitMaintenance([&] {
              r.checkpoint_s.push_back(
                  timedCheckpoint(dm, *stack.table, tracer));
            });
          }
        }
        drain_s = drainPipeline(pipe, tracer);
        ps = pipe.stats();
      }
      r.write_s = secondsSince(write_start);
      r.write_ops = kOps;
      r.write_io = counted() - io_before;
      checker.writes(kOps);
      checkPipelineLedger(ps, checker);
      {
        std::ostringstream msg;
        msg << "WAL records " << dm.wal().recordsAppended()
            << " == windows applied " << ps.batches_applied;
        checker.require(dm.wal().recordsAppended() == ps.batches_applied,
                        msg.str());
      }
      // As on ingest-distinct, the model is fed between the timed phases.
      for (const Op& op : ops) model.apply(op);

      // Read phase. Its device reads are counted twice, independently: by
      // the device and by the FileOps under it (one pread per block read).
      const IoStats device_before = stack.table->durableDevice(0).stats();
      const std::uint64_t preads_before = table_ops.preads().calls.load();
      const std::uint64_t pwrites_before = table_ops.pwrites().calls.load();
      for (std::size_t q = 0; q < kRequests; ++q) {
        lookupRequest(*stack.table,
                      std::span(lookups_).subspan(q * kRequestKeys,
                                                  kRequestKeys),
                      model, checker, r);
      }
      if (tracer != nullptr) tracer->setMeasuring(false);
      checkFileIo(stack.table->durableDevice(0).stats() - device_before,
                  table_ops.preads().calls.load() - preads_before,
                  table_ops.pwrites().calls.load() - pwrites_before, checker);

      r.space_bytes_per_record = idSpaceBytes(*stack.table) /
                                 static_cast<double>(stack.table->size());
      checkSize(*stack.table, model, checker, "after the upserts");
      if (tracer != nullptr) {
        fillPipelineLayer(r, ps, submit_busy_s, drain_s);
        fillDeviceLayer(r, *stack.table, devices_before);
        fillCacheLayer(r, {}, {});
      }
      const WalSnapshot wal = walSnapshot(dm);

      const Restart restart = crashAndRestart(stack, dm, TableKind::kChaining,
                                              cfg, tracer, checker);
      r.restart_s.push_back(restart.restart_s);
      checker.require(restart.result.replayed_records > 0,
                      "recovery replayed the records logged after the last "
                      "checkpoint");
      checkSize(*stack.table, model, checker, "after the restart");
      sweep(*stack.table, universe_, model, checker, "post-restart sweep");
      if (tracer != nullptr) {
        fillDurabilityLayer(r, wal, ps.ops_applied, {restart});
        fillStorageLayer(r, "extmem.storage.table.", table_ops);
        fillStorageLayer(r, "extmem.storage.log.", log_ops);
      }
    }
    std::filesystem::remove_all(dir);
    return r;
  }

 private:
  std::uint64_t seed_ = 0;
  std::vector<std::uint64_t> universe_;
  std::vector<std::uint64_t> op_keys_;
  std::vector<std::uint8_t> is_erase_;
  std::vector<std::uint64_t> lookups_;
};

}  // namespace

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> names = {
      "ingest-distinct", "serve-zipf", "durable-upsert-file"};
  return names;
}

std::unique_ptr<Workload> makeWorkload(const std::string& name) {
  if (name == "ingest-distinct") return std::make_unique<IngestDistinct>();
  if (name == "serve-zipf") return std::make_unique<ServeZipf>();
  if (name == "durable-upsert-file") {
    return std::make_unique<DurableUpsertFile>();
  }
  return nullptr;
}

}  // namespace perfbench
