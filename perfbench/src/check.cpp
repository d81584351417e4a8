#include "check.h"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "extmem/block_device.h"
#include "extmem/bucket_page.h"
#include "extmem/memory_budget.h"
#include "hashfn/hash_family.h"
#include "tables/factory.h"
#include "util/random.h"

namespace perfbench {

using exthash::tables::Op;
using exthash::tables::OpKind;

void ReferenceModel::apply(const Op& op) {
  if (op.kind == OpKind::kInsert) {
    live_[op.key] = op.value;
  } else {
    live_.erase(op.key);
  }
}

std::optional<std::uint64_t> ReferenceModel::expected(std::uint64_t key) const {
  const auto it = live_.find(key);
  if (it == live_.end()) return std::nullopt;
  return it->second;
}

namespace {

std::string describe(const std::optional<std::uint64_t>& v) {
  return v ? std::to_string(*v) : std::string("absent");
}

}  // namespace

void Checker::note(const std::string& message) {
  constexpr std::size_t kMaxMessages = 20;
  if (messages_.size() < kMaxMessages) messages_.push_back(message);
}

void Checker::lookups(std::span<const std::uint64_t> keys,
                      std::span<const std::optional<std::uint64_t>> answers,
                      const ReferenceModel& model, const char* where) {
  attempted_ += keys.size();
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const auto want = model.expected(keys[i]);
    if (answers[i] != want) {
      ++failed_;
      std::ostringstream msg;
      msg << where << ": key " << keys[i] << " read " << describe(answers[i])
          << ", expected " << describe(want);
      note(msg.str());
    }
  }
}

void Checker::threw(std::uint64_t ops, const std::string& what) {
  failed_ += ops;
  note("call threw: " + what);
}

void Checker::require(bool holds, const std::string& what) {
  if (holds) return;
  ++broken_;
  note("check failed: " + what);
}

void sweep(exthash::tables::ExternalHashTable& table,
           std::span<const std::uint64_t> keys, const ReferenceModel& model,
           Checker& checker, const char* where) {
  constexpr std::size_t kChunk = 4096;
  std::vector<std::optional<std::uint64_t>> out;
  for (std::size_t i = 0; i < keys.size(); i += kChunk) {
    const std::size_t n = std::min(kChunk, keys.size() - i);
    out.assign(n, std::nullopt);
    table.lookupBatch(keys.subspan(i, n), std::span(out.data(), n));
    checker.lookups(keys.subspan(i, n), out, model, where);
  }
}

bool selfTest(std::ostream& log) {
  using namespace exthash;
  constexpr std::size_t kB = 16;
  constexpr std::size_t kKeys = 2000;

  // One small table per case, all fed the same stream.
  struct Case {
    extmem::BlockDevice device{extmem::wordsForRecordCapacity(kB)};
    extmem::MemoryBudget memory{0};
    std::unique_ptr<tables::ExternalHashTable> table;
    ReferenceModel model;
    Checker checker;
    std::vector<std::uint64_t> keys;
  };
  const auto build = [&](Case& c, bool drop_one_write) {
    tables::GeneralConfig cfg;
    cfg.expected_n = kKeys;
    c.table = tables::makeTable(
        tables::TableKind::kChaining,
        tables::TableContext{&c.device, &c.memory,
                             hashfn::makeHash(hashfn::HashKind::kMix, 7)},
        cfg);
    std::vector<Op> ops;
    for (std::uint64_t i = 0; i < kKeys; ++i) {
      const std::uint64_t key = splitmix64(i + 1);
      c.keys.push_back(key);
      ops.push_back(Op::insertOp(key, splitmix64(key) >> 1));
    }
    for (const Op& op : ops) c.model.apply(op);
    c.checker.writes(ops.size());
    // The acknowledged write the table never receives.
    if (drop_one_write) ops.erase(ops.begin() + kKeys / 2);
    c.table->applyBatch(ops);
  };

  Case control;
  build(control, false);
  sweep(*control.table, control.keys, control.model, control.checker,
        "self-test control");

  Case corrupted;
  build(corrupted, false);
  {
    std::vector<std::uint64_t> keys(corrupted.keys.begin(),
                                    corrupted.keys.begin() + 64);
    std::vector<std::optional<std::uint64_t>> out(keys.size());
    corrupted.table->lookupBatch(keys, out);
    *out[7] ^= 1;  // one corrupted answer
    corrupted.checker.lookups(keys, out, corrupted.model,
                              "self-test corrupted answer");
  }

  Case dropped;
  build(dropped, true);
  sweep(*dropped.table, dropped.keys, dropped.model, dropped.checker,
        "self-test dropped write");

  const bool control_ok = control.checker.passed();
  const bool corrupted_caught = corrupted.checker.failed() == 1;
  const bool dropped_caught = dropped.checker.failed() == 1;
  log << "# self-test: control " << (control_ok ? "passes" : "FAILS")
      << ", corrupted answer " << (corrupted_caught ? "caught" : "MISSED")
      << ", dropped write " << (dropped_caught ? "caught" : "MISSED") << "\n";
  return control_ok && corrupted_caught && dropped_caught;
}

}  // namespace perfbench
