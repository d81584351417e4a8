// Correctness side of the benchmark: a reference model of every operation
// the benchmark submits, and the checker every answer and invariant goes
// through. Both are independent of the library's own oracles (AckLedger)
// and of every table.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "tables/hash_table.h"

namespace perfbench {

/// Last-write-wins map of every submitted operation.
class ReferenceModel {
 public:
  void apply(const exthash::tables::Op& op);
  std::optional<std::uint64_t> expected(std::uint64_t key) const;
  std::size_t liveCount() const noexcept { return live_.size(); }

 private:
  std::unordered_map<std::uint64_t, std::uint64_t> live_;
};

/// Counts attempted and failed operations and records failed invariants.
/// A failed operation is a wrong answer or a call that threw.
class Checker {
 public:
  /// Write operations handed to the system.
  void writes(std::uint64_t ops) { attempted_ += ops; }
  /// Checks one lookup request answer by answer against the model.
  void lookups(std::span<const std::uint64_t> keys,
               std::span<const std::optional<std::uint64_t>> answers,
               const ReferenceModel& model, const char* where);
  /// `ops` operations were lost to a call that threw.
  void threw(std::uint64_t ops, const std::string& what);
  /// An invariant that must hold (conservation totals, sizes, bounds).
  void require(bool holds, const std::string& what);

  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t failed() const noexcept { return failed_; }
  bool passed() const noexcept { return failed_ == 0 && broken_ == 0; }
  /// The first recorded problems, one per line.
  const std::vector<std::string>& messages() const noexcept {
    return messages_;
  }

 private:
  void note(const std::string& message);

  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t broken_ = 0;
  std::vector<std::string> messages_;
};

/// Looks up every key in `keys` (in chunks) and checks each answer.
void sweep(exthash::tables::ExternalHashTable& table,
           std::span<const std::uint64_t> keys, const ReferenceModel& model,
           Checker& checker, const char* where);

/// Feeds the checker one corrupted lookup answer and, separately, one
/// dropped acknowledged write; true when both are reported as failures and
/// the untouched control run passes.
bool selfTest(std::ostream& log);

}  // namespace perfbench
