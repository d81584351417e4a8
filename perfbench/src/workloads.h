// The benchmark's workloads. Each generates its inputs once from the seed;
// each round then builds a fresh stack, replays those inputs, checks every
// answer, crashes the stack and restarts it.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "check.h"
#include "common.h"
#include "trace.h"

namespace perfbench {

struct RoundEnv {
  std::size_t round = 0;
  Tracer* tracer = nullptr;  // set in traced rounds only
  Checker* checker = nullptr;
  std::filesystem::path scratch;  // directory for file-backed devices
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Makes every input the rounds replay; the same seed gives the same
  /// inputs.
  virtual void generate(std::uint64_t seed) = 0;
  virtual RoundResult runRound(const RoundEnv& env) = 0;
};

const std::vector<std::string>& workloadNames();
/// nullptr for an unknown name.
std::unique_ptr<Workload> makeWorkload(const std::string& name);

}  // namespace perfbench
