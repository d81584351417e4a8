// perfbench: the repository's end-to-end and per-layer benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Runs whole rounds of the named workload until S seconds have passed (at
// least one round; two in traced mode), checks every answer against the
// benchmark's own reference model, and prints as its last line one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 they are the per-layer
// ones, taken from traced rounds that alternate with untraced rounds so the
// tracing overhead is measured in the same process. Every run ends with the
// checker's self-test, which shows the gate can fail. Exit code 0 only when
// every check passed.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <numeric>
#include <string>
#include <vector>

#include "check.h"
#include "common.h"
#include "trace.h"
#include "workloads.h"

namespace {

using namespace perfbench;

// Set before main() runs: the cold set-up is timed from process start.
const Clock::time_point kProcessStart = Clock::now();

constexpr const char* kScratchRoot = ".perfbench_scratch";
constexpr const char* kTraceDir = ".perfbench_trace";
constexpr std::size_t kTraceSpanLimit = 200000;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = -1;
  bool trace = false;
};

void usage() {
  std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1\nworkloads:";
  for (const auto& name : workloadNames()) std::cerr << " " << name;
  std::cerr << "\n";
}

bool parseArgs(int argc, char** argv, Options& o) {
  bool have_workload = false, have_seed = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return false;
        o.trace = value == "1";
        have_trace = true;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return have_workload && have_seed && have_trace && o.seconds > 0;
}

double peakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::vector<Metric> endToEnd(const std::vector<RoundResult>& rounds) {
  std::vector<double> write_rate, read_rate, checkpoints, restarts, space,
      p50, p99;
  double write_io = 0, write_ops = 0, read_io = 0, read_ops = 0;
  for (const RoundResult& r : rounds) {
    write_rate.push_back(ratio(static_cast<double>(r.write_ops), r.write_s));
    read_rate.push_back(ratio(static_cast<double>(r.read_ops), r.read_s));
    write_io += static_cast<double>(r.write_io);
    write_ops += static_cast<double>(r.write_ops);
    read_io += static_cast<double>(r.read_io);
    read_ops += static_cast<double>(r.read_ops);
    checkpoints.insert(checkpoints.end(), r.checkpoint_s.begin(),
                       r.checkpoint_s.end());
    restarts.insert(restarts.end(), r.restart_s.begin(), r.restart_s.end());
    space.push_back(r.space_bytes_per_record);
    // Latency quantiles per round, then the median over rounds: a burst of
    // interference that slows a minority of rounds moves neither.
    p50.push_back(quantile(r.read_latency_us, 0.50));
    p99.push_back(quantile(r.read_latency_us, 0.99));
  }
  const double setup_s =
      rounds.empty() ? 0.0
                     : secondsBetween(kProcessStart, rounds.front().setup_end);
  return {
      {"write_ops_per_s", median(write_rate), "1/s"},
      {"read_ops_per_s", median(read_rate), "1/s"},
      {"write_io_per_op", ratio(write_io, write_ops), "io/op"},
      {"read_io_per_op", ratio(read_io, read_ops), "io/op"},
      {"read_p50_us", median(p50), "us"},
      {"read_p99_us", median(p99), "us"},
      {"setup_s", setup_s, "s"},
      {"checkpoint_s", median(checkpoints), "s"},
      {"restart_s", median(restarts), "s"},
      {"peak_rss_mib", peakRssMib(), "MiB"},
      {"space_bytes_per_record", median(space), "B/record"},
  };
}

double metricValue(const std::vector<Metric>& metrics, const std::string& name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

std::vector<Metric> perLayer(const std::vector<RoundResult>& traced,
                             const std::vector<RoundResult>& plain,
                             double keygen_s) {
  std::vector<double> apply_us, lookup_us;
  for (const RoundResult& r : traced) {
    apply_us.insert(apply_us.end(), r.apply_latency_us.begin(),
                    r.apply_latency_us.end());
    lookup_us.insert(lookup_us.end(), r.lookup_latency_us.begin(),
                     r.lookup_latency_us.end());
  }
  const std::vector<Metric> e2e_plain = endToEnd(plain);
  const std::vector<Metric> e2e_traced = endToEnd(traced);
  const auto overhead = [&](const char* name) {
    const double base = metricValue(e2e_plain, name);
    return ratio(base - metricValue(e2e_traced, name), base) * 100.0;
  };

  std::vector<Metric> out;
  for (const auto& [name, unit] : layerMetricUnits()) {
    double value = 0;
    if (name == "tables.apply_p50_us") {
      value = quantile(apply_us, 0.50);
    } else if (name == "tables.apply_p99_us") {
      value = quantile(apply_us, 0.99);
    } else if (name == "tables.lookup_p50_us") {
      value = quantile(lookup_us, 0.50);
    } else if (name == "tables.lookup_p99_us") {
      value = quantile(lookup_us, 0.99);
    } else if (name == "workload.keygen_s") {
      value = keygen_s;
    } else if (name == "trace.overhead_write_pct") {
      value = overhead("write_ops_per_s");
    } else if (name == "trace.overhead_read_pct") {
      value = overhead("read_ops_per_s");
    } else {
      std::vector<double> per_round;
      for (const RoundResult& r : traced) {
        const auto it = r.layer.find(name);
        per_round.push_back(it == r.layer.end() ? 0.0 : it->second);
      }
      value = median(per_round);
    }
    out.push_back({name, value, unit});
  }
  return out;
}

/// Per-layer figures that come from the tracer rather than the workload.
void takeTrace(Tracer& tracer, RoundResult& r, bool write_file,
               const std::string& trace_path) {
  const std::vector<Span> spans = tracer.takeSpans();
  const auto self = selfTimes(spans);
  r.layer["self.pipeline_s"] = self[0];
  r.layer["self.durability_s"] = self[1];
  r.layer["self.tables_s"] = self[2];
  r.layer["self.storage_s"] = self[3];
  r.apply_latency_us = tracer.takeApplyLatencyUs();
  r.lookup_latency_us = tracer.takeLookupLatencyUs();
  const auto sum = [](const std::vector<double>& v) {
    return std::accumulate(v.begin(), v.end(), 0.0);
  };
  r.layer["tables.apply_calls"] = static_cast<double>(r.apply_latency_us.size());
  r.layer["tables.apply_busy_s"] = sum(r.apply_latency_us) * 1e-6;
  r.layer["tables.lookup_calls"] =
      static_cast<double>(r.lookup_latency_us.size());
  r.layer["tables.lookup_busy_s"] = sum(r.lookup_latency_us) * 1e-6;
  r.layer["workload.read_requests"] =
      static_cast<double>(r.read_latency_us.size());
  if (write_file) {
    std::filesystem::create_directories(kTraceDir);
    writeChromeTrace(spans, kProcessStart, trace_path, kTraceSpanLimit);
  }
}

void printResult(const Checker& checker, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("# %-40s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              checker.passed() ? "true" : "false",
              static_cast<unsigned long long>(checker.attempted()),
              static_cast<unsigned long long>(checker.failed()));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  // glibc raises its mmap threshold each time a large block is freed, so
  // whether a round's big allocations (device chunks, checkpoint images)
  // come back warm from the heap or fresh from mmap would depend on what
  // earlier rounds freed. Fixing the threshold at its default turns that
  // adjustment off: every round allocates the same way.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  Options opts;
  if (!parseArgs(argc, argv, opts)) {
    usage();
    return 2;
  }
  std::unique_ptr<Workload> workload = makeWorkload(opts.workload);
  if (workload == nullptr) {
    usage();
    return 2;
  }

  Checker checker;
  const auto keygen_start = Clock::now();
  workload->generate(opts.seed);
  const double keygen_s = secondsSince(keygen_start);

  const std::filesystem::path scratch =
      std::filesystem::path(kScratchRoot) /
      (opts.workload + "-" + std::to_string(getpid()));
  std::filesystem::create_directories(scratch);
  const std::string trace_path = std::string(kTraceDir) + "/" + opts.workload +
                                 "-seed" + std::to_string(opts.seed) +
                                 ".trace.json";

  Tracer tracer;
  std::vector<RoundResult> plain, traced;
  const std::size_t min_rounds = opts.trace ? 2 : 1;
  const auto loop_start = Clock::now();
  for (std::size_t round = 0;; ++round) {
    if (round >= min_rounds && secondsSince(loop_start) >= opts.seconds) break;
    const bool traced_round = opts.trace && round % 2 == 1;
    RoundEnv env{round, traced_round ? &tracer : nullptr, &checker, scratch};
    try {
      RoundResult r = workload->runRound(env);
      std::printf("# round %zu%s: %.0f writes/s, %.0f lookups/s, "
                  "restart %.6f s\n",
                  round, traced_round ? " (traced)" : "",
                  ratio(static_cast<double>(r.write_ops), r.write_s),
                  ratio(static_cast<double>(r.read_ops), r.read_s),
                  median(r.restart_s));
      if (traced_round) {
        takeTrace(tracer, r, traced.empty(), trace_path);
        traced.push_back(std::move(r));
      } else {
        plain.push_back(std::move(r));
      }
    } catch (const std::exception& e) {
      checker.threw(1, "round " + std::to_string(round) + ": " + e.what());
    }
    if (!checker.passed()) break;
  }
  std::error_code ec;
  std::filesystem::remove_all(scratch, ec);
  std::filesystem::remove(kScratchRoot, ec);  // only when empty

  // The gate must be able to fail: re-prove it on every run.
  checker.require(selfTest(std::cout), "self-test detects a corrupted answer "
                                       "and a dropped acknowledged write");
  for (const std::string& message : checker.messages()) {
    std::cerr << "perfbench: " << message << "\n";
  }
  std::printf("# workload %s seed %llu: %zu untraced and %zu traced rounds, "
              "%zu lookup requests in the untraced rounds\n",
              opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed), plain.size(),
              traced.size(),
              std::accumulate(plain.begin(), plain.end(), std::size_t{0},
                              [](std::size_t n, const RoundResult& r) {
                                return n + r.read_latency_us.size();
                              }));
  printResult(checker, opts.trace ? perLayer(traced, plain, keygen_s)
                                  : endToEnd(plain));
  return checker.passed() ? 0 : 1;
}
