#pragma once
// The benchmark's three workloads, defined at paper fidelity (120 s x 5
// trials, 20 Mbps, 10 ms RTT): which pairs the set-up phase simulates into
// the result cache, which conformance verdicts the timed phase produces,
// the cache traffic each phase must show, and the committed bench_out/
// rows each verdict reproduces at the committed seed.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "conformance/conformance.h"
#include "harness/experiment.h"
#include "harness/scenario.h"
#include "stacks/registry.h"

namespace perfbench {

// How a verdict is rendered as a row of a committed CSV.
enum class RowFormat {
  kFig06,           // bench_out/fig06.csv: conformance
  kTable3,          // bench_out/table3.csv: conf_old .. delta_delay
  kContention,      // bench_out/ext_contention.csv, scenario cells
  kContentionPair,  // bench_out/ext_contention.csv K=1 rows, pair path
};

struct RowCheck {
  RowFormat format;
  std::vector<std::string> key;  // values of the CSV's key columns
};

// One conformance verdict: a test pair judged against the kernel
// reference self-pair, or a test scenario against its reference scenario.
struct Cell {
  std::string label;
  bool scenario = false;
  const quicbench::stacks::Implementation* test = nullptr;  // pair cells
  const quicbench::stacks::Implementation* ref = nullptr;
  quicbench::harness::ExperimentConfig cfg;
  quicbench::harness::ScenarioConfig test_scen;  // scenario cells
  quicbench::harness::ScenarioConfig ref_scen;
  quicbench::conformance::PeConfig pe;
  std::vector<RowCheck> rows;
};

// A raw pair the set-up phase simulates into the cache.
struct RawPair {
  const quicbench::stacks::Implementation* a = nullptr;
  const quicbench::stacks::Implementation* b = nullptr;
  quicbench::harness::ExperimentConfig cfg;
};

// Cache traffic a phase implies: pairs served from the cache, pairs
// simulated, entries written.
struct CacheCounts {
  int hits = 0;
  int misses = 0;
  int stores = 0;

  bool operator==(const CacheCounts&) const = default;
};

struct Workload {
  std::string name;
  std::vector<RawPair> setup_pairs;
  std::vector<Cell> setup_cells;
  std::vector<Cell> cells;  // the timed phase
  CacheCounts setup_cache;
  CacheCounts timed_cache;
};

// Throws std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

// conformance::evaluate's scalar outcome. Verdicts keep only these, not
// the envelopes, so holding them across passes adds nothing to the
// measured resident set.
struct Scores {
  double conformance = 0;
  double conformance_old = 0;
  double conformance_t = 0;
  double delta_tput_mbps = 0;
  double delta_delay_ms = 0;
};
Scores scores_of(const quicbench::conformance::ConformanceReport& r);

// The outcome of one cell, with everything a committed row can hold.
struct Verdict {
  std::string label;
  Scores scores;
  double test_share = 0;  // pair: share_a; scenario: the test flow's share
  bool scenario = false;
  double test_jain = 0;
  int peak_concurrent = 0;
  double arrivals = 0;
  double departures = 0;
  std::vector<RowCheck> rows;
};

// CSV stem ("fig06") and (column, value) pairs formatted with
// harness::format_double at the committed CSV's precision.
std::string row_csv(RowFormat f);
std::vector<std::pair<std::string, std::string>> row_values(const Verdict& v,
                                                            RowFormat f);

} // namespace perfbench
