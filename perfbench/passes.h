#pragma once
// The two ways the benchmark runs a phase: through runner::Sweep, the
// path users take (untraced, timed end to end), and through each layer's
// public functions one call at a time on a single thread (traced, for the
// per-layer breakdown). Both yield the same verdicts bit for bit; the
// digest proves it.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "runner/sweep.h"
#include "workloads.h"

namespace perfbench {

struct SweepPass {
  std::vector<Verdict> verdicts;  // in cell order
  std::string digest;             // verdicts plus raw pair results
  quicbench::runner::SweepStats stats;
  CacheCounts cache;  // stores = cache entries the pass wrote
  double wall_s = 0;
  double cpu_s = 0;
};

// One runner::Sweep over `raw` pairs and `cells` with `workers` threads
// and the persistent cache in `cache_dir`.
SweepPass run_sweep_pass(const std::string& name,
                         const std::vector<RawPair>& raw,
                         const std::vector<Cell>& cells,
                         const std::string& cache_dir, int workers);

struct TracedPass {
  std::string digest;
  double wall_s = 0;
  std::map<std::string, double> spans;    // seconds, keyed by layer call
  std::map<std::string, double> counts;   // per-layer work counts
  std::uint64_t events = 0;
  CacheCounts cache;
};

// The timed phase's cells through the layers' public calls on one thread:
// runner::Sweep's work, deduplicated the same way, and
// conformance::evaluate's sequence of calls, timing each call.
TracedPass run_traced_pass(const std::vector<Cell>& cells,
                           const std::string& cache_dir);

// Process probes.
double proc_status_mb(const char* field);  // "VmHWM:" / "VmRSS:"
bool reset_peak_rss();                     // /proc/self/clear_refs = 5
double spin_ms();                          // fixed register-only loop

} // namespace perfbench
