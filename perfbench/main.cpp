// Repository benchmark: one run of one workload (see workloads.h) in a
// fresh process with a fresh cache directory.
//
//   perfbench --workload certify|rescore|contention --seed N --seconds S
//             --trace 0|1 --work-dir DIR [--workers 3]
//
// A run times the workload's set-up phase kSetupReps times (each into a
// fresh cache) and then runs whole passes of its timed phase through
// runner::Sweep until --seconds have passed (at least one pass). With
// --trace 1 it runs one untraced pass followed by one traced single-worker
// pass of the same cells, which must reproduce the untraced verdict digest.
// Progress goes to stdout; the result document goes to DIR/result.json for
// perfbench/run.py to check and report.

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "passes.h"
#include "util/json.h"
#include "workloads.h"

extern char** environ;

namespace fs = std::filesystem;
using namespace perfbench;
using namespace quicbench;

namespace {

// setup_s is the median of this many set-ups.
constexpr int kSetupReps = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
  int workers = 3;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v);
    } else if (flag == "--trace") {
      a.trace = v == "1";
    } else if (flag == "--work-dir") {
      a.work_dir = v;
    } else if (flag == "--workers") {
      a.workers = std::stoi(v);
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.workload.empty() || a.work_dir.empty()) {
    throw std::invalid_argument("--workload and --work-dir are required");
  }
  if (a.workers < 1) throw std::invalid_argument("--workers must be >= 1");
  return a;
}

// Any QB_* switch (QB_FAST, QB_THREADS, QB_INVARIANTS, ...) changes what
// the library does, so a run under one would not be the workload.
const char* qb_switch() {
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "QB_", 3) == 0) return *e;
  }
  return nullptr;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void fresh_copy(const std::string& from, const std::string& to) {
  fs::remove_all(to);
  fs::copy(from, to, fs::copy_options::recursive);
}

void check_cache(std::vector<std::string>& failures, const std::string& what,
                 const CacheCounts& got, const CacheCounts& want) {
  const auto str = [](const CacheCounts& c) {
    return std::to_string(c.hits) + "/" + std::to_string(c.misses) + "/" +
           std::to_string(c.stores);
  };
  if (got != want) {
    failures.push_back(what + ": cache hits/misses/stores " + str(got) +
                       ", expected " + str(want));
  }
}

// Ranges every verdict must satisfy at any seed.
void check_sane(std::vector<std::string>& failures, const Verdict& v) {
  const Scores& r = v.scores;
  const auto unit = [](double x) { return x >= 0 && x <= 1; };
  const bool ok = unit(r.conformance) && unit(r.conformance_old) &&
                  unit(r.conformance_t) &&
                  r.conformance_t >= r.conformance &&
                  std::isfinite(r.delta_tput_mbps) &&
                  std::isfinite(r.delta_delay_ms) && unit(v.test_share);
  if (!ok) failures.push_back(v.label + ": verdict out of range");
}

void write_verdicts(JsonWriter& j, const std::vector<Verdict>& verdicts,
                    const char* phase) {
  for (const Verdict& v : verdicts) {
    j.begin_object();
    j.kv("label", v.label);
    j.kv("phase", phase);
    j.key("rows").begin_array();
    for (const RowCheck& row : v.rows) {
      j.begin_object();
      j.kv("csv", row_csv(row.format));
      j.key("key").begin_array();
      for (const std::string& k : row.key) j.value(k);
      j.end_array();
      j.key("values").begin_object();
      for (const auto& [col, val] : row_values(v, row.format)) j.kv(col, val);
      j.end_object();
      j.end_object();
    }
    j.end_array();
    j.end_object();
  }
}

int run(const Args& args) {
  const double spin_before = spin_ms();
  const Workload w = make_workload(args.workload, args.seed);
  std::vector<std::string> failures;
  std::printf("perfbench %s: seed %llu, %d workers, %zu timed verdicts\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.workers, w.cells.size());
  std::fflush(stdout);

  // Set-up: each repetition simulates into its own empty cache; the last
  // one's cache feeds the timed phase.
  std::vector<double> setup_s;
  std::string setup_dir;
  SweepPass setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (!setup_dir.empty()) fs::remove_all(setup_dir);
    setup_dir = args.work_dir + "/setup" + std::to_string(rep);
    fs::remove_all(setup_dir);
    fs::create_directories(setup_dir);
    SweepPass p = run_sweep_pass(w.name + "-setup", w.setup_pairs,
                                 w.setup_cells, setup_dir, args.workers);
    check_cache(failures, "set-up " + std::to_string(rep), p.cache,
                w.setup_cache);
    if (rep > 0 && p.digest != setup.digest) {
      failures.push_back("set-up " + std::to_string(rep) +
                         ": results differ from set-up 0");
    }
    std::printf("  set-up %d: %.3f s wall, %.3f s cpu, digest %s\n", rep,
                p.wall_s, p.cpu_s, p.digest.c_str());
    std::fflush(stdout);
    setup_s.push_back(p.wall_s);
    if (rep == 0) setup = std::move(p);
  }
  const double setup_peak_rss_mb = proc_status_mb("VmHWM:");

  // Timed phase: whole passes, each from a fresh copy of the set-up cache
  // and with the resident high-water mark reset before it. Freed heap is
  // handed back first, so the mark measures the pass rather than how
  // fragmented the set-up left the heap.
  std::vector<SweepPass> passes;
  std::vector<double> peak_rss_mb;
  const auto phase0 = std::chrono::steady_clock::now();
  for (;;) {
    const std::string dir =
        args.work_dir + "/pass" + std::to_string(passes.size());
    fresh_copy(setup_dir, dir);
    malloc_trim(0);
    if (!reset_peak_rss()) {
      failures.push_back("cannot reset the resident high-water mark");
    }
    SweepPass p = run_sweep_pass(w.name, {}, w.cells, dir, args.workers);
    peak_rss_mb.push_back(proc_status_mb("VmHWM:"));
    fs::remove_all(dir);
    const std::string what = "pass " + std::to_string(passes.size());
    check_cache(failures, what, p.cache, w.timed_cache);
    if (!passes.empty() &&
        (p.digest != passes[0].digest ||
         p.stats.events_executed != passes[0].stats.events_executed)) {
      failures.push_back(what + ": verdicts differ from pass 0");
    }
    std::printf("  %s: %.3f s wall, %.3f s cpu, %.1f MB peak, %llu events, "
                "digest %s\n",
                what.c_str(), p.wall_s, p.cpu_s, peak_rss_mb.back(),
                static_cast<unsigned long long>(p.stats.events_executed),
                p.digest.c_str());
    std::fflush(stdout);
    passes.push_back(std::move(p));
    if (args.trace) break;
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - phase0)
                               .count();
    if (elapsed >= args.seconds) break;
  }
  const SweepPass& first = passes.front();
  for (const Verdict& v : setup.verdicts) check_sane(failures, v);
  for (const Verdict& v : first.verdicts) check_sane(failures, v);

  std::vector<double> rates, cpus;
  for (const SweepPass& p : passes) {
    rates.push_back(static_cast<double>(p.verdicts.size()) / p.wall_s);
    cpus.push_back(p.cpu_s);
  }

  std::optional<TracedPass> traced;
  if (args.trace) {
    const std::string dir = args.work_dir + "/traced";
    fresh_copy(setup_dir, dir);
    traced = run_traced_pass(w.cells, dir);
    fs::remove_all(dir);
    std::printf("  traced pass: %.3f s wall, %llu events, digest %s\n",
                traced->wall_s, static_cast<unsigned long long>(traced->events),
                traced->digest.c_str());
    if (traced->digest != first.digest ||
        traced->events != first.stats.events_executed) {
      failures.push_back("traced pass: verdicts or events differ from the "
                         "untraced pass");
    }
    check_cache(failures, "traced pass", traced->cache, w.timed_cache);
  }
  const double spin_after = spin_ms();

  JsonWriter j;
  j.begin_object();
  j.kv("workload", w.name);
  j.kv("seed", args.seed);
  j.kv("workers", args.workers);
  j.kv("digest", first.digest);
  j.kv("setup_digest", setup.digest);
  j.kv("events", first.stats.events_executed);
  j.key("end_to_end").begin_object();
  j.kv("setup_s", median(setup_s));
  j.kv("verdicts_per_s", median(rates));
  j.kv("cpu_s", median(cpus));
  j.kv("peak_rss_mb", median(peak_rss_mb));
  j.end_object();
  j.key("samples").begin_object();
  const auto samples = [&j](const char* name, const std::vector<double>& v) {
    j.key(name).begin_array();
    for (const double x : v) j.value(x);
    j.end_array();
  };
  samples("setup_s", setup_s);
  samples("verdicts_per_s", rates);
  samples("cpu_s", cpus);
  samples("peak_rss_mb", peak_rss_mb);
  samples("host_spin_ms", {spin_before, spin_after});
  j.end_object();

  if (traced) {
    const TracedPass& tp = *traced;
    j.kv("traced_digest", tp.digest);
    j.key("per_layer").begin_object();
    double covered = 0, trial_s = 0;
    for (const auto& [name, sec] : tp.spans) {
      j.kv(name + ".s", sec);
      covered += sec;
      if (name == "harness.run_trial" || name == "harness.run_scenario_trial") {
        trial_s += sec;
      }
    }
    for (const auto& [name, value] : tp.counts) j.kv(name, value);
    j.kv("harness.ns_per_event",
         tp.events > 0 ? trial_s * 1e9 / static_cast<double>(tp.events) : 0.0);
    j.kv("runner.cache.hits", tp.cache.hits);
    j.kv("runner.cache.misses", tp.cache.misses);
    j.kv("runner.cache.stores", tp.cache.stores);
    const runner::SweepStats& st = first.stats;
    j.kv("runner.sweep.utilization", st.thread_utilization);
    j.kv("runner.sweep.idle_s",
         std::max(0.0, st.threads * st.wall_sec - st.busy_sec));
    j.kv("setup.peak_rss_mb", setup_peak_rss_mb);
    j.kv("bench.span_coverage", covered / tp.wall_s);
    j.kv("bench.traced_pass_s", tp.wall_s);
    j.kv("host.spin_ms", 0.5 * (spin_before + spin_after));
    j.end_object();
  }

  j.key("verdicts").begin_array();
  write_verdicts(j, setup.verdicts, "setup");
  write_verdicts(j, first.verdicts, "timed");
  j.end_array();
  j.key("failures").begin_array();
  for (const std::string& f : failures) j.value(f);
  j.end_array();
  j.end_object();

  std::ofstream out(args.work_dir + "/result.json", std::ios::trunc);
  out << j.str() << '\n';
  out.close();
  if (!out) throw std::runtime_error("cannot write result.json");
  return 0;
}

} // namespace

int main(int argc, char** argv) {
  if (const char* sw = qb_switch()) {
    std::fprintf(stderr,
                 "perfbench: refusing to run with %s set; the benchmark "
                 "measures the library as configured by default\n",
                 sw);
    return 2;
  }
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
