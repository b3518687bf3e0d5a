#include "passes.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <utility>

#include "runner/cache.h"
#include "runner/fingerprint.h"
#include "util/hash.h"

namespace perfbench {

using namespace quicbench;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

int count_entries(const std::string& dir) {
  int n = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.path().extension() == ".qbr") ++n;
  }
  return n;
}

void fill_scenario_fields(Verdict& v, const harness::ScenarioResult& r,
                          const harness::ScenarioConfig& cfg) {
  v.scenario = true;
  v.test_share = r.flows[harness::test_flow_index(cfg)].share;
  v.test_jain = r.jain_overall;
  v.peak_concurrent = r.churn.peak_concurrent;
  v.arrivals = r.churn.arrivals;
  v.departures = r.churn.departures;
}

void hash_clouds(StableHasher& h,
                 const std::vector<conformance::TrialPoints>& clouds) {
  h.u64(clouds.size());
  for (const auto& trial : clouds) {
    h.u64(trial.size());
    for (const geom::Point& p : trial) h.f64(p.x).f64(p.y);
  }
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

// Reported even when a workload makes no such call.
const std::vector<std::string>& span_names() {
  static const std::vector<std::string> names{
      "harness.run_trial",       "harness.run_scenario_trial",
      "harness.aggregate",       "runner.cache.load",
      "runner.cache.store",      "conformance.iou_curve",
      "conformance.build_pe",    "conformance.build_pe_old",
      "conformance.score",       "conformance.translation"};
  return names;
}

// Every compared field of the verdicts at full precision, plus raw pair
// results.
std::string digest(const std::vector<Verdict>& verdicts,
                   const std::vector<const harness::PairResult*>& raw = {}) {
  StableHasher h;
  for (const Verdict& v : verdicts) {
    const Scores& r = v.scores;
    h.str(v.label)
        .f64(r.conformance)
        .f64(r.conformance_old)
        .f64(r.conformance_t)
        .f64(r.delta_tput_mbps)
        .f64(r.delta_delay_ms)
        .f64(v.test_share)
        .b(v.scenario);
    if (v.scenario) {
      h.f64(v.test_jain).i64(v.peak_concurrent).f64(v.arrivals).f64(
          v.departures);
    }
  }
  for (const harness::PairResult* p : raw) {
    h.f64(p->tput_a_mbps).f64(p->tput_b_mbps).f64(p->share_a).f64(
        p->share_b);
    hash_clouds(h, p->points_a);
    hash_clouds(h, p->points_b);
  }
  return h.hex();
}

// Accumulates each call's wall time under its layer name.
class Tracer {
 public:
  explicit Tracer(std::map<std::string, double>& spans) : spans_(spans) {}

  template <typename Fn>
  auto time(const char* name, Fn&& fn) {
    double& sec = spans_[name];
    const auto t0 = Clock::now();
    auto result = fn();
    sec += seconds_since(t0);
    return result;
  }

 private:
  std::map<std::string, double>& spans_;
};

// Work counts of the simulation layers, read off each trial's result.
struct SimCounts {
  std::uint64_t events = 0;
  std::int64_t drops = 0;
  std::int64_t packets_sent = 0, retransmissions = 0, losses_detected = 0;
  std::int64_t ptos = 0, acks_coalesced = 0, loss_events = 0;
  std::size_t heap_peak = 0, wheel_peak = 0, slot_count = 0;
  std::int64_t churn_arrivals = 0;
  int churn_peak = 0;
  std::uint64_t trace_records = 0, trace_bytes = 0, trace_points = 0;
  double trial_peak_rss_mb = 0;

  void flow(const harness::FlowResult& f) {
    const transport::SenderStats& s = f.sender_stats;
    packets_sent += s.packets_sent;
    retransmissions += s.retransmissions;
    losses_detected += s.losses_detected;
    ptos += s.ptos_fired;
    acks_coalesced += s.acks_coalesced;
    loss_events += s.loss_events;
    const trace::FlowTrace& t = f.trace;
    trace_records +=
        t.deliveries.size() + t.rtt_samples.size() + t.cwnd_samples.size();
    trace_bytes += t.deliveries.size() * sizeof(trace::DeliveryRecord) +
                   t.rtt_samples.size() * sizeof(trace::RttRecord) +
                   t.cwnd_samples.size() * sizeof(trace::CwndRecord);
    trace_points += f.points.size();
  }

  template <typename Trial>
  void trial(const Trial& t) {
    events += t.sim_events;
    drops += t.bottleneck.drops;
    heap_peak = std::max(heap_peak, t.engine.heap_peak);
    wheel_peak = std::max(wheel_peak, t.engine.wheel_peak);
    slot_count = std::max(slot_count, t.engine.slot_count);
  }
};

// Runs one trial under its span and records how far the resident set
// grew while it ran.
template <typename Fn>
auto traced_trial(Tracer& tracer, const char* name, SimCounts& sc, Fn&& fn) {
  const bool reset = reset_peak_rss();
  const double rss0 = proc_status_mb("VmRSS:");
  auto result = tracer.time(name, std::forward<Fn>(fn));
  if (reset) {
    sc.trial_peak_rss_mb =
        std::max(sc.trial_peak_rss_mb, proc_status_mb("VmHWM:") - rss0);
  }
  sc.trial(result);
  return result;
}

// conformance::evaluate, one public call at a time.
conformance::ConformanceReport traced_evaluate(
    std::span<const conformance::TrialPoints> ref_trials,
    std::span<const conformance::TrialPoints> test_trials,
    const conformance::PeConfig& pe, Tracer& tracer, double& points,
    double& k_sum, double& pe_builds) {
  const auto build = [&](std::span<const conformance::TrialPoints> trials) {
    const std::vector<double> curve = tracer.time(
        "conformance.iou_curve",
        [&] { return conformance::iou_curve(trials, pe); });
    const int k = conformance::select_k(curve, pe.min_iou_drop);
    k_sum += k;
    pe_builds += 1;
    return tracer.time("conformance.build_pe", [&] {
      return conformance::build_pe_fixed_k(trials, k, pe);
    });
  };
  conformance::ConformanceReport rep;
  rep.ref_pe = build(ref_trials);
  rep.test_pe = build(test_trials);
  rep.conformance = tracer.time("conformance.score", [&] {
    return conformance::conformance(rep.ref_pe, rep.test_pe);
  });
  const conformance::PerformanceEnvelope ref_old = tracer.time(
      "conformance.build_pe_old",
      [&] { return conformance::build_pe_old(ref_trials); });
  const conformance::PerformanceEnvelope test_old = tracer.time(
      "conformance.build_pe_old",
      [&] { return conformance::build_pe_old(test_trials); });
  rep.conformance_old = tracer.time("conformance.score", [&] {
    return conformance::conformance(ref_old, test_old);
  });
  const conformance::TranslationResult tr =
      tracer.time("conformance.translation", [&] {
        return conformance::best_translation(rep.ref_pe, rep.test_pe);
      });
  rep.conformance_t = std::max(tr.conformance_t, rep.conformance);
  rep.delta_tput_mbps = tr.delta_tput_mbps();
  rep.delta_delay_ms = tr.delta_delay_ms();
  points += static_cast<double>(rep.ref_pe.all_points.size() +
                                rep.test_pe.all_points.size());
  return rep;
}

} // namespace

SweepPass run_sweep_pass(const std::string& name,
                         const std::vector<RawPair>& raw,
                         const std::vector<Cell>& cells,
                         const std::string& cache_dir, int workers) {
  const int entries_before = count_entries(cache_dir);
  SweepPass out;
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  {
    runner::SweepOptions opts;
    opts.threads = workers;
    opts.use_cache = true;
    opts.cache_dir = cache_dir;
    runner::Sweep sweep(name, opts);
    std::vector<runner::CellId> raw_ids, ids;
    for (const RawPair& p : raw) {
      raw_ids.push_back(sweep.add_pair(*p.a, *p.b, p.cfg));
    }
    for (const Cell& c : cells) {
      ids.push_back(c.scenario ? sweep.add_scenario_conformance(
                                     c.test_scen, c.ref_scen, c.pe)
                               : sweep.add_conformance(*c.test, *c.ref, c.cfg,
                                                       c.pe));
    }
    sweep.run();
    for (std::size_t i = 0; i < cells.size(); ++i) {
      Verdict v;
      v.label = cells[i].label;
      v.rows = cells[i].rows;
      v.scores = scores_of(sweep.conformance_result(ids[i]));
      if (cells[i].scenario) {
        fill_scenario_fields(v, sweep.scenario_result(ids[i]),
                             cells[i].test_scen);
      } else {
        v.test_share = sweep.pair_result(ids[i]).share_a;
      }
      out.verdicts.push_back(std::move(v));
    }
    std::vector<const harness::PairResult*> raw_results;
    for (const runner::CellId id : raw_ids) {
      raw_results.push_back(&sweep.pair_result(id));
    }
    out.digest = digest(out.verdicts, raw_results);
    out.stats = sweep.stats();
  }
  out.wall_s = seconds_since(t0);
  out.cpu_s = cpu_seconds() - cpu0;
  out.cache = {out.stats.cache_hits, out.stats.cache_misses,
               count_entries(cache_dir) - entries_before};
  return out;
}

TracedPass run_traced_pass(const std::vector<Cell>& cells,
                           const std::string& cache_dir) {
  TracedPass out;
  std::vector<Verdict> verdicts;
  Tracer tracer(out.spans);
  for (const std::string& n : span_names()) out.spans[n];
  runner::ResultCache cache(cache_dir);
  SimCounts sc;
  double points = 0, k_sum = 0, pe_builds = 0;

  struct PairJob {
    const stacks::Implementation* a;
    const stacks::Implementation* b;
    const harness::ExperimentConfig* cfg;
    std::string fp;
    harness::PairResult result;
  };
  struct ScenarioJob {
    const harness::ScenarioConfig* cfg;
    harness::ScenarioResult result;
  };
  std::vector<PairJob> pairs;
  std::vector<ScenarioJob> scenarios;
  std::map<std::string, std::size_t> pair_index, scenario_index;

  const auto t0 = Clock::now();
  // Deduplicate by fingerprint in first-use order, as runner::Sweep does.
  const auto intern_pair = [&](const stacks::Implementation& a,
                               const stacks::Implementation& b,
                               const harness::ExperimentConfig& cfg) {
    std::string fp = runner::pair_fingerprint(a, b, cfg);
    const auto [it, added] = pair_index.emplace(fp, pairs.size());
    if (added) pairs.push_back({&a, &b, &cfg, std::move(fp), {}});
    return it->second;
  };
  const auto intern_scenario = [&](const harness::ScenarioConfig& cfg) {
    const auto [it, added] = scenario_index.emplace(
        runner::scenario_fingerprint(cfg), scenarios.size());
    if (added) scenarios.push_back({&cfg, {}});
    return it->second;
  };
  std::vector<std::pair<std::size_t, std::size_t>> deps;  // test, ref
  for (const Cell& c : cells) {
    deps.push_back(c.scenario
                       ? std::pair(intern_scenario(c.test_scen),
                                   intern_scenario(c.ref_scen))
                       : std::pair(intern_pair(*c.test, *c.ref, c.cfg),
                                   intern_pair(*c.ref, *c.ref, c.cfg)));
  }

  for (PairJob& p : pairs) {
    std::optional<harness::PairResult> hit =
        tracer.time("runner.cache.load", [&] { return cache.load(p.fp); });
    if (hit) {
      p.result = std::move(*hit);
      continue;
    }
    std::vector<harness::TrialResult> trials;
    for (int t = 0; t < p.cfg->trials; ++t) {
      trials.push_back(
          traced_trial(tracer, "harness.run_trial", sc, [&] {
            return harness::run_trial(*p.a, *p.b, *p.cfg,
                                      static_cast<std::uint64_t>(t));
          }));
      sc.flow(trials.back().flow[0]);
      sc.flow(trials.back().flow[1]);
    }
    p.result = tracer.time("harness.aggregate", [&] {
      return harness::aggregate_trials(std::move(trials), *p.cfg);
    });
    tracer.time("runner.cache.store",
                [&] { return cache.store(p.fp, p.result); });
  }

  for (ScenarioJob& s : scenarios) {
    std::vector<harness::ScenarioTrialResult> trials;
    for (int t = 0; t < s.cfg->trials; ++t) {
      trials.push_back(
          traced_trial(tracer, "harness.run_scenario_trial", sc, [&] {
            return harness::run_scenario_trial(
                *s.cfg, static_cast<std::uint64_t>(t));
          }));
      const harness::ScenarioTrialResult& tr = trials.back();
      for (const harness::ScenarioFlowTrial& f : tr.flows) sc.flow(f.result);
      sc.churn_arrivals += tr.churn.arrivals;
      sc.churn_peak = std::max(sc.churn_peak, tr.churn.peak_concurrent);
    }
    s.result = tracer.time("harness.aggregate", [&] {
      return harness::aggregate_scenario_trials(std::move(trials), *s.cfg);
    });
  }

  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    Verdict v;
    v.label = c.label;
    v.rows = c.rows;
    if (c.scenario) {
      const ScenarioJob& test = scenarios[deps[i].first];
      const ScenarioJob& ref = scenarios[deps[i].second];
      v.scores = scores_of(traced_evaluate(
          ref.result.flows[harness::test_flow_index(*ref.cfg)].points,
          test.result.flows[harness::test_flow_index(*test.cfg)].points,
          c.pe, tracer, points, k_sum, pe_builds));
      fill_scenario_fields(v, test.result, *test.cfg);
    } else {
      const harness::PairResult& test = pairs[deps[i].first].result;
      const harness::PairResult& ref = pairs[deps[i].second].result;
      v.scores = scores_of(traced_evaluate(ref.points_a, test.points_a, c.pe,
                                           tracer, points, k_sum, pe_builds));
      v.test_share = test.share_a;
    }
    verdicts.push_back(std::move(v));
  }
  out.wall_s = seconds_since(t0);

  out.digest = digest(verdicts);
  out.events = sc.events;
  out.cache = {static_cast<int>(cache.hits()), static_cast<int>(cache.misses()),
               static_cast<int>(cache.stores())};
  const auto d = [](auto v) { return static_cast<double>(v); };
  out.counts = {
      {"netsim.events", d(sc.events)},
      {"netsim.link.drops", d(sc.drops)},
      {"netsim.heap_peak", d(sc.heap_peak)},
      {"netsim.wheel_peak", d(sc.wheel_peak)},
      {"netsim.slot_count", d(sc.slot_count)},
      {"transport.packets_sent", d(sc.packets_sent)},
      {"transport.retransmissions", d(sc.retransmissions)},
      {"transport.retx_per_packet",
       sc.packets_sent > 0 ? d(sc.retransmissions) / d(sc.packets_sent) : 0},
      {"transport.losses_detected", d(sc.losses_detected)},
      {"transport.ptos", d(sc.ptos)},
      {"transport.acks_coalesced", d(sc.acks_coalesced)},
      {"cca.loss_events", d(sc.loss_events)},
      {"harness.churn.arrivals", d(sc.churn_arrivals)},
      {"harness.churn.peak_concurrent", d(sc.churn_peak)},
      {"harness.trial_peak_rss_mb", sc.trial_peak_rss_mb},
      {"trace.records", d(sc.trace_records)},
      {"trace.bytes", d(sc.trace_bytes)},
      {"trace.points", d(sc.trace_points)},
      {"conformance.points", points},
      {"conformance.k", pe_builds > 0 ? k_sum / pe_builds : 0},
  };
  return out;
}

double proc_status_mb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string key(field);
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      std::istringstream is(line.substr(key.size()));
      double kib = 0;
      is >> kib;
      return kib * 1024.0 / 1e6;
    }
  }
  return 0;
}

bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

double spin_ms() {
  constexpr std::uint64_t kIters = 50'000'000;
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < kIters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    asm volatile("" : "+r"(x));  // keep the chain in a register, unfolded
  }
  return seconds_since(t0) * 1e3;
}

} // namespace perfbench
