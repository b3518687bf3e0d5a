#include "workloads.h"

#include <stdexcept>

#include "harness/report.h"

namespace perfbench {

using namespace quicbench;
using stacks::CcaType;
using stacks::Implementation;

namespace {

// Explicit paper-fidelity config. runner::default_config is not used on
// purpose: QB_FAST silently shrinks it.
harness::ExperimentConfig paper_config(double buffer_bdp, std::uint64_t seed) {
  harness::ExperimentConfig cfg;
  cfg.net.bandwidth = rate::mbps(20);
  cfg.net.base_rtt = time::ms(10);
  cfg.net.buffer_bdp = buffer_bdp;
  cfg.duration = time::sec(120);
  cfg.trials = 5;
  cfg.seed = seed;
  return cfg;
}

std::string fmt(double v, int precision) {
  return harness::format_double(v, precision);
}

const std::vector<CcaType>& fig06_ccas() {
  static const std::vector<CcaType> ccas{CcaType::kCubic, CcaType::kBbr,
                                         CcaType::kReno};
  return ccas;
}

Cell pair_cell(const Implementation& test, const Implementation& ref,
               const harness::ExperimentConfig& cfg,
               const conformance::PeConfig& pe, const std::string& tag) {
  Cell c;
  c.label = test.display + " @" + fmt(cfg.net.buffer_bdp, 1) + " BDP" + tag;
  c.test = &test;
  c.ref = &ref;
  c.cfg = cfg;
  c.pe = pe;
  return c;
}

RowCheck fig06_row(const Implementation& impl, double buffer_bdp) {
  return {RowFormat::kFig06,
          {impl.stack, stacks::to_string(impl.cca), fmt(buffer_bdp, 1)}};
}

// Fig 6 grid: 22 QUIC implementations x {5, 1} BDP against cached kernel
// self-pairs, in the committed CSV's row order.
Workload certify(std::uint64_t seed) {
  const auto& reg = stacks::Registry::instance();
  Workload w;
  w.name = "certify";
  for (const double buf : {5.0, 1.0}) {
    const harness::ExperimentConfig cfg = paper_config(buf, seed);
    for (const CcaType cca : fig06_ccas()) {
      const Implementation& ref = reg.reference(cca);
      w.setup_pairs.push_back({&ref, &ref, cfg});
      for (const Implementation* impl : reg.with_cca(cca, false)) {
        Cell c = pair_cell(*impl, ref, cfg, {}, "");
        c.rows.push_back(fig06_row(*impl, buf));
        w.cells.push_back(std::move(c));
      }
    }
  }
  const int refs = static_cast<int>(w.setup_pairs.size());
  const int tests = static_cast<int>(w.cells.size());
  w.setup_cache = {0, refs, refs};
  w.timed_cache = {refs, tests, tests};
  return w;
}

// Re-judge the cached 1-BDP half of Fig 6 under six PE configs: the
// paper default, strict all-trial intersection, pooled clustering and
// three other k-means seeds. No simulation in the timed phase.
Workload rescore(std::uint64_t seed) {
  const auto& reg = stacks::Registry::instance();
  const harness::ExperimentConfig cfg = paper_config(1.0, seed);

  conformance::PeConfig quorum_all;
  quorum_all.trial_quorum = 1.0;
  conformance::PeConfig pooled;
  pooled.per_trial_clustering = false;
  std::vector<std::pair<std::string, conformance::PeConfig>> pes{
      {"", {}}, {" quorum=1.0", quorum_all}, {" pooled", pooled}};
  for (const std::uint64_t s : {8, 9, 10}) {
    conformance::PeConfig p;
    p.seed = s;
    pes.emplace_back(" pe_seed=" + std::to_string(s), p);
  }

  // The seven Table 3 rows, all among the 1-BDP cells.
  const std::vector<std::pair<std::string, CcaType>> table3{
      {"chromium", CcaType::kCubic}, {"neqo", CcaType::kCubic},
      {"quiche", CcaType::kCubic},   {"xquic", CcaType::kCubic},
      {"mvfst", CcaType::kBbr},      {"xquic", CcaType::kBbr},
      {"xquic", CcaType::kReno}};

  Workload w;
  w.name = "rescore";
  for (const CcaType cca : fig06_ccas()) {
    const Implementation& ref = reg.reference(cca);
    w.setup_pairs.push_back({&ref, &ref, cfg});
    for (const Implementation* impl : reg.with_cca(cca, false)) {
      w.setup_pairs.push_back({impl, &ref, cfg});
      for (std::size_t p = 0; p < pes.size(); ++p) {
        Cell c = pair_cell(*impl, ref, cfg, pes[p].second, pes[p].first);
        if (p == 0) {
          c.rows.push_back(fig06_row(*impl, 1.0));
          for (const auto& [stack, t3_cca] : table3) {
            if (impl->stack == stack && impl->cca == t3_cca) {
              c.rows.push_back(
                  {RowFormat::kTable3, {impl->stack, stacks::to_string(cca)}});
            }
          }
        }
        w.cells.push_back(std::move(c));
      }
    }
  }
  const int pairs = static_cast<int>(w.setup_pairs.size());
  w.setup_cache = {0, pairs, pairs};
  w.timed_cache = {pairs, 0, 0};
  return w;
}

// bench_ext_contention's scenario: 1 probe + K reference competitors —
// one anchor starting with the probe plus K-1 Poisson-arriving flows of
// bounded-Pareto size, the last arriving around 60% of the run.
harness::ScenarioConfig contention_scenario(
    const Implementation& probe, const Implementation& ref, int k,
    const harness::ExperimentConfig& base) {
  harness::ScenarioConfig sc;
  sc.net = base.net;
  sc.duration = base.duration;
  sc.trials = base.trials;
  sc.seed = base.seed;
  sc.sampling = base.sampling;
  sc.fairness_window = time::sec(5);

  harness::FlowSpec test;
  test.impl = probe;
  test.role = harness::FlowRole::kTest;
  sc.flows.push_back(test);

  harness::FlowSpec anchor;
  anchor.impl = ref;
  anchor.role = harness::FlowRole::kReference;
  anchor.start_spread = base.start_spread;
  sc.flows.push_back(anchor);

  const double dur_sec = time::to_sec(sc.duration);
  for (int i = 1; i < k; ++i) {
    harness::FlowSpec churned;
    churned.impl = ref;
    churned.role = harness::FlowRole::kBackground;
    churned.arrival_rate = static_cast<double>(k - 1) / (0.6 * dur_sec);
    churned.sample_size = true;
    sc.flows.push_back(churned);
  }
  if (k > 1) {
    sc.size_dist.shape = 1.2;
    sc.size_dist.min_bytes = Bytes{2} << 20;
    sc.size_dist.max_bytes = Bytes{64} << 20;
  }
  return sc;
}

// bench_ext_contention at K in {4, 16, 64, 256}; its K = 1 column is the
// classic pair, which the set-up phase runs through the pair path.
Workload contention(std::uint64_t seed) {
  const auto& reg = stacks::Registry::instance();
  const Implementation& ref = reg.reference(CcaType::kCubic);
  const harness::ExperimentConfig base = paper_config(1.0, seed);
  // The committed CSV predates the xquic BBRv2 probe, so only the first
  // two probes have rows to reproduce.
  const std::vector<std::pair<const Implementation*, bool>> probes{
      {reg.find("quiche", CcaType::kCubic), true},
      {reg.find("mvfst", CcaType::kBbr), true},
      {reg.find("xquic", CcaType::kBbr2), false}};

  Workload w;
  w.name = "contention";
  for (const auto& [probe, committed] : probes) {
    Cell pair = pair_cell(*probe, ref, base, {}, " K=1");
    if (committed) {
      pair.rows.push_back({RowFormat::kContentionPair, {probe->display, "1"}});
    }
    w.setup_cells.push_back(std::move(pair));
    for (const int k : {4, 16, 64, 256}) {
      Cell c;
      c.label = probe->display + " K=" + std::to_string(k);
      c.scenario = true;
      c.test_scen = contention_scenario(*probe, ref, k, base);
      c.ref_scen = contention_scenario(ref, ref, k, base);
      if (committed) {
        c.rows.push_back(
            {RowFormat::kContention, {probe->display, std::to_string(k)}});
      }
      w.cells.push_back(std::move(c));
    }
  }
  const int pairs = static_cast<int>(w.setup_cells.size()) + 1;  // + ref
  w.setup_cache = {0, pairs, pairs};
  w.timed_cache = {0, 0, 0};
  return w;
}

} // namespace

Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "certify") return certify(seed);
  if (name == "rescore") return rescore(seed);
  if (name == "contention") return contention(seed);
  throw std::invalid_argument("unknown workload '" + name +
                              "' (certify, rescore, contention)");
}

Scores scores_of(const conformance::ConformanceReport& r) {
  return {r.conformance, r.conformance_old, r.conformance_t,
          r.delta_tput_mbps, r.delta_delay_ms};
}

std::string row_csv(RowFormat f) {
  switch (f) {
    case RowFormat::kFig06: return "fig06";
    case RowFormat::kTable3: return "table3";
    case RowFormat::kContention:
    case RowFormat::kContentionPair: return "ext_contention";
  }
  return "";
}

std::vector<std::pair<std::string, std::string>> row_values(const Verdict& v,
                                                            RowFormat f) {
  const Scores& r = v.scores;
  switch (f) {
    case RowFormat::kFig06:
      return {{"conformance", fmt(r.conformance, 4)}};
    case RowFormat::kTable3:
      return {{"conf_old", fmt(r.conformance_old, 4)},
              {"conf", fmt(r.conformance, 4)},
              {"conf_t", fmt(r.conformance_t, 4)},
              {"delta_tput", fmt(r.delta_tput_mbps, 4)},
              {"delta_delay", fmt(r.delta_delay_ms, 4)}};
    case RowFormat::kContentionPair:
      // The pair path yields no Jain index or churn telemetry.
      return {{"conformance", fmt(r.conformance, 4)},
              {"conformance_t", fmt(r.conformance_t, 4)},
              {"delta_tput", fmt(r.delta_tput_mbps, 3)},
              {"delta_delay", fmt(r.delta_delay_ms, 3)},
              {"test_share", fmt(v.test_share, 4)}};
    case RowFormat::kContention:
      return {{"conformance", fmt(r.conformance, 4)},
              {"conformance_t", fmt(r.conformance_t, 4)},
              {"delta_tput", fmt(r.delta_tput_mbps, 3)},
              {"delta_delay", fmt(r.delta_delay_ms, 3)},
              {"test_jain", fmt(v.test_jain, 4)},
              {"test_share", fmt(v.test_share, 4)},
              {"peak_concurrent", std::to_string(v.peak_concurrent)},
              {"arrivals", fmt(v.arrivals, 1)},
              {"departures", fmt(v.departures, 1)}};
  }
  return {};
}

} // namespace perfbench
