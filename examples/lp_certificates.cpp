// Certificate walkthrough: how this repository knows what it claims.
//
// Every competitive-ratio number reported by the benches divides an
// algorithm's measured cost by a CERTIFIED lower bound on the optimum. This
// example builds one small instance and walks the whole chain on it:
//
//   sum p_min  <=  dual/2  or  LP/2  <=  OPT  <=  greedy upper bounds
//
// printing each certificate, the exact optimum (branch-and-bound), and
// where the Theorem 1 run lands — so a reader can see the sandwich close
// around OPT on a real instance.
//
//   ./lp_certificates [--jobs=6] [--eps=0.25] [--seed=3] [--grid=96]
#include <iostream>
#include <string>

#include "baselines/flow_lower_bounds.hpp"
#include "core/flow/rejection_flow.hpp"
#include "lp/flow_time_lp.hpp"
#include "metrics/ratio.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "viz/gantt.hpp"
#include "workload/generators.hpp"

int main(int argc, char** argv) {
  using namespace osched;

  util::Cli cli;
  cli.flag("jobs", "6", "jobs (exact OPT is exponential in this)");
  cli.flag("eps", "0.25", "Theorem 1 rejection parameter");
  cli.flag("seed", "3", "workload seed");
  cli.flag("grid", "96", "LP time-grid cells");
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 1;
  const double eps = cli.num("eps");

  workload::WorkloadConfig config;
  config.num_jobs = static_cast<std::size_t>(cli.integer("jobs"));
  config.num_machines = 2;
  config.load = 1.2;
  config.sizes.dist = workload::SizeDistribution::kPareto;
  config.seed = static_cast<std::uint64_t>(cli.integer("seed"));
  const Instance instance = workload::generate_workload(config);

  std::cout << "One instance, every certificate (n=" << instance.num_jobs()
            << ", m=" << instance.num_machines() << ", seed=" << config.seed
            << ")\n\n";

  // ---- Lower bounds, weakest to strongest ----
  const double sum_pmin = lb_sum_min_processing(instance);

  const auto t1 = run_rejection_flow(instance, {.epsilon = eps});
  const double dual_lb = t1.opt_lower_bound;

  lp::FlowLpOptions lp_options;
  lp_options.target_intervals = static_cast<std::size_t>(cli.integer("grid"));
  const auto lp_result = lp::solve_flow_time_lp(instance, lp_options);

  const auto opt = exact_optimal_flow_unrelated(instance);

  util::Table table({"quantity", "value", "certifies"});
  table.row("sum of min p_ij", sum_pmin, "OPT >= this (trivially)");
  table.row("Theorem 1 dual / 2", dual_lb,
            "OPT >= this (Lemma 4 feasible dual + weak duality)");
  if (lp_result.optimal()) {
    table.row("time-indexed LP / 2", lp_result.lower_bound,
              "OPT >= this (LP relaxation, factor-2 objective)");
  }
  if (opt) {
    table.row("exact OPT (B&B)", *opt, "ground truth (complete all jobs)");
  }
  table.row("Theorem 1 total flow", t1.schedule.total_flow(instance),
            "the algorithm, rejecting <= 2*eps*n jobs");
  table.row("Theorem 1 bound", opt ? theorem1_ratio_bound(eps) * *opt : 0.0,
            "2((1+eps)/eps)^2 * OPT — the theorem's ceiling");
  table.print(std::cout);

  if (opt && lp_result.optimal()) {
    std::cout << "certificate tightness on this instance:  sum_pmin "
              << util::Table::num(sum_pmin / *opt, 3) << " | dual/2 "
              << util::Table::num(dual_lb / *opt, 3) << " | LP/2 "
              << util::Table::num(lp_result.lower_bound / *opt, 3)
              << "  (fraction of true OPT)\n\n";
  }

  // ---- The LP's fractional assignment vs the algorithm's integral one ----
  util::print_section(std::cout, "LP fractional machine assignment (time units)");
  if (lp_result.optimal()) {
    util::Table assignment({"job", "machine 0", "machine 1", "T1 ran it on"});
    for (std::size_t j = 0; j < instance.num_jobs(); ++j) {
      const auto& rec = t1.schedule.record(static_cast<JobId>(j));
      // Appended piecewise: GCC 12 reports a -Wrestrict false positive
      // inside `"m" + std::to_string(...)`.
      std::string ran_on(rec.machine == kInvalidMachine ? "-" : "m");
      if (rec.machine != kInvalidMachine) {
        ran_on += std::to_string(rec.machine);
        if (rec.rejected()) ran_on += " (rejected)";
      }
      assignment.row(static_cast<unsigned long>(j),
                     lp_result.machine_time[0][j], lp_result.machine_time[1][j],
                     ran_on);
    }
    assignment.print(std::cout);
  }

  util::print_section(std::cout, "Theorem 1 schedule");
  std::cout << viz::render_gantt(t1.schedule, instance, {.width = 72});
  return 0;
}
