// Trace workbench: generate synthetic traces to CSV, inspect them, run any
// of the library's schedulers on a trace file, or stream a trace through a
// live SchedulerSession with fault injection and checkpoint/restore. Glue
// for experiment pipelines that want to keep workloads as artifacts; the
// operator-facing usage is documented in docs/OPERATIONS.md.
//
//   ./trace_workbench --mode=generate --out=/tmp/trace.csv --jobs=500
//       --machines=4 --load=1.1 --sizes=pareto --seed=7
//   ./trace_workbench --mode=inspect --in=/tmp/trace.csv
//   ./trace_workbench --mode=run --in=/tmp/trace.csv --algo=theorem1 --eps=0.2
//   ./trace_workbench --mode=stream --in=/tmp/trace.csv --algo=theorem1
//       --fail=4.0:0 --join=9.0:0 --budget=8 --speed=2.0:1:0.5,8.0:1:1.0
//       --window-cap=64 --shed-budget=16
//       --checkpoint-at=6.0 --checkpoint-out=/tmp/session.ckpt
//   ./trace_workbench --mode=stream --in=/tmp/trace.csv --algo=theorem1
//       --window-cap=16 --shed-policy=epsilon
//       --adaptive-cap=8:32:4.0:2.0:1 --fairness=4:8
//   ./trace_workbench --mode=restore --from=/tmp/session.ckpt
//       --in=/tmp/trace.csv
#include <iostream>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>

#include "api/scheduler_api.hpp"
#include "baselines/flow_lower_bounds.hpp"
#include "instance/stream_job.hpp"
#include "metrics/metrics.hpp"
#include "service/checkpoint.hpp"
#include "service/scheduler_session.hpp"
#include "service/shard_driver.hpp"
#include "sim/schedule_io.hpp"
#include "sim/validator.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "workload/generators.hpp"
#include "workload/trace_io.hpp"

namespace {

using namespace osched;

workload::SizeDistribution parse_sizes(const std::string& name) {
  if (name == "uniform") return workload::SizeDistribution::kUniform;
  if (name == "exponential") return workload::SizeDistribution::kExponential;
  if (name == "pareto") return workload::SizeDistribution::kPareto;
  if (name == "bimodal") return workload::SizeDistribution::kBimodal;
  if (name == "lognormal") return workload::SizeDistribution::kLognormal;
  std::cerr << "unknown size distribution '" << name << "', using uniform\n";
  return workload::SizeDistribution::kUniform;
}

int generate(const util::Cli& cli) {
  workload::WorkloadConfig config;
  config.num_jobs = static_cast<std::size_t>(cli.integer("jobs"));
  config.num_machines = static_cast<std::size_t>(cli.integer("machines"));
  config.load = cli.num("load");
  config.sizes.dist = parse_sizes(cli.str("sizes"));
  config.weights = workload::WeightDistribution::kUniform;
  config.with_deadlines = cli.boolean("deadlines");
  config.seed = static_cast<std::uint64_t>(cli.integer("seed"));
  const Instance instance = workload::generate_workload(config);
  const std::string path = cli.str("out");
  if (!workload::save_instance(instance, path)) {
    std::cerr << "cannot write " << path << "\n";
    return 1;
  }
  std::cout << "wrote " << instance.num_jobs() << " jobs x "
            << instance.num_machines() << " machines to " << path << "\n";
  return 0;
}

int inspect(const Instance& instance) {
  util::Table table({"property", "value"});
  table.row("jobs", static_cast<int>(instance.num_jobs()));
  table.row("machines", static_cast<int>(instance.num_machines()));
  table.row("total weight", instance.total_weight());
  table.row("processing spread (Delta)", instance.processing_spread());
  double min_release = 0.0, max_release = 0.0;
  bool has_deadlines = false;
  if (instance.num_jobs() > 0) {
    min_release = instance.job(0).release;
    max_release =
        instance.job(static_cast<JobId>(instance.num_jobs() - 1)).release;
    for (const Job& job : instance.jobs()) {
      has_deadlines = has_deadlines || job.has_deadline();
    }
  }
  table.row("release span", max_release - min_release);
  table.row("has deadlines", has_deadlines ? "yes" : "no");
  table.row("storage backend", to_string(instance.backend()));
  table.row("sum of min processing", lb_sum_min_processing(instance));
  table.print(std::cout);
  return 0;
}

int run(const util::Cli& cli, const Instance& instance) {
  const std::string algo = cli.str("algo");
  const auto algorithm = api::parse_algorithm(algo);
  if (!algorithm) {
    std::cerr << "unknown --algo '" << algo << "' (";
    for (const std::string& name : api::algorithm_names()) {
      std::cerr << name << ' ';
    }
    std::cerr << ")\n";
    return 1;
  }
  api::RunOptions options;
  options.epsilon = cli.num("eps");
  options.alpha = cli.num("alpha");
  const api::RunSummary summary = api::run(*algorithm, instance, options);
  std::cout << algo << ": " << to_string(summary.report) << "\n";
  if (summary.certified_lower_bound > 0.0) {
    std::cout << "certified lower bound: " << summary.certified_lower_bound
              << "\n";
  }
  if (const std::string dump = cli.str("dump"); !dump.empty()) {
    std::ofstream out(dump);
    if (!out) {
      std::cerr << "cannot open --dump file '" << dump << "'\n";
      return 1;
    }
    write_schedule_csv(summary.schedule, out);
    std::cout << "schedule written to " << dump << "\n";
  }
  return 0;
}

/// Parses a "time:machine,time:machine,..." fleet-event flag.
bool parse_fleet_events(const std::string& spec, FleetEventKind kind,
                        std::vector<FleetEvent>* out) {
  std::stringstream items(spec);
  std::string item;
  while (std::getline(items, item, ',')) {
    const auto colon = item.find(':');
    if (colon == std::string::npos) {
      std::cerr << "bad fleet event '" << item << "' (want time:machine)\n";
      return false;
    }
    FleetEvent event;
    event.kind = kind;
    try {
      event.time = std::stod(item.substr(0, colon));
      event.machine = static_cast<MachineId>(std::stol(item.substr(colon + 1)));
    } catch (const std::exception&) {
      std::cerr << "bad fleet event '" << item << "' (want time:machine)\n";
      return false;
    }
    out->push_back(event);
  }
  return true;
}

/// Parses the "time:machine:multiplier,..." --speed flag into kSpeedChange
/// events (multiplier > 1 is a recovery/boost, < 1 a throttle; it applies
/// to jobs STARTED at or after the event — in-flight work is never
/// rescaled).
bool parse_speed_events(const std::string& spec, std::vector<FleetEvent>* out) {
  std::stringstream items(spec);
  std::string item;
  while (std::getline(items, item, ',')) {
    const auto first = item.find(':');
    const auto second =
        first == std::string::npos ? first : item.find(':', first + 1);
    if (second == std::string::npos) {
      std::cerr << "bad speed event '" << item
                << "' (want time:machine:multiplier)\n";
      return false;
    }
    FleetEvent event;
    event.kind = FleetEventKind::kSpeedChange;
    try {
      event.time = std::stod(item.substr(0, first));
      event.machine = static_cast<MachineId>(
          std::stol(item.substr(first + 1, second - first - 1)));
      event.speed = std::stod(item.substr(second + 1));
    } catch (const std::exception&) {
      std::cerr << "bad speed event '" << item
                << "' (want time:machine:multiplier)\n";
      return false;
    }
    out->push_back(event);
  }
  return true;
}

/// Builds the FleetPlan from --fail/--drain/--join/--speed/--down/--budget.
/// Returns false (with a message) on malformed flags or an invalid plan.
bool build_fleet_plan(const util::Cli& cli, std::size_t num_machines,
                      FleetPlan* plan) {
  if (!parse_fleet_events(cli.str("fail"), FleetEventKind::kFail,
                          &plan->events) ||
      !parse_fleet_events(cli.str("drain"), FleetEventKind::kDrain,
                          &plan->events) ||
      !parse_fleet_events(cli.str("join"), FleetEventKind::kJoin,
                          &plan->events) ||
      !parse_speed_events(cli.str("speed"), &plan->events)) {
    return false;
  }
  std::stable_sort(plan->events.begin(), plan->events.end(),
                   [](const FleetEvent& a, const FleetEvent& b) {
                     return a.time < b.time;
                   });
  std::stringstream down(cli.str("down"));
  std::string item;
  while (std::getline(down, item, ',')) {
    try {
      plan->initially_down.push_back(static_cast<MachineId>(std::stol(item)));
    } catch (const std::exception&) {
      std::cerr << "bad --down machine '" << item << "'\n";
      return false;
    }
  }
  plan->rejection_budget = static_cast<std::size_t>(cli.integer("budget"));
  if (const std::string problems = plan->validate(num_machines);
      !problems.empty()) {
    std::cerr << "invalid fleet plan: " << problems << "\n";
    return false;
  }
  return true;
}

/// Parses the --shed-policy flag ("fixed" keeps PR 7's fixed-budget rule,
/// "epsilon" selects the paper-derived ε-charged rule).
bool parse_shed_policy(const std::string& name, service::ShedPolicy* out) {
  if (name.empty() || name == "fixed") {
    *out = service::ShedPolicy::kFixedBudget;
    return true;
  }
  if (name == "epsilon" || name == "eps-charged") {
    *out = service::ShedPolicy::kEpsilonCharged;
    return true;
  }
  std::cerr << "unknown --shed-policy '" << name << "' (fixed | epsilon)\n";
  return false;
}

/// Parses the --adaptive-cap "min:max:window:delay[:hysteresis]" flag.
/// Empty spec leaves tuning disabled (the PR 7 pinned cap).
bool parse_adaptive_cap(const std::string& spec,
                        service::AdaptiveCapOptions* out) {
  if (spec.empty()) return true;
  std::stringstream fields(spec);
  std::string field;
  std::vector<std::string> parts;
  while (std::getline(fields, field, ':')) parts.push_back(field);
  if (parts.size() != 4 && parts.size() != 5) {
    std::cerr << "bad --adaptive-cap '" << spec
              << "' (want min:max:window:delay[:hysteresis])\n";
    return false;
  }
  try {
    out->enabled = true;
    out->min_cap = static_cast<std::size_t>(std::stoul(parts[0]));
    out->max_cap = static_cast<std::size_t>(std::stoul(parts[1]));
    out->window = std::stod(parts[2]);
    out->target_delay = std::stod(parts[3]);
    out->hysteresis =
        parts.size() == 5 ? static_cast<std::size_t>(std::stoul(parts[4])) : 0;
  } catch (const std::exception&) {
    std::cerr << "bad --adaptive-cap '" << spec
              << "' (want min:max:window:delay[:hysteresis])\n";
    return false;
  }
  if (out->min_cap < 1 || out->max_cap < out->min_cap || out->window <= 0.0 ||
      out->target_delay <= 0.0) {
    std::cerr << "bad --adaptive-cap '" << spec
              << "' (need 1 <= min <= max, window > 0, delay > 0)\n";
    return false;
  }
  return true;
}

/// Parses the --fairness "shards:quantum" flag. Empty spec leaves both at 0
/// (single-session stream, no DRR).
bool parse_fairness(const std::string& spec, std::size_t* shards,
                    std::size_t* quantum) {
  if (spec.empty()) return true;
  const auto colon = spec.find(':');
  if (colon == std::string::npos) {
    std::cerr << "bad --fairness '" << spec << "' (want shards:quantum)\n";
    return false;
  }
  try {
    *shards = static_cast<std::size_t>(std::stoul(spec.substr(0, colon)));
    *quantum = static_cast<std::size_t>(std::stoul(spec.substr(colon + 1)));
  } catch (const std::exception&) {
    std::cerr << "bad --fairness '" << spec << "' (want shards:quantum)\n";
    return false;
  }
  if (*shards == 0 || *quantum == 0) {
    std::cerr << "bad --fairness '" << spec
              << "' (both shards and quantum must be >= 1)\n";
    return false;
  }
  return true;
}

void print_session_summary(const service::SchedulerSession& session,
                           const api::RunSummary& summary) {
  std::cout << to_string(summary.report) << "\n";
  const FleetStats& fleet = summary.fleet;
  if (fleet.joins + fleet.drains + fleet.fails > 0) {
    util::Table table({"fleet counter", "value"});
    table.row("joins", static_cast<int>(fleet.joins));
    table.row("drains", static_cast<int>(fleet.drains));
    table.row("fails", static_cast<int>(fleet.fails));
    table.row("redispatched", static_cast<int>(fleet.redispatched));
    table.row("fault rejections", static_cast<int>(fleet.fault_rejections));
    table.row("forced rejections", static_cast<int>(fleet.forced_rejections));
    table.row("budget spent", static_cast<int>(fleet.budget_spent));
    table.print(std::cout);
  }
  if (fleet.speed_changes > 0) {
    util::Table table({"speed counter", "value"});
    table.row("speed changes", static_cast<int>(fleet.speed_changes));
    table.row("throttles", static_cast<int>(fleet.throttles));
    table.row("recoveries", static_cast<int>(fleet.recoveries));
    table.row("min multiplier", fleet.min_speed_multiplier);
    table.print(std::cout);
  }
  if (session.num_shed() + session.num_backpressured() > 0) {
    util::Table table({"overload counter", "value"});
    table.row("sheds", static_cast<int>(session.num_shed()));
    table.row("backpressured", static_cast<int>(session.num_backpressured()));
    table.row("max live jobs", static_cast<int>(session.max_live_jobs()));
    table.row("window cap (final)",
              static_cast<int>(session.current_window_cap()));
    table.row("shed allowance left",
              static_cast<int>(session.shed_allowance()));
    table.print(std::cout);
  }
}

/// Per-shard report + overload/fairness counters for the --fairness path.
/// Counters are sampled before drain_all() finishes the driver.
void print_driver_summary(const std::vector<api::RunSummary>& results,
                          const std::vector<service::ShardCounters>& counters) {
  for (std::size_t s = 0; s < results.size(); ++s) {
    std::cout << "shard " << s << ": " << to_string(results[s].report) << "\n";
  }
  util::Table table(
      {"shard", "sheds", "backpressured", "deferred", "staged ops"});
  for (std::size_t s = 0; s < counters.size(); ++s) {
    table.row(static_cast<int>(s), static_cast<int>(counters[s].sheds),
              static_cast<int>(counters[s].backpressured),
              static_cast<int>(counters[s].deferred),
              static_cast<unsigned long long>(counters[s].staged_ops));
  }
  table.print(std::cout);
}

/// --fairness stream leg: route the trace through a ShardDriver (stable
/// tenant routing via shard_for, DRR admission via fair_quantum). The
/// workbench drives the driver inline (threads=1) so every per-job
/// backpressure outcome stays visible to the backoff loop — a worker-mode
/// hand-off applies ops asynchronously and cannot deliver one (see
/// ShardDriver::try_submit).
int stream_sharded(const util::Cli& cli, const Instance& instance,
                   api::Algorithm algorithm,
                   const service::SessionOptions& options,
                   std::size_t num_shards, std::size_t quantum) {
  service::ShardDriverOptions driver_options;
  driver_options.threads = 1;
  driver_options.session = options;
  driver_options.fair_quantum = quantum;
  service::ShardDriver driver(algorithm, num_shards, instance.num_machines(),
                              driver_options);
  const Time backoff =
      instance.num_jobs() > 0
          ? std::max(instance.job(static_cast<JobId>(instance.num_jobs() - 1))
                             .release /
                         static_cast<double>(instance.num_jobs()) * 4.0,
                     1e-3)
          : 1.0;
  const double checkpoint_at = cli.num("checkpoint-at");
  const std::string checkpoint_out = cli.str("checkpoint-out");
  bool checkpointed = checkpoint_out.empty();
  StreamJob job;
  for (std::size_t j = 0; j < instance.num_jobs(); ++j) {
    fill_stream_job(instance, static_cast<JobId>(j), 0.0, &job);
    if (!checkpointed && job.release > checkpoint_at) {
      for (std::size_t s = 0; s < driver.num_shards(); ++s) {
        if (checkpoint_at > driver.session(s).now()) {
          driver.advance(s, checkpoint_at);
        }
      }
      const std::string blob = driver.checkpoint();
      std::ofstream out(checkpoint_out, std::ios::binary);
      if (!out.write(blob.data(), static_cast<std::streamsize>(blob.size()))) {
        std::cerr << "cannot write " << checkpoint_out << "\n";
        return 1;
      }
      std::cout << "checkpoint: " << blob.size() << " bytes ("
                << driver.num_shards() << " shards, clock " << checkpoint_at
                << ") -> " << checkpoint_out << "\n";
      checkpointed = true;
    }
    const std::size_t shard = driver.shard_for(j);
    job.release = std::max(job.release, driver.session(shard).now());
    for (;;) {
      const service::StageOutcome outcome = driver.try_submit(shard, job);
      if (service::stage_ok(outcome)) break;
      if (outcome == service::StageOutcome::kDeferred) {
        driver.flush();  // round boundary: replenishes every shard's credit
        continue;
      }
      job.release += backoff;  // kBackpressure: re-offer the arrival later
    }
  }
  if (!checkpointed) {
    std::cerr << "warning: --checkpoint-at=" << checkpoint_at
              << " is past the last arrival; no checkpoint written\n";
  }
  std::vector<service::ShardCounters> counters;
  counters.reserve(driver.num_shards());
  for (std::size_t s = 0; s < driver.num_shards(); ++s) {
    counters.push_back(driver.shard_counters(s));
  }
  print_driver_summary(driver.drain_all(), counters);
  return 0;
}

/// --mode=stream: feed the trace through a live session, optionally under a
/// fault plan, optionally cutting a checkpoint at --checkpoint-at.
int stream(const util::Cli& cli, const Instance& instance) {
  const auto algorithm = api::parse_algorithm(cli.str("algo"));
  if (!algorithm) {
    std::cerr << "unknown --algo '" << cli.str("algo") << "'\n";
    return 1;
  }
  if (*algorithm == api::Algorithm::kTheorem3) {
    std::cerr << "theorem3 is batch-only (offline LP); pick a streamable "
                 "algorithm\n";
    return 1;
  }
  service::SessionOptions options;
  options.run.epsilon = cli.num("eps");
  options.run.alpha = cli.num("alpha");
  options.live_window_cap = static_cast<std::size_t>(cli.integer("window-cap"));
  options.shed_budget = static_cast<std::size_t>(cli.integer("shed-budget"));
  if (!parse_shed_policy(cli.str("shed-policy"), &options.shed_policy) ||
      !parse_adaptive_cap(cli.str("adaptive-cap"), &options.adaptive_cap)) {
    return 1;
  }
  if (!build_fleet_plan(cli, instance.num_machines(), &options.run.fleet)) {
    return 1;
  }
  std::size_t fair_shards = 0;
  std::size_t fair_quantum = 0;
  if (!parse_fairness(cli.str("fairness"), &fair_shards, &fair_quantum)) {
    return 1;
  }
  if (fair_shards > 0) {
    return stream_sharded(cli, instance, *algorithm, options, fair_shards,
                          fair_quantum);
  }

  service::SchedulerSession session(*algorithm, instance.num_machines(),
                                    options);
  // Under a window cap a saturated submit is refused, not fatal: the
  // operator contract (docs/OPERATIONS.md) is to re-offer the arrival with
  // its release pushed back one backoff step, letting the events due by the
  // new release fire and free slots.
  const Time backoff =
      instance.num_jobs() > 0
          ? std::max(instance.job(static_cast<JobId>(instance.num_jobs() - 1))
                             .release /
                         static_cast<double>(instance.num_jobs()) * 4.0,
                     1e-3)
          : 1.0;
  const auto submit_with_backoff = [&](service::SchedulerSession& target,
                                       StreamJob& pending) {
    pending.release = std::max(pending.release, target.now());
    while (target.try_submit(pending) ==
           service::SubmitOutcome::kBackpressure) {
      pending.release += backoff;
    }
  };
  const double checkpoint_at = cli.num("checkpoint-at");
  const std::string checkpoint_out = cli.str("checkpoint-out");
  bool checkpointed = checkpoint_out.empty();  // nothing to cut
  StreamJob job;
  for (std::size_t j = 0; j < instance.num_jobs(); ++j) {
    fill_stream_job(instance, static_cast<JobId>(j), 0.0, &job);
    if (!checkpointed && job.release > checkpoint_at) {
      if (checkpoint_at > session.now()) session.advance(checkpoint_at);
      const std::string blob = session.checkpoint();
      std::ofstream out(checkpoint_out, std::ios::binary);
      if (!out.write(blob.data(), static_cast<std::streamsize>(blob.size()))) {
        std::cerr << "cannot write " << checkpoint_out << "\n";
        return 1;
      }
      std::cout << "checkpoint: " << blob.size() << " bytes ("
                << session.num_submitted() << " jobs, clock "
                << session.now() << ") -> " << checkpoint_out << "\n";
      checkpointed = true;
    }
    submit_with_backoff(session, job);
  }
  if (!checkpointed) {
    std::cerr << "warning: --checkpoint-at=" << checkpoint_at
              << " is past the last arrival; no checkpoint written\n";
  }
  const api::RunSummary summary = session.drain();
  print_session_summary(session, summary);
  return 0;
}

/// Driver-blob restore leg ("OSCKPD01" magic): rebuild every tenant
/// session, re-arm fairness (checkpoints deliberately carry no runtime
/// knobs — set_fair_quantum is the contract), then replay the routing to
/// find each shard's not-yet-submitted tail and feed it.
int restore_driver(const util::Cli& cli, const Instance& instance,
                   const std::string& blob) {
  std::string error;
  auto driver = service::ShardDriver::restore(blob, /*threads=*/1, &error);
  if (driver == nullptr) {
    std::cerr << "restore failed: " << error << "\n";
    return 1;
  }
  std::size_t fair_shards = 0;
  std::size_t fair_quantum = 0;
  if (!parse_fairness(cli.str("fairness"), &fair_shards, &fair_quantum)) {
    return 1;
  }
  if (fair_shards > 0 && fair_shards != driver->num_shards()) {
    std::cerr << "--fairness names " << fair_shards
              << " shards but the checkpoint has " << driver->num_shards()
              << " (routing is fixed at stream time; only the quantum can "
                 "change)\n";
    return 1;
  }
  if (fair_quantum > 0) driver->set_fair_quantum(fair_quantum);
  std::size_t replayed = 0;
  std::vector<std::size_t> remaining(driver->num_shards(), 0);
  for (std::size_t s = 0; s < driver->num_shards(); ++s) {
    remaining[s] = driver->session(s).num_submitted();
    replayed += remaining[s];
  }
  std::cout << "restored " << driver->num_shards() << "-shard "
            << api::to_string(driver->session(0).algorithm()) << ": "
            << replayed << " jobs replayed\n";
  if (driver->session(0).num_machines() != instance.num_machines()) {
    std::cerr << "trace has " << instance.num_machines()
              << " machines, checkpoint has "
              << driver->session(0).num_machines() << "\n";
    return 1;
  }
  const Time backoff =
      instance.num_jobs() > 0
          ? std::max(instance.job(static_cast<JobId>(instance.num_jobs() - 1))
                             .release /
                         static_cast<double>(instance.num_jobs()) * 4.0,
                     1e-3)
          : 1.0;
  StreamJob job;
  for (std::size_t j = 0; j < instance.num_jobs(); ++j) {
    const std::size_t shard = driver->shard_for(j);
    // shard_for is stable, so the first remaining[shard] jobs routed to a
    // shard are exactly the ones its session already replayed.
    if (remaining[shard] > 0) {
      --remaining[shard];
      continue;
    }
    fill_stream_job(instance, static_cast<JobId>(j), 0.0, &job);
    job.release = std::max(job.release, driver->session(shard).now());
    for (;;) {
      const service::StageOutcome outcome = driver->try_submit(shard, job);
      if (service::stage_ok(outcome)) break;
      if (outcome == service::StageOutcome::kDeferred) {
        driver->flush();
        continue;
      }
      job.release += backoff;
    }
  }
  std::vector<service::ShardCounters> counters;
  counters.reserve(driver->num_shards());
  for (std::size_t s = 0; s < driver->num_shards(); ++s) {
    counters.push_back(driver->shard_counters(s));
  }
  print_driver_summary(driver->drain_all(), counters);
  return 0;
}

/// --mode=restore: rebuild a session from --from, then (when the trace is
/// supplied) feed the not-yet-submitted tail and drain.
int restore(const util::Cli& cli, const Instance& instance) {
  const std::string path = cli.str("from");
  if (path.empty()) {
    std::cerr << "--mode=restore needs --from=<checkpoint file>\n";
    return 1;
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "cannot read " << path << "\n";
    return 1;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string blob = buffer.str();
  if (blob.size() >= sizeof(service::kDriverCheckpointMagic) &&
      std::memcmp(blob.data(), service::kDriverCheckpointMagic,
                  sizeof(service::kDriverCheckpointMagic)) == 0) {
    return restore_driver(cli, instance, blob);
  }

  std::string error;
  auto session = service::SchedulerSession::restore(blob, &error);
  if (session == nullptr) {
    std::cerr << "restore failed: " << error << "\n";
    return 1;
  }
  std::cout << "restored " << api::to_string(session->algorithm()) << ": "
            << session->num_submitted() << " jobs replayed, clock "
            << session->now() << "\n";
  if (session->num_machines() != instance.num_machines()) {
    std::cerr << "trace has " << instance.num_machines()
              << " machines, checkpoint has " << session->num_machines()
              << "\n";
    return 1;
  }
  // The restored session carries its window cap and shed budget in the
  // blob, so the tail feed honours the same backpressure contract as
  // --mode=stream.
  const Time backoff =
      instance.num_jobs() > 0
          ? std::max(instance.job(static_cast<JobId>(instance.num_jobs() - 1))
                             .release /
                         static_cast<double>(instance.num_jobs()) * 4.0,
                     1e-3)
          : 1.0;
  StreamJob job;
  for (std::size_t j = session->num_submitted(); j < instance.num_jobs();
       ++j) {
    fill_stream_job(instance, static_cast<JobId>(j), 0.0, &job);
    job.release = std::max(job.release, session->now());
    while (session->try_submit(job) ==
           service::SubmitOutcome::kBackpressure) {
      job.release += backoff;
    }
  }
  const api::RunSummary summary = session->drain();
  print_session_summary(*session, summary);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli;
  cli.flag("mode", "inspect", "generate | inspect | run | stream | restore");
  cli.flag("in", "", "input trace (inspect/run/stream/restore)");
  cli.flag("out", "/tmp/osched_trace.csv", "output trace (generate)");
  cli.flag("jobs", "500", "generate: number of jobs");
  cli.flag("machines", "4", "generate: number of machines");
  cli.flag("load", "1.0", "generate: target utilization");
  cli.flag("sizes", "pareto", "generate: size distribution");
  cli.flag("deadlines", "false", "generate: attach deadlines");
  cli.flag("seed", "1", "generate: RNG seed");
  cli.flag("algo", "theorem1",
           "run: theorem1 | theorem2 | theorem3 | weighted-ext | greedy-spt "
           "| fifo | immediate-reject");
  cli.flag("eps", "0.2", "run: rejection parameter");
  cli.flag("alpha", "2.0", "run: power exponent (theorem2)");
  cli.flag("dump", "", "run: write the schedule record to this CSV file");
  cli.flag("fail", "", "stream: kill schedule, time:machine[,time:machine]");
  cli.flag("drain", "", "stream: drain schedule, time:machine[,...]");
  cli.flag("join", "", "stream: join schedule, time:machine[,...]");
  cli.flag("down", "", "stream: machines outside the fleet at t=0, id[,id]");
  cli.flag("speed", "",
           "stream: speed schedule, time:machine:multiplier[,...]");
  cli.flag("budget", "0", "stream: fault rejection budget");
  cli.flag("window-cap", "0",
           "stream: live-window cap (0 = uncapped); refused arrivals are "
           "re-offered with a release backoff");
  cli.flag("shed-budget", "0",
           "stream: overload sheds allowed before backpressure");
  cli.flag("shed-policy", "fixed",
           "stream: shed victim/budget rule, fixed | epsilon (epsilon "
           "derives the budget from the algorithm's rejection allowance)");
  cli.flag("adaptive-cap", "",
           "stream: auto-tune the window cap, min:max:window:delay"
           "[:hysteresis] over submitted virtual time");
  cli.flag("fairness", "",
           "stream/restore: shards:quantum — route through a sharded "
           "driver with deficit-round-robin admission");
  cli.flag("checkpoint-at", "0", "stream: cut a checkpoint at this time");
  cli.flag("checkpoint-out", "", "stream: write the checkpoint blob here");
  cli.flag("from", "", "restore: checkpoint blob to resume from");
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 1;

  const std::string mode = cli.str("mode");
  if (mode == "generate") return generate(cli);

  // inspect / run need an input trace; default to a small generated demo so
  // the binary is runnable with no arguments.
  Instance instance;
  const std::string in = cli.str("in");
  if (in.empty()) {
    workload::WorkloadConfig config;
    config.num_jobs = 200;
    config.num_machines = 3;
    config.seed = 42;
    instance = workload::generate_workload(config);
    std::cout << "(no --in given: using a generated 200-job demo trace)\n";
  } else {
    std::string error;
    auto loaded = workload::load_instance(in, &error);
    if (!loaded) {
      std::cerr << "cannot load " << in << ": " << error << "\n";
      return 1;
    }
    instance = std::move(*loaded);
  }
  if (mode == "inspect") return inspect(instance);
  if (mode == "run") return run(cli, instance);
  if (mode == "stream") return stream(cli, instance);
  if (mode == "restore") return restore(cli, instance);
  std::cerr << "unknown --mode '" << mode << "'\n";
  return 1;
}
