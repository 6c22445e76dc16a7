// Differential wall for the pluggable processing-time storage.
//
// The contract under test: an Instance's storage backend (dense flat
// matrix, sparse CSR over the eligibility adjacency, closed-form generator)
// is INVISIBLE to scheduling — every policy makes bit-identical decisions
// (same schedule under a zero-tolerance diff, same counters, same
// certificates, double for double) over all backends of the same workload,
// for every family, eligibility density, machine count and seed. Plus the
// CSR edge cases (single-eligible-machine jobs, machine ids above the
// uint16 range at m = 65537), the façade accessor equivalences the
// checkers/metrics rely on, the exact dense byte footprint, and the
// generated family's materialize-vs-synthesize bit equality.
//
// The rotating OSCHED_FUZZ_SEED hook lets CI explore fresh instances every
// run, reproducibly. `ctest -L backend-matrix` selects this wall.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/scheduler_api.hpp"
#include "baselines/list_scheduler.hpp"
#include "core/flow/rejection_flow.hpp"
#include "duality/flow_dual_check.hpp"
#include "fuzz_seed.hpp"
#include "instance/builders.hpp"
#include "instance/processing_store.hpp"
#include "sim/schedule_io.hpp"
#include "workload/generated_family.hpp"
#include "workload/generators.hpp"

namespace osched {
namespace {

std::uint64_t base_seed() {
  return testing::fuzz_base_seed("storage_backend_test", 1811);
}

Instance make_workload(double eligibility, std::uint64_t seed, std::size_t n,
                       std::size_t m) {
  workload::WorkloadConfig config;
  config.num_jobs = n;
  config.num_machines = m;
  config.seed = seed;
  config.load = 1.2;
  config.sizes.dist = workload::SizeDistribution::kPareto;
  if (eligibility < 1.0) {
    config.machines.model = workload::MachineModel::kRestricted;
    config.machines.eligibility = eligibility;
  }
  return workload::generate_workload(config);
}

void expect_same_schedule(const Schedule& a, const Schedule& b,
                          const std::string& context) {
  ScheduleDiffOptions strict;
  strict.time_tolerance = 0.0;  // byte-identical, not tolerance-equal
  const auto diffs = diff_schedules(a, b, strict);
  ASSERT_TRUE(diffs.empty()) << context << ": " << diffs.size()
                             << " schedule diffs; first: " << diffs.front();
}

void expect_same_summary(const api::RunSummary& a, const api::RunSummary& b,
                         const std::string& context) {
  expect_same_schedule(a.schedule, b.schedule, context);
  EXPECT_EQ(a.report.num_completed, b.report.num_completed) << context;
  EXPECT_EQ(a.report.num_rejected, b.report.num_rejected) << context;
  EXPECT_EQ(a.report.total_flow, b.report.total_flow) << context;
  EXPECT_EQ(a.report.total_weighted_flow, b.report.total_weighted_flow)
      << context;
  EXPECT_EQ(a.report.makespan, b.report.makespan) << context;
  EXPECT_EQ(a.certified_lower_bound, b.certified_lower_bound) << context;
  EXPECT_EQ(a.rule1_rejections, b.rule1_rejections) << context;
  EXPECT_EQ(a.rule2_rejections, b.rule2_rejections) << context;
}

// Every streamable-or-batch policy that reads the store on its hot path.
const api::Algorithm kAlgorithms[] = {
    api::Algorithm::kTheorem1,  api::Algorithm::kTheorem2,
    api::Algorithm::kWeightedExt, api::Algorithm::kGreedySpt,
    api::Algorithm::kFifo,      api::Algorithm::kImmediateReject,
};

// ------------------------------------------------------ dense == sparse

TEST(StorageBackend, SparseMatchesDenseAcrossPoliciesDensitiesSeeds) {
  const double densities[] = {1.0, 0.5, 0.1};
  for (double density : densities) {
    for (std::uint64_t round = 0; round < 2; ++round) {
      const std::uint64_t seed = base_seed() + 101 * round;
      const Instance dense = make_workload(density, seed, 500, 16);
      const Instance sparse = dense.with_backend(StorageBackend::kSparseCsr);
      ASSERT_EQ(sparse.backend(), StorageBackend::kSparseCsr);
      ASSERT_LT(sparse.store_bytes(), dense.store_bytes() + 1);
      for (api::Algorithm algorithm : kAlgorithms) {
        const std::string context = std::string(api::to_string(algorithm)) +
                                    " density=" + std::to_string(density) +
                                    " seed=" + std::to_string(seed);
        const api::RunSummary a = api::run(algorithm, dense);
        const api::RunSummary b = api::run(algorithm, sparse);
        expect_same_summary(a, b, context);
      }
    }
  }
}

TEST(StorageBackend, SparseRoundTripsBackToDense) {
  const Instance dense = make_workload(0.3, base_seed() + 7, 200, 9);
  const Instance sparse = dense.with_backend(StorageBackend::kSparseCsr);
  const Instance back = sparse.with_backend(StorageBackend::kDense);
  ASSERT_EQ(back.num_jobs(), dense.num_jobs());
  for (std::size_t j = 0; j < dense.num_jobs(); ++j) {
    for (std::size_t i = 0; i < dense.num_machines(); ++i) {
      EXPECT_EQ(back.processing(static_cast<MachineId>(i),
                                static_cast<JobId>(j)),
                dense.processing(static_cast<MachineId>(i),
                                 static_cast<JobId>(j)))
          << "entry (" << i << ", " << j << ")";
    }
  }
}

// --------------------------------------------- generator == dense == sparse

TEST(StorageBackend, GeneratorMatchesMaterializedBackends) {
  workload::ClosedFormConfig config;
  config.num_jobs = 400;
  config.num_machines = 24;
  config.seed = base_seed() + 31;
  const Instance gen =
      workload::make_closed_form_instance(config, StorageBackend::kGenerator);
  const Instance dense =
      workload::make_closed_form_instance(config, StorageBackend::kDense);
  const Instance sparse =
      workload::make_closed_form_instance(config, StorageBackend::kSparseCsr);

  // The closed form materializes to the same doubles it synthesizes.
  for (std::size_t j = 0; j < config.num_jobs; j += 17) {
    for (std::size_t i = 0; i < config.num_machines; ++i) {
      const auto machine = static_cast<MachineId>(i);
      const auto job = static_cast<JobId>(j);
      EXPECT_EQ(gen.processing(machine, job), dense.processing(machine, job));
      EXPECT_EQ(gen.processing(machine, job), sparse.processing(machine, job));
    }
  }

  for (api::Algorithm algorithm : kAlgorithms) {
    const std::string context = std::string(api::to_string(algorithm));
    const api::RunSummary d = api::run(algorithm, dense);
    expect_same_summary(api::run(algorithm, gen), d, context + " gen-vs-dense");
    expect_same_summary(api::run(algorithm, sparse), d,
                        context + " sparse-vs-dense");
  }
}

TEST(StorageBackend, GeneratorViewServesRowsAndBounds) {
  workload::ClosedFormConfig config;
  config.num_jobs = 64;
  config.num_machines = 11;
  config.seed = base_seed() + 97;
  const Instance gen =
      workload::make_closed_form_instance(config, StorageBackend::kGenerator);
  const GeneratorStoreView view(gen);
  for (std::size_t j = 0; j < config.num_jobs; ++j) {
    const auto job = static_cast<JobId>(j);
    const Work* row = view.processing_row(job);
    const float* bounds = view.bounds_row(job);
    ASSERT_EQ(view.eligible_machines(job).size(), config.num_machines);
    for (std::size_t i = 0; i < config.num_machines; ++i) {
      EXPECT_EQ(row[i], workload::closed_form_entry(config, job,
                                                    static_cast<MachineId>(i)));
      EXPECT_EQ(bounds[i], float_lower(row[i]));
    }
  }
}

// ------------------------------------------------- the dual-check template

TEST(StorageBackend, FlowDualCheckerAgreesAcrossBackends) {
  // Restricted family: the checker must produce the SAME report from every
  // backend (the feasibility VERDICT on restricted instances is the
  // algorithm's business, not storage's — see the full-eligibility case
  // below for the Lemma 4 assertion).
  const Instance dense = make_workload(0.4, base_seed() + 5, 300, 8);
  const Instance sparse = dense.with_backend(StorageBackend::kSparseCsr);
  const RejectionFlowOptions options{.epsilon = 0.25};
  const RejectionFlowResult result = run_rejection_flow(dense, options);
  const RejectionFlowResult sparse_result = run_rejection_flow(sparse, options);

  const DualCheckReport a = check_flow_dual_feasibility(dense, result, 0.25);
  const DualCheckReport b =
      check_flow_dual_feasibility(sparse, sparse_result, 0.25);
  EXPECT_EQ(a.max_violation, b.max_violation);
  EXPECT_EQ(a.constraints_checked, b.constraints_checked);

  // The per-backend views satisfy the checker's Store contract directly.
  const SparseStoreView view(sparse);
  const DualCheckReport c =
      check_flow_dual_feasibility(view, sparse_result, 0.25);
  EXPECT_EQ(a.max_violation, c.max_violation);

  // Full eligibility: Lemma 4 feasibility holds and every backend of the
  // closed-form family reports it identically.
  workload::ClosedFormConfig config;
  config.num_jobs = 300;
  config.num_machines = 8;
  config.seed = base_seed() + 23;
  const Instance gd =
      workload::make_closed_form_instance(config, StorageBackend::kDense);
  const Instance gg =
      workload::make_closed_form_instance(config, StorageBackend::kGenerator);
  const RejectionFlowResult rd = run_rejection_flow(gd, options);
  const RejectionFlowResult rg = run_rejection_flow(gg, options);
  const DualCheckReport fd = check_flow_dual_feasibility(gd, rd, 0.25);
  const DualCheckReport fg = check_flow_dual_feasibility(gg, rg, 0.25);
  EXPECT_TRUE(fd.feasible()) << fd.max_violation;
  EXPECT_EQ(fd.max_violation, fg.max_violation);
  EXPECT_EQ(fd.constraints_checked, fg.constraints_checked);
}

// ------------------------------------------------------------- edge cases

TEST(StorageBackend, SingleEligibleMachineJobs) {
  // Every job can run on exactly one machine: CSR rows of length 1, the
  // dispatch has no choice, and both backends must agree anyway.
  std::vector<Job> jobs;
  std::vector<std::vector<SparseEntry>> rows;
  for (std::size_t j = 0; j < 40; ++j) {
    Job job;
    job.id = static_cast<JobId>(j);
    job.release = 0.25 * static_cast<double>(j);
    job.weight = 1.0;
    jobs.push_back(job);
    rows.push_back({SparseEntry{static_cast<MachineId>(j % 5),
                                1.0 + 0.125 * static_cast<double>(j % 7)}});
  }
  const Instance sparse = Instance::from_sparse_rows(jobs, 5, rows);
  ASSERT_TRUE(sparse.validate().empty()) << sparse.validate();
  for (std::size_t j = 0; j < 40; ++j) {
    EXPECT_EQ(sparse.eligible_machines(static_cast<JobId>(j)).size(), 1u);
  }
  const Instance dense = sparse.with_backend(StorageBackend::kDense);
  const api::RunSummary a = api::run(api::Algorithm::kTheorem1, sparse);
  const api::RunSummary b = api::run(api::Algorithm::kTheorem1, dense);
  expect_same_summary(a, b, "single-eligible");
}

TEST(StorageBackend, MachineIdsAboveUint16AcrossMatrixBackends) {
  // m = 65537: machine ids past the uint16 range. Both matrix backends must
  // agree bit for bit, and indexed dispatch must match the exhaustive
  // linear scan on each.
  constexpr std::size_t m = 65537;
  std::vector<Job> jobs;
  std::vector<std::vector<SparseEntry>> rows;
  for (std::size_t j = 0; j < 6; ++j) {
    Job job;
    job.id = static_cast<JobId>(j);
    job.release = static_cast<double>(j);
    job.weight = 1.0;
    jobs.push_back(job);
    // A handful of eligible machines spread across the id range,
    // including the very last machine (an id that overflows uint16).
    std::vector<SparseEntry> row;
    row.push_back(SparseEntry{static_cast<MachineId>(j), 2.0});
    row.push_back(SparseEntry{static_cast<MachineId>(30000 + 7 * j), 1.5});
    row.push_back(SparseEntry{static_cast<MachineId>(m - 1), 1.0});
    rows.push_back(std::move(row));
  }
  const Instance sparse = Instance::from_sparse_rows(jobs, m, std::move(rows));
  ASSERT_TRUE(sparse.validate().empty()) << sparse.validate();
  const Instance dense = sparse.with_backend(StorageBackend::kDense);
  expect_same_summary(api::run(api::Algorithm::kTheorem1, sparse),
                      api::run(api::Algorithm::kTheorem1, dense),
                      "sparse vs dense m=65537");
  RejectionFlowOptions indexed;
  indexed.epsilon = 0.5;
  RejectionFlowOptions linear = indexed;
  linear.dispatch = DispatchMode::kLinearScan;
  for (const Instance* instance : {&sparse, &dense}) {
    const std::string context =
        std::string("vs linear ") + to_string(instance->backend());
    expect_same_schedule(run_rejection_flow(*instance, indexed).schedule,
                         run_rejection_flow(*instance, linear).schedule,
                         context);
  }
}

TEST(StorageBackend, GeneratorAgreesWithDenseAboveUint16) {
  // The fully eligible closed form at m = 65537, synthesized vs
  // materialized: decision for decision. Tiny n so the dense
  // materialization stays a few megabytes.
  workload::ClosedFormConfig config;
  config.num_jobs = 6;
  config.num_machines = 65537;
  config.seed = base_seed() + 65;
  const Instance gen =
      workload::make_closed_form_instance(config, StorageBackend::kGenerator);
  const Instance dense =
      workload::make_closed_form_instance(config, StorageBackend::kDense);
  expect_same_summary(api::run(api::Algorithm::kTheorem1, gen),
                      api::run(api::Algorithm::kTheorem1, dense),
                      "generator vs dense m=65537");
}

TEST(StorageBackend, SparseValidationCatchesMalformedRows) {
  std::vector<Job> jobs(1);
  jobs[0].id = 0;
  jobs[0].release = 0.0;
  jobs[0].weight = 1.0;
  {
    // Non-positive entry.
    const Instance bad = Instance::from_sparse_rows(
        jobs, 3, {{SparseEntry{1, 0.0}}});
    EXPECT_NE(bad.validate().find("non-positive"), std::string::npos)
        << bad.validate();
  }
  {
    // Infinite entry (ineligible machines must be omitted, not listed).
    const Instance bad = Instance::from_sparse_rows(
        jobs, 3, {{SparseEntry{1, kTimeInfinity}}});
    EXPECT_NE(bad.validate().find("not finite"), std::string::npos)
        << bad.validate();
  }
  {
    // Empty row = no eligible machine.
    const Instance bad = Instance::from_sparse_rows(jobs, 3, {{}});
    EXPECT_NE(bad.validate().find("no eligible machine"), std::string::npos)
        << bad.validate();
  }
}

TEST(StorageBackend, FacadeAccessorsAgree) {
  const Instance dense = make_workload(0.3, base_seed() + 13, 120, 7);
  const Instance sparse = dense.with_backend(StorageBackend::kSparseCsr);
  EXPECT_EQ(dense.processing_spread(), sparse.processing_spread());
  EXPECT_EQ(dense.total_weight(), sparse.total_weight());
  for (std::size_t j = 0; j < dense.num_jobs(); ++j) {
    const auto job = static_cast<JobId>(j);
    EXPECT_EQ(dense.min_processing(job), sparse.min_processing(job));
    const auto a = dense.eligible_machines(job);
    const auto b = sparse.eligible_machines(job);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t k = 0; k < a.size(); ++k) {
      EXPECT_EQ(a.first[k], b.first[k]);
    }
    for (std::size_t i = 0; i < dense.num_machines(); ++i) {
      EXPECT_EQ(dense.processing(static_cast<MachineId>(i), job),
                sparse.processing(static_cast<MachineId>(i), job));
    }
  }
}

TEST(StorageBackend, DispatchIndexFlagIsFalseOnEveryBackend) {
  // RunSummary::dispatch_index_active reported whether a precomputed
  // (p, id) machine order backed the run. No backend builds one, so the
  // flag reads false everywhere, through the instance and the facade.
  workload::ClosedFormConfig config;
  config.num_jobs = 60;
  config.num_machines = 6;
  config.seed = base_seed() + 53;
  for (const StorageBackend backend :
       {StorageBackend::kDense, StorageBackend::kSparseCsr,
        StorageBackend::kGenerator}) {
    const Instance instance =
        workload::make_closed_form_instance(config, backend);
    EXPECT_FALSE(instance.dispatch_index_active()) << to_string(backend);
    EXPECT_FALSE(api::run(api::Algorithm::kGreedySpt, instance)
                     .dispatch_index_active)
        << to_string(backend);
  }

  // The shared closed form is reachable for streaming handoff (and only
  // from the backend that has one).
  const Instance gen =
      workload::make_closed_form_instance(config, StorageBackend::kGenerator);
  const Instance dense =
      workload::make_closed_form_instance(config, StorageBackend::kDense);
  EXPECT_NE(gen.shared_generator(), nullptr);
  EXPECT_DEATH(dense.shared_generator(), "");
}

TEST(StorageBackend, DenseStoreBytesAreExactlyItsTables) {
  // Dense footprint = job records + n×m doubles + the n×m float shadow +
  // one int32 per eligible entry + n+1 offsets, and nothing else.
  const Instance dense = make_workload(0.4, base_seed() + 71, 150, 9);
  const std::size_t n = dense.num_jobs();
  const std::size_t m = dense.num_machines();
  std::size_t eligible = 0;
  for (std::size_t j = 0; j < n; ++j) {
    eligible += dense.eligible_machines(static_cast<JobId>(j)).size();
  }
  ASSERT_LT(eligible, n * m);  // restricted: the adjacency is not n×m
  EXPECT_EQ(dense.store_bytes(),
            n * sizeof(Job) + n * m * sizeof(Work) + n * m * sizeof(float) +
                eligible * sizeof(MachineId) + (n + 1) * sizeof(std::size_t));
}

TEST(StorageBackend, StoreBytesCollapseForSparseFamilies) {
  workload::ClosedFormConfig config;
  config.num_jobs = 2000;
  config.num_machines = 64;
  config.eligibility = 0.0625;
  config.seed = base_seed() + 41;
  const Instance dense =
      workload::make_closed_form_instance(config, StorageBackend::kDense);
  const Instance sparse =
      workload::make_closed_form_instance(config, StorageBackend::kSparseCsr);
  EXPECT_GE(dense.store_bytes(), 4 * sparse.store_bytes())
      << "dense " << dense.store_bytes() << " vs sparse "
      << sparse.store_bytes();

  config.eligibility = 1.0;
  const Instance gen =
      workload::make_closed_form_instance(config, StorageBackend::kGenerator);
  const Instance gen_dense =
      workload::make_closed_form_instance(config, StorageBackend::kDense);
  EXPECT_GE(gen_dense.store_bytes(), 4 * gen.store_bytes());
}

}  // namespace
}  // namespace osched
