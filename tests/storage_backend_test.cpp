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
#include <thread>
#include <vector>

#include "api/scheduler_api.hpp"
#include "baselines/list_scheduler.hpp"
#include "core/flow/rejection_flow.hpp"
#include "duality/flow_dual_check.hpp"
#include "fuzz_seed.hpp"
#include "instance/builders.hpp"
#include "instance/job_store.hpp"
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

/// Sum of |eligible_machines(j)| over the instance.
std::size_t eligible_entries(const Instance& instance) {
  std::size_t eligible = 0;
  for (std::size_t j = 0; j < instance.num_jobs(); ++j) {
    eligible += instance.eligible_machines(static_cast<JobId>(j)).size();
  }
  return eligible;
}

/// The exact byte relation between a one-block dense store and its CSR
/// twin. CSR holds 12 bytes per eligible entry (double + int32 machine)
/// plus n+1 uint32 offsets; dense holds 8 bytes per matrix entry plus the
/// shared m-wide identity row, and the CSR-shaped adjacency only when some
/// row is restricted. So a fully eligible matrix is cheaper dense, and a
/// restricted one is cheaper as CSR.
void expect_dense_and_csr_bytes(const Instance& dense, const Instance& csr) {
  const std::size_t n = dense.num_jobs();
  const std::size_t m = dense.num_machines();
  const std::size_t eligible = eligible_entries(dense);
  const std::size_t jobs = n * sizeof(Job);
  const std::size_t offsets = (n + 1) * sizeof(std::uint32_t);
  ASSERT_EQ(csr.store_bytes(),
            jobs + eligible * (sizeof(Work) + sizeof(MachineId)) + offsets);
  if (eligible == n * m) {
    EXPECT_EQ(dense.store_bytes(),
              jobs + n * m * sizeof(Work) + m * sizeof(MachineId));
    EXPECT_GT(csr.store_bytes(), dense.store_bytes());
  } else {
    EXPECT_EQ(dense.store_bytes(), jobs + n * m * sizeof(Work) +
                                       m * sizeof(MachineId) +
                                       eligible * sizeof(MachineId) + offsets);
    EXPECT_LT(csr.store_bytes(), dense.store_bytes());
  }
}

TEST(StorageBackend, SparseMatchesDenseAcrossPoliciesDensitiesSeeds) {
  const double densities[] = {1.0, 0.5, 0.1};
  for (double density : densities) {
    for (std::uint64_t round = 0; round < 2; ++round) {
      const std::uint64_t seed = base_seed() + 101 * round;
      const Instance dense = make_workload(density, seed, 500, 16);
      const Instance sparse = dense.with_backend(StorageBackend::kSparseCsr);
      ASSERT_EQ(sparse.backend(), StorageBackend::kSparseCsr);
      expect_dense_and_csr_bytes(dense, sparse);
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

TEST(StorageBackend, GeneratorReaderServesRows) {
  workload::ClosedFormConfig config;
  config.num_jobs = 64;
  config.num_machines = 11;
  config.seed = base_seed() + 97;
  const Instance gen =
      workload::make_closed_form_instance(config, StorageBackend::kGenerator);
  const StoreReader view(gen.store());
  for (std::size_t j = 0; j < config.num_jobs; ++j) {
    const auto job = static_cast<JobId>(j);
    const Work* row = view.processing_row(job);
    ASSERT_EQ(view.eligible_machines(job).size(), config.num_machines);
    for (std::size_t i = 0; i < config.num_machines; ++i) {
      EXPECT_EQ(row[i], workload::closed_form_entry(config, job,
                                                    static_cast<MachineId>(i)));
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

  // A run's store reader satisfies the checker's Store contract directly.
  const StoreReader view(sparse.store());
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
  // Restricted: job records + n×m doubles + the shared m-wide identity row
  // + one int32 per eligible entry + n+1 uint32 offsets (one block), and
  // nothing else.
  const Instance restricted = make_workload(0.4, base_seed() + 71, 150, 9);
  std::size_t n = restricted.num_jobs();
  std::size_t m = restricted.num_machines();
  const std::size_t eligible = eligible_entries(restricted);
  ASSERT_LT(eligible, n * m);  // restricted: the adjacency is not n×m
  EXPECT_EQ(restricted.store_bytes(),
            n * sizeof(Job) + n * m * sizeof(Work) + m * sizeof(MachineId) +
                eligible * sizeof(MachineId) +
                (n + 1) * sizeof(std::uint32_t));

  // Fully eligible: no adjacency at all, every row reads the identity row.
  const Instance full = make_workload(1.0, base_seed() + 72, 150, 9);
  n = full.num_jobs();
  m = full.num_machines();
  ASSERT_EQ(eligible_entries(full), n * m);
  EXPECT_EQ(full.store_bytes(),
            n * sizeof(Job) + n * m * sizeof(Work) + m * sizeof(MachineId));
}

TEST(StorageBackend, SharedConstInstanceRunsIdenticallyOnFourThreads) {
  // A const Instance is sealed: its dense shadow is filled and the compact
  // backends' row tiles belong to each run's reader, so concurrent runs
  // over one shared instance never write to it and each must reproduce the
  // serial run bit for bit.
  workload::ClosedFormConfig config;
  config.num_jobs = 600;
  config.num_machines = 12;
  config.eligibility = 0.5;
  config.seed = base_seed() + 59;
  const Instance sparse =
      workload::make_closed_form_instance(config, StorageBackend::kSparseCsr);
  config.eligibility = 1.0;
  const Instance gen =
      workload::make_closed_form_instance(config, StorageBackend::kGenerator);
  const Instance dense = sparse.with_backend(StorageBackend::kDense);
  const RejectionFlowOptions options{.epsilon = 0.2};
  for (const Instance* instance : {&dense, &sparse, &gen}) {
    const std::string context = to_string(instance->backend());
    const RejectionFlowResult serial = run_rejection_flow(*instance, options);
    constexpr std::size_t kThreads = 4;
    std::vector<RejectionFlowResult> results(kThreads);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        results[t] = run_rejection_flow(*instance, options);
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (std::size_t t = 0; t < kThreads; ++t) {
      const RejectionFlowResult& r = results[t];
      const std::string where = context + " thread " + std::to_string(t);
      expect_same_schedule(r.schedule, serial.schedule, where);
      EXPECT_EQ(r.rule1_rejections, serial.rule1_rejections) << where;
      EXPECT_EQ(r.rule2_rejections, serial.rule2_rejections) << where;
      EXPECT_EQ(r.dual_objective, serial.dual_objective) << where;
      EXPECT_EQ(r.opt_lower_bound, serial.opt_lower_bound) << where;
      EXPECT_EQ(r.lambda, serial.lambda) << where;
      EXPECT_EQ(r.definitive_finish, serial.definitive_finish) << where;
    }
  }
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
