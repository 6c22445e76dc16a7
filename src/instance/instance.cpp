#include "instance/instance.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <sstream>

#include "instance/stream_job.hpp"

namespace osched {

namespace {

/// The (release, id) job order every backend normalizes to — release order
/// is the order the online algorithms see arrivals.
std::vector<std::size_t> release_order(const std::vector<Job>& jobs) {
  std::vector<std::size_t> perm(jobs.size());
  std::iota(perm.begin(), perm.end(), 0u);
  std::stable_sort(perm.begin(), perm.end(), [&](std::size_t a, std::size_t b) {
    if (jobs[a].release != jobs[b].release)
      return jobs[a].release < jobs[b].release;
    return jobs[a].id < jobs[b].id;
  });
  return perm;
}

/// A sealed store is one block of exactly n rows.
std::size_t one_block(std::size_t n) { return std::max<std::size_t>(n, 1); }

}  // namespace

Instance::Instance(JobStore store, std::string problems)
    : store_(std::move(store)), problems_(std::move(problems)) {}

Instance::Instance()
    : Instance(std::vector<Job>{}, std::vector<std::vector<Work>>{}) {}

Instance::Instance(std::vector<Job> jobs,
                   std::vector<std::vector<Work>> processing)
    : store_(processing.size(), one_block(jobs.size())) {
  for (const auto& row : processing) {
    OSCHED_CHECK_EQ(row.size(), jobs.size())
        << "processing matrix row width must equal the number of jobs";
  }

  // Sort jobs by (release, id), permuting matrix columns to match.
  const std::vector<std::size_t> perm = release_order(jobs);

  // Transpose the machine-major input into the store's job-major block one
  // job row at a time. The block is only reserved, so every entry is
  // written once, with no zero fill first; each row gathers one entry from
  // every input row into a scratch row, and the next few jobs read the same
  // cache lines. The same pass counts the finite entries, which lets the
  // store skip its per-row eligibility scan when every row is fully
  // eligible.
  const std::size_t n = jobs.size();
  const std::size_t m = processing.size();
  std::vector<const Work*> columns(m);
  for (std::size_t i = 0; i < m; ++i) columns[i] = processing[i].data();
  std::vector<Work> rows;
  rows.reserve(m * n);
  std::vector<Work> row(m);
  std::size_t num_eligible = 0;
  for (std::size_t pos = 0; pos < n; ++pos) {
    const std::size_t original = perm[pos];
    for (std::size_t i = 0; i < m; ++i) {
      const Work p = columns[i][original];
      row[i] = p;
      num_eligible += static_cast<std::size_t>(p < kTimeInfinity);
    }
    rows.insert(rows.end(), row.begin(), row.end());
  }
  processing = {};
  std::vector<Job> sorted(n);
  for (std::size_t pos = 0; pos < n; ++pos) sorted[pos] = jobs[perm[pos]];

  std::ostringstream problems;
  store_.adopt_dense_rows(sorted, std::move(rows), num_eligible, problems);
  problems_ = problems.str();
}

Instance Instance::from_sparse_rows(std::vector<Job> jobs,
                                    std::size_t num_machines,
                                    std::vector<std::vector<SparseEntry>> rows) {
  OSCHED_CHECK_EQ(rows.size(), jobs.size())
      << "one sparse row per job is required";
  const std::vector<std::size_t> perm = release_order(jobs);
  JobStore store(num_machines, one_block(jobs.size()),
                 StorageBackend::kSparseCsr);
  std::size_t nnz = 0;
  for (const auto& row : rows) nnz += row.size();
  store.reserve(jobs.size(), nnz);
  std::ostringstream problems;
  StreamJob job;
  for (const std::size_t original : perm) {
    const Job& src = jobs[original];
    job.release = src.release;
    job.weight = src.weight;
    job.deadline = src.deadline;
    job.entries = std::move(rows[original]);
    store.append_reporting(job, problems);
  }
  return Instance(std::move(store), problems.str());
}

Instance Instance::from_generator(
    std::vector<Job> jobs, std::size_t num_machines,
    std::shared_ptr<const RowGenerator> generator) {
  OSCHED_CHECK(generator != nullptr);
  JobStore store(num_machines, one_block(jobs.size()),
                 StorageBackend::kGenerator, std::move(generator));
  store.reserve(jobs.size(), 0);
  std::ostringstream problems;
  StreamJob job;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    // The generator is indexed by final job id: require release order
    // instead of silently permuting entries out from under the closed form.
    if (j > 0) {
      OSCHED_CHECK_GE(jobs[j].release, jobs[j - 1].release)
          << "generator-backed jobs must arrive release-sorted (job " << j
          << ")";
    }
    fill_stream_job_meta(jobs[j], 0.0, &job);
    store.append_reporting(job, problems);
  }
  return Instance(std::move(store), problems.str());
}

Instance Instance::with_backend(StorageBackend target) const {
  if (target == backend()) return *this;
  OSCHED_CHECK(target != StorageBackend::kGenerator)
      << "a matrix has no closed form to recover; build generator instances "
         "with Instance::from_generator";
  OSCHED_CHECK(problems_.empty())
      << "cannot convert an invalid instance: " << problems_;
  const std::size_t n = num_jobs();
  const std::size_t m = num_machines();
  // The jobs are already release-sorted with ids 0..n-1, so the target
  // constructor's stable sort is the identity permutation and every p_ij
  // keeps its (i, j) address.
  if (target == StorageBackend::kSparseCsr) {
    std::vector<std::vector<SparseEntry>> rows(n);
    for (std::size_t j = 0; j < n; ++j) {
      const auto job = static_cast<JobId>(j);
      rows[j].reserve(eligible_machines(job).size());
      for (const MachineId i : eligible_machines(job)) {
        rows[j].push_back(SparseEntry{i, processing_unchecked(i, job)});
      }
    }
    return from_sparse_rows(jobs(), m, std::move(rows));
  }
  std::vector<std::vector<Work>> processing(
      m, std::vector<Work>(n, kTimeInfinity));
  for (std::size_t j = 0; j < n; ++j) {
    const auto job = static_cast<JobId>(j);
    for (const MachineId i : eligible_machines(job)) {
      processing[static_cast<std::size_t>(i)][j] = processing_unchecked(i, job);
    }
  }
  return Instance(jobs(), std::move(processing));
}

double Instance::processing_spread() const {
  double lo = std::numeric_limits<double>::infinity();
  double hi = 0.0;
  for (std::size_t j = 0; j < num_jobs(); ++j) {
    const auto job = static_cast<JobId>(j);
    for (const MachineId i : eligible_machines(job)) {
      const Work p = processing_unchecked(i, job);
      lo = std::min(lo, p);
      hi = std::max(hi, p);
    }
  }
  if (hi == 0.0) return 1.0;
  return hi / lo;
}

Weight Instance::total_weight() const {
  Weight total = 0.0;
  for (const Job& job : jobs()) total += job.weight;
  return total;
}

std::string Instance::validate() const {
  if (num_machines() == 0) return "no machines; " + problems_;
  return problems_;
}

}  // namespace osched
