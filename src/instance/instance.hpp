// Unrelated-machines problem instance — a thin façade over a pluggable
// processing-time store.
//
// The paper states the model over an n×m matrix of per-machine processing
// requirements p_ij (+infinity marks "job j cannot run on machine i",
// restricted assignment). How that matrix is *stored* is a backend choice:
//
//  * kDense     — one flat job-major buffer (a job's p_ij across machines is
//                 contiguous, the access pattern of the dispatch scans) plus
//                 a rounded-down float32 shadow.
//  * kSparseCsr — eligible entries only: p and float shadow are stored per
//                 job over the eligibility adjacency, so a restricted-
//                 assignment family at eligibility q costs ~q of the dense
//                 bytes instead of all of them.
//  * kGenerator — no matrix at all: p_ij is synthesized on demand from a
//                 workload family's closed form (RowGenerator). Fully
//                 eligible by contract; huge-m sweeps never materialize n×m.
//
// Every backend answers the same façade accessors (processing, eligibility,
// min_processing, ...) with identical values, and the schedulers make
// bit-identical decisions over all three — tests/storage_backend_test.cpp
// pins that down differentially. The *hot* accessor surface the policies
// are templated over (processing_row / bounds_row / processing_unchecked
// without branches) lives in the per-backend view classes of
// instance/processing_store.hpp; the dense view compiles to the exact loads
// Instance used to serve itself.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "instance/job.hpp"
#include "util/check.hpp"
#include "util/types.hpp"

namespace osched {

/// Lightweight view over one job's eligible machines (ascending machine
/// index, the same order the dispatch loops used to scan). Iterable:
///   for (MachineId i : instance.eligible_machines(j)) ...
struct EligibleMachines {
  const MachineId* first = nullptr;
  const MachineId* last = nullptr;

  const MachineId* begin() const { return first; }
  const MachineId* end() const { return last; }
  std::size_t size() const { return static_cast<std::size_t>(last - first); }
  bool empty() const { return first == last; }
};

/// Which representation an Instance keeps its p_ij matrix in. The choice
/// never changes any scheduling outcome — only memory footprint and the
/// constant factors of the accessors.
enum class StorageBackend {
  kDense,      ///< flat job-major n×m buffer (+ float shadow)
  kSparseCsr,  ///< eligible entries only, CSR over the adjacency
  kGenerator,  ///< p_ij synthesized on demand from a closed form
};

const char* to_string(StorageBackend backend);

/// One eligible entry of a sparse job row: machine index + finite p_ij.
struct SparseEntry {
  MachineId machine = kInvalidMachine;
  Work p = 0.0;
};

/// Closed-form p_ij source for generator-backed instances.
///
/// Contract: entry(j, i) is a PURE function of (j, i) — no internal state —
/// returning a finite positive processing time for every machine (generator
/// instances are fully eligible; restricted families belong to the sparse
/// backend, whose adjacency is explicit). `j` is the final, release-sorted
/// job id. Purity is what makes the backend exchangeable: materializing the
/// same generator into a dense or sparse instance reproduces every double
/// bit for bit, which the storage differential wall asserts.
class RowGenerator {
 public:
  virtual ~RowGenerator() = default;

  virtual Work entry(JobId j, MachineId i) const = 0;

  /// Fills one whole row (m entries). Override when the family can batch
  /// per-row work (e.g. hoisting the job-dependent factors out of the
  /// machine loop); the default just loops entry().
  virtual void fill_row(JobId j, std::size_t num_machines, Work* out) const {
    for (std::size_t i = 0; i < num_machines; ++i) {
      out[i] = entry(j, static_cast<MachineId>(i));
    }
  }
};

class Instance {
 public:
  Instance() = default;

  /// Dense backend. `processing[i][j]` is p_ij; every row must have
  /// `jobs.size()` entries. Jobs are re-sorted by (release, id) and
  /// re-numbered 0..n-1; the matrix columns are permuted accordingly, so
  /// callers can build in any order.
  Instance(std::vector<Job> jobs, std::vector<std::vector<Work>> processing);

  /// Sparse-CSR backend. `rows[k]` lists job k's eligible machines with
  /// their finite p entries, strictly ascending by machine index. Jobs are
  /// re-sorted/re-numbered exactly like the dense constructor (rows are
  /// permuted along). The n×m matrix is never materialized: memory is
  /// O(total eligible entries).
  static Instance from_sparse_rows(std::vector<Job> jobs,
                                   std::size_t num_machines,
                                   std::vector<std::vector<SparseEntry>> rows);

  /// Generator backend. `jobs` must already be sorted by (release, id) —
  /// the generator is indexed by final job id, so there is no permutation
  /// to hide behind; ids are renumbered 0..n-1 in place. Entry validity
  /// (finite, positive, fully eligible) is the generator's contract and is
  /// NOT scanned here: scanning would materialize exactly the n×m work this
  /// backend exists to avoid. validate() covers the job fields only.
  static Instance from_generator(std::vector<Job> jobs,
                                 std::size_t num_machines,
                                 std::shared_ptr<const RowGenerator> generator);

  /// Rebuilds this instance under another backend, preserving every p_ij
  /// bit for bit (the conversion behind the differential wall). Conversions
  /// TO kGenerator are only legal when this instance already is one (there
  /// is no closed form to recover from a matrix).
  Instance with_backend(StorageBackend target) const;

  StorageBackend backend() const { return backend_; }

  /// Exact byte footprint of the stored representation (matrix payload,
  /// float shadow, adjacency, job records). Deterministic for a
  /// given instance — bench reports treat it as an exact-match metric.
  std::size_t store_bytes() const;

  std::size_t num_jobs() const { return jobs_.size(); }
  std::size_t num_machines() const { return num_machines_; }

  const Job& job(JobId j) const {
    OSCHED_CHECK(j >= 0 && static_cast<std::size_t>(j) < jobs_.size());
    return jobs_[static_cast<std::size_t>(j)];
  }
  const std::vector<Job>& jobs() const { return jobs_; }

  Work processing(MachineId i, JobId j) const {
    OSCHED_CHECK(i >= 0 && static_cast<std::size_t>(i) < num_machines_);
    OSCHED_CHECK(j >= 0 && static_cast<std::size_t>(j) < jobs_.size());
    return processing_unchecked(i, j);
  }

  /// p_ij without bounds CHECKs, for validated loops (the duality checkers'
  /// constraint sweeps, metrics evaluation). Callers must have established
  /// 0 <= i < num_machines() and 0 <= j < num_jobs(). Dense: one load.
  /// Sparse: binary search of the job's adjacency slice (kTimeInfinity on a
  /// miss). Generator: one closed-form evaluation. Scheduling hot paths do
  /// NOT come through here — they run on the branch-free views of
  /// processing_store.hpp.
  Work processing_unchecked(MachineId i, JobId j) const {
    switch (backend_) {
      case StorageBackend::kDense:
        return processing_[static_cast<std::size_t>(j) * num_machines_ +
                           static_cast<std::size_t>(i)];
      case StorageBackend::kSparseCsr:
        return sparse_lookup(i, j);
      case StorageBackend::kGenerator:
        return generator_->entry(j, i);
    }
    return kTimeInfinity;  // unreachable
  }

  /// Job j's contiguous p_{., j} row. DENSE BACKEND ONLY (the other
  /// backends have no materialized row to point into — hot-path row access
  /// goes through the views in processing_store.hpp).
  const Work* processing_row(JobId j) const {
    OSCHED_CHECK(backend_ == StorageBackend::kDense);
    return processing_.data() + static_cast<std::size_t>(j) * num_machines_;
  }

  /// Float32 shadow of processing_row, each entry rounded DOWN
  /// (float_lower). DENSE BACKEND ONLY, like processing_row.
  const float* bounds_row(JobId j) const {
    OSCHED_CHECK(backend_ == StorageBackend::kDense);
    return bounds_.data() + static_cast<std::size_t>(j) * num_machines_;
  }

  /// Kept for result attribution (api::RunSummary::dispatch_index_active
  /// and the benchmark reports read it): whether dispatch walked a
  /// precomputed per-job (p, id) machine order. No store builds one any
  /// more — Theorem 1's dispatch needs an argmin, not an order, and every
  /// store takes the same order-less sub-path (a vectorized idle argmin
  /// over the double row, an exact scan over the eligible list otherwise) —
  /// so this is false for every instance.
  bool dispatch_index_active() const { return false; }

  bool eligible(MachineId i, JobId j) const {
    return processing(i, j) < kTimeInfinity;
  }

  /// The machines that can run j (finite p_ij), ascending machine index.
  /// Dense/sparse: the precomputed adjacency. Generator: a shared
  /// 0..m-1 identity row (fully eligible by contract).
  EligibleMachines eligible_machines(JobId j) const {
    OSCHED_CHECK(j >= 0 && static_cast<std::size_t>(j) < jobs_.size());
    if (backend_ == StorageBackend::kGenerator) {
      const MachineId* base = identity_machines_.data();
      return EligibleMachines{base, base + num_machines_};
    }
    const auto idx = static_cast<std::size_t>(j);
    const MachineId* base = eligible_flat_.data();
    return EligibleMachines{base + eligible_offsets_[idx],
                            base + eligible_offsets_[idx + 1]};
  }

  /// min_i p_ij — the fastest any machine can serve j. Used by lower bounds.
  Work min_processing(JobId j) const;

  /// max p_ij / min p_ij over all finite entries (the paper's Delta).
  /// Generator backend: evaluates the closed form over the full n×m grid —
  /// an analysis-only accessor, not a scheduling path.
  double processing_spread() const;

  Weight total_weight() const;

  /// The closed-form source of a generator-backed instance.
  const RowGenerator& generator() const {
    OSCHED_CHECK(backend_ == StorageBackend::kGenerator);
    return *generator_;
  }

  /// The same closed form as a shareable handle — the value to hand to
  /// SessionOptions::generator / SchedulerSession::restore when streaming
  /// this instance's jobs into a generator-backed session.
  const std::shared_ptr<const RowGenerator>& shared_generator() const {
    OSCHED_CHECK(backend_ == StorageBackend::kGenerator);
    return generator_;
  }

  /// Structural sanity: n >= 0, every job has at least one eligible machine,
  /// finite entries positive, releases non-negative, deadlines after release.
  /// Returns an empty string when valid, else a description of the problem.
  /// O(1): the verdict is computed once, during construction (generator
  /// instances check job fields only — see from_generator).
  std::string validate() const;

 private:
  friend class DenseStoreView;
  friend class SparseStoreView;
  friend class GeneratorStoreView;

  /// Shared per-job field validation (release/weight/deadline), identical
  /// across backends. KEEP IN SYNC with service::StreamingJobStore's
  /// check_job.
  static void check_job_fields(const Job& job, std::size_t j,
                               std::ostream& problems);

  Work sparse_lookup(MachineId i, JobId j) const;

  std::vector<Job> jobs_;
  std::size_t num_machines_ = 0;
  StorageBackend backend_ = StorageBackend::kDense;

  // ---- dense backend ----
  /// Flat p_ij buffer, job-major ([job * m + machine]): the hot dispatch
  /// loops read p_{., j} for one job across machines, which this layout
  /// serves from m/8 cache lines instead of m scattered ones.
  std::vector<Work> processing_;
  /// Rounded-down float32 shadow of processing_, same layout (bounds_row).
  std::vector<float> bounds_;

  // ---- sparse-CSR backend (aligned with eligible_flat_ slices) ----
  std::vector<Work> csr_p_;
  std::vector<float> csr_bounds_;

  // ---- generator backend ----
  std::shared_ptr<const RowGenerator> generator_;
  /// 0..m-1, the shared eligible_machines row of the fully-eligible
  /// generator backend.
  std::vector<MachineId> identity_machines_;

  // ---- shared tables (dense + sparse) ----
  /// Eligible-machine ids grouped by job; eligible_offsets_[j]..[j+1) is
  /// job j's slice of eligible_flat_.
  std::vector<MachineId> eligible_flat_;
  std::vector<std::size_t> eligible_offsets_;
  /// validate()'s cached verdict, filled at construction.
  std::string validation_problems_;
};

}  // namespace osched
