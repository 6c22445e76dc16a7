// Unrelated-machines problem instance: a sealed, immutable JobStore.
//
// The paper's n×m matrix of processing requirements p_ij lives in one
// JobStore (instance/job_store.hpp) under one of its three storage
// backends — dense rows, sparse CSR over the eligibility adjacency, or a
// closed-form generator — and the schedulers make bit-identical decisions
// over all three (tests/storage_backend_test.cpp pins that down
// differentially). An Instance is that store, sealed: every job was checked
// by the store's one validation predicate and nothing is ever retired, so
// no read writes to it and a const Instance can be shared between threads.
// Runs read it through a per-run StoreReader (the policies' row-tile
// scratch); the façade accessors here serve checkers, metrics and analysis.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "instance/job.hpp"
#include "instance/job_store.hpp"
#include "util/check.hpp"
#include "util/types.hpp"

namespace osched {

class Instance {
 public:
  /// The empty instance (no machines, no jobs).
  Instance();

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
  /// to hide behind; ids are renumbered 0..n-1. Entry validity (finite,
  /// positive, fully eligible) is the generator's contract and is NOT
  /// scanned here: scanning would materialize exactly the n×m work this
  /// backend exists to avoid. validate() covers the job fields only.
  static Instance from_generator(std::vector<Job> jobs,
                                 std::size_t num_machines,
                                 std::shared_ptr<const RowGenerator> generator);

  /// Rebuilds this instance under another backend, preserving every p_ij
  /// bit for bit (the conversion behind the differential wall). Conversions
  /// TO kGenerator are only legal when this instance already is one (there
  /// is no closed form to recover from a matrix).
  Instance with_backend(StorageBackend target) const;

  /// The sealed store, for a per-run StoreReader.
  const JobStore& store() const { return store_; }

  StorageBackend backend() const { return store_.backend(); }

  /// Exact byte footprint of the stored representation (JobStore::
  /// store_bytes). Deterministic for a given instance — bench reports
  /// treat it as an exact-match metric.
  std::size_t store_bytes() const { return store_.store_bytes(); }

  std::size_t num_jobs() const { return store_.num_jobs(); }
  std::size_t num_machines() const { return store_.num_machines(); }

  const Job& job(JobId j) const { return store_.job(j); }
  const std::vector<Job>& jobs() const { return store_.jobs(); }

  Work processing(MachineId i, JobId j) const {
    return store_.processing(i, j);
  }

  /// p_ij without the machine-range CHECK, for validated loops (the duality
  /// checkers' constraint sweeps, metrics evaluation). Dense: one load.
  /// Sparse: binary search of the job's adjacency slice (kTimeInfinity on a
  /// miss). Generator: one closed-form evaluation.
  Work processing_unchecked(MachineId i, JobId j) const {
    return store_.processing_unchecked(i, j);
  }

  /// Job j's contiguous p_{., j} row. DENSE BACKEND ONLY (the other
  /// backends have no materialized row; a StoreReader decompresses one).
  const Work* processing_row(JobId j) const { return store_.processing_row(j); }

  /// Kept for result attribution (api::RunSummary::dispatch_index_active
  /// and the benchmark reports read it): whether dispatch walked a
  /// precomputed per-job (p, id) machine order. No store builds one —
  /// Theorem 1's dispatch needs an argmin, not an order — so this is false
  /// for every instance.
  bool dispatch_index_active() const { return false; }

  bool eligible(MachineId i, JobId j) const { return store_.eligible(i, j); }

  /// The machines that can run j (finite p_ij), ascending machine index.
  EligibleMachines eligible_machines(JobId j) const {
    return store_.eligible_machines(j);
  }

  /// min_i p_ij — the fastest any machine can serve j. Used by lower bounds.
  Work min_processing(JobId j) const { return store_.min_processing(j); }

  /// max p_ij / min p_ij over all finite entries (the paper's Delta).
  /// Generator backend: evaluates the closed form over the full n×m grid —
  /// an analysis-only accessor, not a scheduling path.
  double processing_spread() const;

  Weight total_weight() const;

  /// The closed-form source of a generator-backed instance.
  const RowGenerator& generator() const { return *shared_generator(); }

  /// The same closed form as a shareable handle — the value to hand to
  /// SessionOptions::generator / SchedulerSession::restore when streaming
  /// this instance's jobs into a generator-backed session.
  const std::shared_ptr<const RowGenerator>& shared_generator() const {
    OSCHED_CHECK(backend() == StorageBackend::kGenerator);
    return store_.generator();
  }

  /// Structural sanity: at least one machine, every job with at least one
  /// eligible machine, finite entries positive, releases finite and
  /// non-negative, weights finite positive, deadlines after release — the
  /// store's one predicate, run on every job at construction. Returns an
  /// empty string when valid, else a description of every problem. O(1):
  /// the verdict is computed once (generator instances check job fields
  /// only — see from_generator).
  std::string validate() const;

 private:
  friend class JobStore;  // take_instance hands a store over

  /// Seals `store` with the verdict its ingest collected.
  Instance(JobStore store, std::string problems);

  JobStore store_;
  /// validate()'s cached verdict, filled at construction.
  std::string problems_;
};

}  // namespace osched
