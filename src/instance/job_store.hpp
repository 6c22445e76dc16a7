// The job store: the one place job data lives, for batch and streamed runs
// alike.
//
// The paper states the model over an n×m matrix of per-machine processing
// requirements p_ij (+infinity marks "job j cannot run on machine i",
// restricted assignment). A JobStore holds the job records plus that
// matrix in one of three representations (StorageBackend):
//
//  * kDense     — each block holds only its job-major m-wide double rows
//                 (8 bytes per entry). While every row of a block is fully
//                 eligible the block keeps no adjacency: eligible_machines
//                 returns the store's shared identity row. The first row
//                 with an ineligible machine materializes identity rows for
//                 the rows before it, and the block indexes every row from
//                 then on. Accepts dense AND sparse submission forms (sparse
//                 entries scatter into an infinity-filled row).
//  * kSparseCsr — each block stores only the eligible (machine, p) entries,
//                 as a values array aligned with the eligibility adjacency.
//                 A restricted-assignment job costs O(eligible), never O(m).
//                 Accepts both submission forms (a dense row is compacted).
//  * kGenerator — no matrix at all: p_ij comes from a shared RowGenerator
//                 closed form (fully eligible by contract, so every job
//                 reads the identity row). Submissions are METADATA-ONLY
//                 (release/weight/deadline; no payload).
// The choice never changes a scheduling outcome — only memory footprint and
// the constant factors of the accessors.
//
// Jobs arrive one at a time in release order (the online model's arrival
// order) and get dense ids 0, 1, 2, ...; one predicate, check_job_after,
// decides whether a job is acceptable, for every ingest path. The matrix
// lives in fixed-size blocks of jobs, so once every job of a block is
// decided a streaming session hands the whole block's memory back
// (retire_below) and the live footprint tracks the in-flight window.
// Reading a retired job aborts — schedulers only touch pending/running
// jobs, so a read below the frontier is a bug.
//
// A batch Instance (instance.hpp) is a sealed JobStore: nothing retired and
// no read writes to it, so a const Instance can be shared between threads.
// The m-wide rows the dispatch reads for the compact backends are
// decompressed by a StoreReader (below), one per run.
#pragma once

#include <algorithm>
#include <array>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "instance/job.hpp"
#include "util/check.hpp"
#include "util/sliding_vector.hpp"
#include "util/types.hpp"

namespace osched {

struct StreamJob;
class Instance;

/// Lightweight view over one job's eligible machines (ascending machine
/// index, the same order the dispatch loops scan). Iterable:
///   for (MachineId i : store.eligible_machines(j)) ...
struct EligibleMachines {
  const MachineId* first = nullptr;
  const MachineId* last = nullptr;

  const MachineId* begin() const { return first; }
  const MachineId* end() const { return last; }
  std::size_t size() const { return static_cast<std::size_t>(last - first); }
  bool empty() const { return first == last; }
};

/// Which representation a store keeps its p_ij matrix in.
enum class StorageBackend {
  kDense,      ///< job-major m-wide rows
  kSparseCsr,  ///< eligible entries only, CSR over the adjacency
  kGenerator,  ///< p_ij synthesized on demand from a closed form
};

const char* to_string(StorageBackend backend);

/// One eligible entry of a sparse job row: machine index + finite p_ij.
struct SparseEntry {
  MachineId machine = kInvalidMachine;
  Work p = 0.0;
};

/// Closed-form p_ij source for generator-backed stores.
///
/// Contract: entry(j, i) is a PURE function of (j, i) — no internal state —
/// returning a finite positive processing time for every machine (generator
/// stores are fully eligible; restricted families belong to the sparse
/// backend, whose adjacency is explicit). `j` is the final, release-sorted
/// job id. Purity is what makes the backend exchangeable: materializing the
/// same generator into a dense or sparse store reproduces every double bit
/// for bit, which the storage differential wall asserts.
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

/// One submission as the validator reads it: the job fields plus its dense
/// row or sparse entries (at most one non-empty; both empty = metadata).
struct JobView {
  Time release = 0.0;
  Weight weight = 1.0;
  Time deadline = kTimeInfinity;
  std::span<const Work> processing;
  std::span<const SparseEntry> entries;

  static JobView of(const StreamJob& job);
};

class JobStore {
 public:
  /// `backend` selects the block representation above. kGenerator requires
  /// a non-null `generator` (the closed form shared with the feeder); the
  /// matrix-backed backends require it null.
  explicit JobStore(std::size_t num_machines,
                    std::size_t jobs_per_block = 4096,
                    StorageBackend backend = StorageBackend::kDense,
                    std::shared_ptr<const RowGenerator> generator = nullptr);

  std::size_t num_machines() const { return num_machines_; }
  /// Total jobs ever appended (retired jobs included) — the id space size.
  std::size_t num_jobs() const { return num_jobs_; }
  /// First id still stored.
  JobId begin_id() const { return begin_id_; }

  StorageBackend backend() const { return backend_; }
  /// The closed form of a kGenerator store; null otherwise.
  const std::shared_ptr<const RowGenerator>& generator() const {
    return generator_;
  }

  /// Allocation-free structural check of one submission (the hot-path
  /// form): true iff append() would accept the job.
  bool job_ok(const StreamJob& job) const;

  /// Diagnostic form of job_ok: empty string = acceptable, else a
  /// description of every problem. Only builds its message machinery when
  /// the job is actually invalid.
  std::string validate_job(const StreamJob& job) const;

  /// Appends the job and returns its id. Aborts on invalid input — callers
  /// wanting recoverable rejection run job_ok/validate_job first.
  JobId append(const StreamJob& job);

  /// One validation pass over a whole batch (each job checked against its
  /// in-batch predecessor for release order, the first against the store's
  /// high-water mark). Aborts on the first invalid job, naming its batch
  /// position; the store is not mutated. The amortization behind
  /// SchedulerSession's batch submit: validate once, then append_trusted
  /// per job with no per-job gate.
  void validate_batch(std::span<const StreamJob> jobs) const;

  /// Appends WITHOUT the validity gate — legal only for jobs a
  /// validate_batch pass (or an explicit job_ok) already accepted.
  JobId append_trusted(const StreamJob& job);

  /// validate_batch + append_trusted over the whole span: appends the batch
  /// in one call and returns the FIRST assigned id (kInvalidJob for an
  /// empty batch).
  JobId append_batch(std::span<const StreamJob> jobs);

  /// The batch-ingest form of append: checks the job in collect mode —
  /// every problem goes to `problems`, prefixed "job <id>: " — and stores
  /// it either way, so a batch Instance can report through validate()
  /// instead of aborting. The payload must fit the store's layout (a dense
  /// row of num_machines() entries, sparse entries toward a kSparseCsr
  /// store, nothing toward a kGenerator one); a store holding a job that
  /// failed the check must not be scheduled.
  JobId append_reporting(const StreamJob& job, std::ostream& problems);

  /// kDense batch ingest of a whole empty store: adopts `rows`, the
  /// job-major jobs.size() × m matrix, as one block WITHOUT copying it, then
  /// checks (as append_reporting) and indexes it row by row. `num_entries`
  /// is the exact count of finite entries: when it is rows.size(), every
  /// row is fully eligible and none is scanned for indexing. jobs.size()
  /// must fit in one block.
  void adopt_dense_rows(std::span<const Job> jobs, std::vector<Work> rows,
                        std::size_t num_entries, std::ostream& problems);

  /// Reserves room for `jobs` more jobs holding `entries` eligible entries
  /// in all, in the block being filled (a sealed store knows its exact
  /// size up front).
  void reserve(std::size_t jobs, std::size_t entries);

  /// Frees every block that lies entirely below `frontier`.
  void retire_below(JobId frontier);

  /// Hands the store over to a batch Instance — no copy, no re-sort, no
  /// re-validation (every job already passed the gate). Only legal while
  /// nothing has been retired.
  /// This store is empty afterwards: every read aborts. Retention-mode
  /// sessions call it at drain time, after the policy's last store read.
  Instance take_instance();

  /// Bytes currently held in p_ij payload across live blocks: dense rows
  /// and CSR value arrays. Job records and the eligibility
  /// adjacency are excluded — this is the number that collapses for compact
  /// backends (a kGenerator store reports 0 forever). matrix_peak_bytes()
  /// is its lifetime high-water mark, the deterministic per-tenant memory
  /// metric the multi-tenant soak tracks.
  std::size_t matrix_bytes() const { return matrix_bytes_; }
  std::size_t matrix_peak_bytes() const { return matrix_peak_bytes_; }

  /// Exact byte footprint of the live representation: job records, dense
  /// rows, CSR values, adjacency and its uint32 offsets, and the shared
  /// identity row (dense and generator stores). Deterministic for a given
  /// store — bench reports treat it as an exact-match metric.
  std::size_t store_bytes() const;

  // ---- the accessor surface the policies read (through a StoreReader) ----

  const Job& job(JobId j) const {
    return jobs_.at(static_cast<std::size_t>(j));
  }

  /// Every job record, contiguous and indexed by id. Only while nothing has
  /// been retired (always true of an Instance's store).
  const std::vector<Job>& jobs() const;

  /// Point lookup: one load (dense), a binary search of the job's
  /// adjacency slice (CSR, kTimeInfinity on a miss) or one closed-form
  /// evaluation (generator). Never touches a reader's row tiles.
  Work processing_unchecked(MachineId i, JobId j) const {
    if (backend_ == StorageBackend::kGenerator) return generator_->entry(j, i);
    const Block& b = block_of(j);
    const std::size_t offset = offset_of(j);
    if (backend_ == StorageBackend::kDense) {
      return b.processing[offset * num_machines_ +
                          static_cast<std::size_t>(i)];
    }
    const MachineId* base = b.eligible.data();
    const MachineId* begin = base + b.eligible_offsets[offset];
    const MachineId* end = base + b.eligible_offsets[offset + 1];
    const MachineId* it = std::lower_bound(begin, end, i);
    if (it == end || *it != i) return kTimeInfinity;
    return b.csr_p[static_cast<std::size_t>(it - base)];
  }

  Work processing(MachineId i, JobId j) const {
    OSCHED_CHECK(i >= 0 && static_cast<std::size_t>(i) < num_machines_);
    return processing_unchecked(i, j);
  }

  bool eligible(MachineId i, JobId j) const {
    return processing(i, j) < kTimeInfinity;
  }

  /// Job j's contiguous p_{., j} row. kDense ONLY: the compact backends
  /// have no stored row; a StoreReader decompresses one.
  const Work* processing_row(JobId j) const {
    OSCHED_CHECK(backend_ == StorageBackend::kDense);
    return block_of(j).processing.data() + offset_of(j) * num_machines_;
  }

  EligibleMachines eligible_machines(JobId j) const {
    if (backend_ == StorageBackend::kGenerator) {
      (void)job(j);  // the retirement abort holds for every backend
      return identity_row();
    }
    const Block& b = block_of(j);
    // A dense block of fully eligible rows keeps no adjacency.
    if (b.eligible_offsets.empty()) return identity_row();
    const std::size_t offset = offset_of(j);
    const MachineId* base = b.eligible.data();
    return EligibleMachines{base + b.eligible_offsets[offset],
                            base + b.eligible_offsets[offset + 1]};
  }

  /// kSparseCsr only: job j's stored values, aligned entry-for-entry with
  /// eligible_machines(j). Row decompression and the checkpoint writer
  /// read rows through this instead of m probes.
  const Work* csr_values(JobId j) const {
    OSCHED_CHECK(backend_ == StorageBackend::kSparseCsr);
    const Block& b = block_of(j);
    return b.csr_p.data() + b.eligible_offsets[offset_of(j)];
  }

  /// min_i p_ij — the fastest any machine can serve j.
  Work min_processing(JobId j) const;

 private:
  /// The one validation predicate behind every ingest path: null sink =
  /// fast boolean short-circuit, non-null = collect every problem.
  /// `last_release` is the release the job must not precede (the store's
  /// high-water mark, or the preceding job of a batch); `have_last` is
  /// false for the very first submission. The negated comparisons
  /// (!(x > y)) deliberately catch NaN operands.
  bool check_job_after(const JobView& job, Time last_release, bool have_last,
                       std::ostream* problems) const;
  bool check_job(const JobView& job, std::ostream* problems) const {
    return check_job_after(job, last_release_, num_jobs_ > 0, problems);
  }

  /// Appends one job whose payload fits the layout (the shared tail of
  /// every append form).
  JobId append_unchecked(const JobView& job);

  struct Block {
    std::vector<Work> processing;  ///< kDense: rows * m, job-major
    /// Eligibility adjacency. A kDense block leaves both empty while every
    /// row it holds is fully eligible (see index_dense_row); kGenerator
    /// rows are implicitly the identity and keep no blocks at all.
    std::vector<MachineId> eligible;
    std::vector<std::uint32_t> eligible_offsets;  ///< rows + 1
    /// kSparseCsr: stored p values, aligned with `eligible`.
    std::vector<Work> csr_p;
  };

  /// The block job `num_jobs_` goes into, opened on demand.
  Block& tail_block();
  /// Closes row `offset` of the adjacency; the uint32 offsets must not wrap.
  void end_row(Block& block);
  /// Indexes the dense row just stored at `offset` of `block`: nothing while
  /// the block is all fully eligible rows; the first row with an ineligible
  /// machine first writes identity rows for the `offset` rows before it.
  void index_dense_row(Block& block, std::size_t offset);

  EligibleMachines identity_row() const {
    return EligibleMachines{identity_machines_.data(),
                            identity_machines_.data() + num_machines_};
  }

  /// p-payload bytes a block currently holds (the matrix_bytes unit).
  static std::size_t block_matrix_bytes(const Block& block) {
    return block.processing.size() * sizeof(Work) +
           block.csr_p.size() * sizeof(Work);
  }
  void bump_matrix_bytes(std::size_t bytes) {
    matrix_bytes_ += bytes;
    matrix_peak_bytes_ = std::max(matrix_peak_bytes_, matrix_bytes_);
  }

  const Block& block_of(JobId j) const {
    OSCHED_CHECK(j >= begin_id_ && static_cast<std::size_t>(j) < num_jobs_)
        << "job " << j << " outside the live store window [" << begin_id_
        << ", " << num_jobs_ << ")";
    return blocks_[static_cast<std::size_t>(j) / jobs_per_block_];
  }

  std::size_t offset_of(JobId j) const {
    return static_cast<std::size_t>(j) % jobs_per_block_;
  }

  std::size_t num_machines_;
  std::size_t jobs_per_block_;
  StorageBackend backend_ = StorageBackend::kDense;
  std::shared_ptr<const RowGenerator> generator_;
  /// 0..m-1: the adjacency of every fully eligible dense row and of every
  /// generator row (a kSparseCsr store keeps it empty).
  std::vector<MachineId> identity_machines_;
  std::size_t num_jobs_ = 0;
  JobId begin_id_ = 0;
  Time last_release_ = 0.0;
  /// Job records by id; the retired prefix is compacted away.
  util::SlidingVector<Job> jobs_;
  /// blocks_[b] covers ids [b*B, (b+1)*B); retired blocks are emptied.
  std::vector<Block> blocks_;
  std::size_t matrix_bytes_ = 0;
  std::size_t matrix_peak_bytes_ = 0;
};

/// The per-run read surface the policies, the engine and the checkers are
/// templated over: the store's accessors, plus m-wide rows for the compact
/// backends. Those are decompressed (CSR) or synthesized (generator) into a
/// 4-slot direct-mapped row-tile cache (slot = j % 4), sized so that the
/// dispatch's row-j and lookahead row-j+1 pointers never collide and a
/// re-read of either is a hit. Dense rows are served straight from the
/// store. The tiles are the reader's own scratch, so every run owns one
/// reader and a shared const store is never written. Point lookups
/// (processing_unchecked, min_processing) never FILL a tile: policies probe
/// arbitrary pending ids mid-dispatch while holding row pointers.
class StoreReader {
 public:
  explicit StoreReader(const JobStore& store)
      : store_(&store), dense_(store.backend() == StorageBackend::kDense) {}

  std::size_t num_jobs() const { return store_->num_jobs(); }
  std::size_t num_machines() const { return store_->num_machines(); }
  const Job& job(JobId j) const { return store_->job(j); }

  Work processing(MachineId i, JobId j) const {
    return store_->processing(i, j);
  }
  /// A compact-backend row already in its tile (the arrival being
  /// dispatched) answers from the tile; any other id falls through to the
  /// store's point lookup, so a probe never refills a tile.
  Work processing_unchecked(MachineId i, JobId j) const {
    if (!dense_) {
      const RowTile& slot = tiles_[static_cast<std::size_t>(j) % kTileSlots];
      if (slot.id == j && j >= store_->begin_id()) {
        return slot.p[static_cast<std::size_t>(i)];
      }
    }
    return store_->processing_unchecked(i, j);
  }
  bool eligible(MachineId i, JobId j) const { return store_->eligible(i, j); }
  EligibleMachines eligible_machines(JobId j) const {
    return store_->eligible_machines(j);
  }
  Work min_processing(JobId j) const { return store_->min_processing(j); }

  /// Job j's m-wide p row. The pointer stays valid across reads of rows j
  /// and j+1 and any number of point probes — the lifetime the dispatch
  /// needs. Ineligible entries read +infinity, as in a dense row.
  const Work* processing_row(JobId j) const {
    return dense_ ? store_->processing_row(j) : tile(j).p.data();
  }
 private:
  struct RowTile {
    JobId id = kInvalidJob;
    std::vector<Work> p;
    /// CSR: the machines the held row set, so the next fill resets only
    /// those entries (O(eligible), not O(m)).
    std::vector<MachineId> set;
  };
  static constexpr std::size_t kTileSlots = 4;

  /// Serves row j from its tile slot, filling it on a miss. The fast path
  /// still honors the retirement abort: a slot can hold a row whose block
  /// was retired since.
  RowTile& tile(JobId j) const {
    RowTile& slot = tiles_[static_cast<std::size_t>(j) % kTileSlots];
    if (slot.id == j && j >= store_->begin_id()) return slot;
    return fill(j);
  }
  RowTile& fill(JobId j) const;

  const JobStore* store_;
  bool dense_;
  mutable std::array<RowTile, kTileSlots> tiles_;
};

}  // namespace osched
