#include "instance/job_store.hpp"

#include <cmath>
#include <limits>
#include <numeric>
#include <sstream>

#include "instance/instance.hpp"
#include "instance/stream_job.hpp"

namespace osched {

const char* to_string(StorageBackend backend) {
  switch (backend) {
    case StorageBackend::kDense: return "dense";
    case StorageBackend::kSparseCsr: return "sparse-csr";
    case StorageBackend::kGenerator: return "generator";
  }
  return "?";
}

JobView JobView::of(const StreamJob& job) {
  return JobView{job.release, job.weight, job.deadline, job.processing,
                 job.entries};
}

JobStore::JobStore(std::size_t num_machines, std::size_t jobs_per_block,
                   StorageBackend backend,
                   std::shared_ptr<const RowGenerator> generator)
    : num_machines_(num_machines),
      jobs_per_block_(jobs_per_block),
      backend_(backend),
      generator_(std::move(generator)) {
  OSCHED_CHECK_GT(jobs_per_block, 0u);
  if (backend_ == StorageBackend::kGenerator) {
    OSCHED_CHECK(generator_ != nullptr)
        << "a generator-backed store needs the closed form";
  } else {
    OSCHED_CHECK(generator_ == nullptr)
        << "only the kGenerator backend takes a row generator";
  }
  if (backend_ != StorageBackend::kSparseCsr) {
    identity_machines_.resize(num_machines_);
    std::iota(identity_machines_.begin(), identity_machines_.end(),
              MachineId{0});
  }
}

bool JobStore::check_job_after(const JobView& job, Time last_release,
                               bool have_last, std::ostream* problems) const {
  bool ok = true;
  const auto flag = [&ok, problems] {
    ok = false;
    return problems != nullptr;  // keep going only when collecting messages
  };
  const bool has_dense = !job.processing.empty();
  const bool has_sparse = !job.entries.empty();
  if (has_dense && has_sparse) {
    if (!flag()) return false;
    *problems << "both the dense row and sparse entries are set (a "
                 "submission carries exactly one payload form); ";
  }
  if (backend_ == StorageBackend::kGenerator && (has_dense || has_sparse)) {
    if (!flag()) return false;
    *problems << "generator-backed stores take metadata-only submissions "
                 "(the shared closed form supplies every p_ij); ";
  }
  if (backend_ != StorageBackend::kGenerator && !has_dense && !has_sparse) {
    if (!flag()) return false;
    *problems << "empty payload (no eligible machine): this store has "
              << num_machines_
              << " machines and needs a dense processing row or sparse "
                 "(machine, p) entries; ";
  }
  if (job.release < 0.0) {
    if (!flag()) return false;
    *problems << "negative release " << job.release << "; ";
  } else if (!(job.release < kTimeInfinity)) {
    if (!flag()) return false;
    *problems << "non-finite release " << job.release << "; ";
  }
  if (have_last && job.release < last_release) {
    if (!flag()) return false;
    *problems << "release " << job.release
              << " precedes the last submitted release " << last_release
              << " (submissions must be in release order); ";
  }
  if (!(job.weight > 0.0) || job.weight >= kTimeInfinity) {
    if (!flag()) return false;
    *problems << "weight " << job.weight << " is not finite positive; ";
  }
  if (!(job.deadline > job.release)) {
    if (!flag()) return false;
    *problems << "deadline " << job.deadline << " not after release; ";
  }
  if (has_dense && !has_sparse) {
    if (job.processing.size() != num_machines_) {
      if (!flag()) return false;
      *problems << "processing row has " << job.processing.size()
                << " entries, store has " << num_machines_ << " machines; ";
    }
    // One branch-free sweep decides the row (!(p > 0) is exactly the bad
    // set: zero, negative, -inf and NaN; +inf marks an ineligible machine);
    // only a bad row is walked again to name its entries.
    bool any_eligible = false;
    bool any_bad = false;
    for (const Work p : job.processing) {
      any_eligible |= p < kTimeInfinity;
      any_bad |= !(p > 0.0);
    }
    if (any_bad) {
      if (!flag()) return false;
      for (std::size_t i = 0; i < job.processing.size(); ++i) {
        const Work p = job.processing[i];
        if (std::isnan(p)) {
          *problems << "p[" << i << "] is NaN; ";
        } else if (!(p > 0.0)) {
          *problems << "p[" << i << "] is non-positive or NaN; ";
        }
      }
    }
    // Only meaningful when the arity matched (a mismatch is flagged above).
    if (job.processing.size() == num_machines_ && !any_eligible) {
      if (!flag()) return false;
      *problems << "no eligible machine; ";
    }
  }
  if (has_sparse && !has_dense) {
    // Strictly ascending in-range machine ids (duplicates and disorder
    // diagnosed separately), finite positive p — an ineligible machine is
    // expressed by OMITTING it.
    MachineId prev = -1;
    for (std::size_t k = 0; k < job.entries.size(); ++k) {
      const SparseEntry& entry = job.entries[k];
      if (entry.machine < 0 ||
          static_cast<std::size_t>(entry.machine) >= num_machines_) {
        if (!flag()) return false;
        *problems << "entries[" << k << "] machine " << entry.machine
                  << " out of range (store has " << num_machines_
                  << " machines); ";
      } else if (k > 0 && entry.machine == prev) {
        if (!flag()) return false;
        *problems << "entries[" << k << "] duplicates machine "
                  << entry.machine << "; ";
      } else if (k > 0 && entry.machine < prev) {
        if (!flag()) return false;
        *problems << "entries[" << k << "] machine " << entry.machine
                  << " out of order (entries are sorted ascending by "
                     "machine); ";
      }
      prev = entry.machine;
      if (!(entry.p > 0.0)) {
        if (!flag()) return false;
        *problems << "entries[" << k << "] p is non-positive or NaN; ";
      } else if (entry.p >= kTimeInfinity) {
        if (!flag()) return false;
        *problems << "entries[" << k
                  << "] p is not finite (omit ineligible machines); ";
      }
    }
    // A non-empty valid entry list implies an eligible machine; the empty
    // list is the empty-payload diagnostic above.
  }
  return ok;
}

bool JobStore::job_ok(const StreamJob& job) const {
  return check_job(JobView::of(job), nullptr);
}

std::string JobStore::validate_job(const StreamJob& job) const {
  std::ostringstream problems;
  if (check_job(JobView::of(job), &problems)) return std::string();
  return problems.str();
}

JobId JobStore::append(const StreamJob& job) {
  // job_ok is the allocation-free gate; the diagnostic message is only
  // materialized on the failure path (OSCHED_CHECK streams lazily).
  const JobView view = JobView::of(job);
  OSCHED_CHECK(check_job(view, nullptr))
      << "invalid streamed job " << num_jobs_ << ": " << validate_job(job);
  return append_unchecked(view);
}

JobId JobStore::append_trusted(const StreamJob& job) {
  return append_unchecked(JobView::of(job));
}

void JobStore::validate_batch(std::span<const StreamJob> jobs) const {
  Time last = last_release_;
  bool have_last = num_jobs_ > 0;
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    const JobView view = JobView::of(jobs[k]);
    if (!check_job_after(view, last, have_last, nullptr)) {
      // Diagnose against the same predecessor the gate used (the store's
      // validate_job would compare against its own high-water mark).
      std::ostringstream problems;
      check_job_after(view, last, have_last, &problems);
      OSCHED_CHECK(false) << "invalid streamed job " << num_jobs_ + k
                          << " (batch position " << k
                          << "): " << problems.str();
    }
    last = jobs[k].release;
    have_last = true;
  }
}

JobId JobStore::append_batch(std::span<const StreamJob> jobs) {
  if (jobs.empty()) return kInvalidJob;
  validate_batch(jobs);
  const auto first = static_cast<JobId>(num_jobs_);
  for (const StreamJob& job : jobs) append_unchecked(JobView::of(job));
  return first;
}

JobId JobStore::append_reporting(const StreamJob& job, std::ostream& problems) {
  const JobView view = JobView::of(job);
  if (!check_job(view, nullptr)) {
    problems << "job " << num_jobs_ << ": ";
    check_job(view, &problems);
  }
  return append_unchecked(view);
}

JobStore::Block& JobStore::tail_block() {
  const std::size_t block_index = num_jobs_ / jobs_per_block_;
  if (block_index == blocks_.size()) {
    Block& fresh = blocks_.emplace_back();
    if (backend_ == StorageBackend::kDense) {
      // Dense blocks start without adjacency (see index_dense_row).
      fresh.processing.reserve(jobs_per_block_ * num_machines_);
    } else {
      fresh.eligible_offsets.reserve(jobs_per_block_ + 1);
      fresh.eligible_offsets.push_back(0);
    }
  }
  return blocks_[block_index];
}

void JobStore::end_row(Block& block) {
  OSCHED_CHECK_LE(block.eligible.size(),
                  std::numeric_limits<std::uint32_t>::max())
      << "a block holds more eligible entries than its uint32 offsets "
         "address; use smaller blocks";
  block.eligible_offsets.push_back(
      static_cast<std::uint32_t>(block.eligible.size()));
}

void JobStore::index_dense_row(Block& block, std::size_t offset) {
  const std::size_t m = num_machines_;
  const Work* row = block.processing.data() + offset * m;
  if (block.eligible_offsets.empty()) {
    bool fully_eligible = true;
    for (std::size_t i = 0; i < m; ++i) {
      fully_eligible &= row[i] < kTimeInfinity;
    }
    if (fully_eligible) return;
    // The block's first row with an ineligible machine: its predecessors
    // get explicit identity rows, and every row is indexed from here on.
    block.eligible_offsets.reserve(jobs_per_block_ + 1);
    block.eligible_offsets.push_back(0);
    for (std::size_t r = 0; r < offset; ++r) {
      block.eligible.insert(block.eligible.end(), identity_machines_.begin(),
                            identity_machines_.end());
      end_row(block);
    }
  }
  for (std::size_t i = 0; i < m; ++i) {
    if (row[i] < kTimeInfinity) {
      block.eligible.push_back(static_cast<MachineId>(i));
    }
  }
  end_row(block);
}

void JobStore::reserve(std::size_t jobs, std::size_t entries) {
  jobs_.reserve(num_jobs_ - static_cast<std::size_t>(begin_id_) + jobs);
  // A dense block reserves its rows on opening and indexes only the rows
  // that need it; a generator store keeps no blocks.
  if (backend_ != StorageBackend::kSparseCsr) return;
  Block& block = tail_block();
  block.eligible.reserve(block.eligible.size() + entries);
  block.csr_p.reserve(block.csr_p.size() + entries);
}

JobId JobStore::append_unchecked(const JobView& job) {
  const auto id = static_cast<JobId>(num_jobs_);
  jobs_.extend_to(num_jobs_ + 1);
  jobs_[num_jobs_] = Job{id, job.release, job.weight, job.deadline};

  if (backend_ != StorageBackend::kGenerator) {
    // Generator rows are the closed form and the shared identity adjacency:
    // a metadata-only job stores nothing else.
    Block& block = tail_block();
    if (backend_ == StorageBackend::kDense) {
      if (!job.entries.empty()) {
        // Sparse submission into a dense store: scatter over an
        // infinity-filled row (the dense store's own O(m) cost).
        const std::size_t base = block.processing.size();
        block.processing.resize(base + num_machines_, kTimeInfinity);
        for (const SparseEntry& entry : job.entries) {
          block.processing[base + static_cast<std::size_t>(entry.machine)] =
              entry.p;
        }
      } else {
        block.processing.insert(block.processing.end(),
                                job.processing.begin(), job.processing.end());
      }
      bump_matrix_bytes(num_machines_ * sizeof(Work));
      index_dense_row(block, offset_of(id));
    } else {
      const std::size_t before = block.csr_p.size();
      if (!job.entries.empty()) {
        // The backend's native form: O(eligible) append, nothing m-wide.
        for (const SparseEntry& entry : job.entries) {
          block.eligible.push_back(entry.machine);
          block.csr_p.push_back(entry.p);
        }
      } else {
        for (std::size_t i = 0; i < job.processing.size(); ++i) {
          if (job.processing[i] < kTimeInfinity) {
            block.eligible.push_back(static_cast<MachineId>(i));
            block.csr_p.push_back(job.processing[i]);
          }
        }
      }
      bump_matrix_bytes((block.csr_p.size() - before) * sizeof(Work));
      end_row(block);
    }
  }

  last_release_ = job.release;
  ++num_jobs_;
  return id;
}

void JobStore::adopt_dense_rows(std::span<const Job> jobs,
                                std::vector<Work> rows,
                                std::size_t num_entries,
                                std::ostream& problems) {
  OSCHED_CHECK(backend_ == StorageBackend::kDense && num_jobs_ == 0);
  OSCHED_CHECK_LE(jobs.size(), jobs_per_block_);
  OSCHED_CHECK_EQ(rows.size(), jobs.size() * num_machines_);
  if (jobs.empty()) return;
  Block& block = blocks_.emplace_back();
  block.processing = std::move(rows);
  bump_matrix_bytes(block.processing.size() * sizeof(Work));
  jobs_.reserve(jobs.size());
  const bool fully_eligible = num_entries == block.processing.size();
  const std::size_t m = num_machines_;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const Work* row = block.processing.data() + j * m;
    const Job& src = jobs[j];
    const JobView view{src.release, src.weight, src.deadline,
                       std::span<const Work>(row, m), {}};
    if (!check_job(view, nullptr)) {
      problems << "job " << j << ": ";
      check_job(view, &problems);
    }
    jobs_.extend_to(j + 1);
    jobs_[j] = Job{static_cast<JobId>(j), src.release, src.weight,
                   src.deadline};
    if (!fully_eligible) index_dense_row(block, j);
    last_release_ = src.release;
    ++num_jobs_;
  }
}

void JobStore::retire_below(JobId frontier) {
  if (frontier <= begin_id_) return;
  begin_id_ = std::min(frontier, static_cast<JobId>(num_jobs_));
  jobs_.retire_below(static_cast<std::size_t>(begin_id_));
  const std::size_t first_live_block =
      static_cast<std::size_t>(begin_id_) / jobs_per_block_;
  for (std::size_t b = 0; b < first_live_block && b < blocks_.size(); ++b) {
    matrix_bytes_ -= block_matrix_bytes(blocks_[b]);
    blocks_[b] = Block{};
  }
}

Instance JobStore::take_instance() {
  OSCHED_CHECK_EQ(begin_id_, 0)
      << "cannot hand over a store after retirement";
  JobStore taken = std::move(*this);
  // Leave this store empty and retired through its whole id range, so any
  // later read aborts instead of touching moved-from blocks.
  blocks_.clear();
  jobs_ = util::SlidingVector<Job>();
  begin_id_ = static_cast<JobId>(num_jobs_);
  matrix_bytes_ = 0;
  return Instance(std::move(taken), std::string());
}

const std::vector<Job>& JobStore::jobs() const {
  OSCHED_CHECK_EQ(begin_id_, 0) << "a retired store has no full job list";
  return jobs_.storage();
}

std::size_t JobStore::store_bytes() const {
  auto bytes = [](const auto& v) { return v.size() * sizeof(v[0]); };
  std::size_t total = (num_jobs_ - static_cast<std::size_t>(begin_id_)) *
                          sizeof(Job) +
                      bytes(identity_machines_);
  for (const Block& block : blocks_) {
    total += bytes(block.processing) + bytes(block.eligible) +
             bytes(block.eligible_offsets) + bytes(block.csr_p);
  }
  return total;
}

Work JobStore::min_processing(JobId j) const {
  Work best = kTimeInfinity;
  switch (backend_) {
    case StorageBackend::kDense: {
      const Work* row = processing_row(j);
      for (std::size_t i = 0; i < num_machines_; ++i) {
        best = std::min(best, row[i]);
      }
      break;
    }
    case StorageBackend::kSparseCsr: {
      const Work* values = csr_values(j);
      const std::size_t k = eligible_machines(j).size();
      for (std::size_t e = 0; e < k; ++e) best = std::min(best, values[e]);
      break;
    }
    case StorageBackend::kGenerator:
      for (std::size_t i = 0; i < num_machines_; ++i) {
        best = std::min(best, generator_->entry(j, static_cast<MachineId>(i)));
      }
      break;
  }
  return best;
}

StoreReader::RowTile& StoreReader::fill(JobId j) const {
  RowTile& slot = tiles_[static_cast<std::size_t>(j) % kTileSlots];
  const std::size_t m = store_->num_machines();
  if (slot.p.size() != m) {
    // Ineligible entries read +infinity, as in a dense row.
    slot.p.assign(m, kTimeInfinity);
    slot.set.clear();
  }
  if (store_->backend() == StorageBackend::kGenerator) {
    (void)store_->job(j);  // range and retirement check
    store_->generator()->fill_row(j, m, slot.p.data());
  } else {
    // CSR: reset the entries the previous row set, then scatter this one.
    for (const MachineId i : slot.set) {
      slot.p[static_cast<std::size_t>(i)] = kTimeInfinity;
    }
    const EligibleMachines eligible = store_->eligible_machines(j);
    const Work* values = store_->csr_values(j);
    slot.set.assign(eligible.begin(), eligible.end());
    for (std::size_t e = 0; e < slot.set.size(); ++e) {
      slot.p[static_cast<std::size_t>(slot.set[e])] = values[e];
    }
  }
  slot.id = j;
  return slot;
}

}  // namespace osched
