// Per-backend store views: the hot accessor surface the policies are
// templated over.
//
// The scheduling policies (rejection_flow / energy_flow / weighted_flow and
// the baselines) are templates over a Store type providing
//   job(j), num_jobs(), num_machines(), processing(i, j),
//   processing_unchecked(i, j), processing_row(j), bounds_row(j),
//   eligible_machines(j), min_processing(j)
// with Instance's semantics. Instance itself now multiplexes three backends
// behind façade accessors that branch per call — fine for checkers and
// metrics, wrong for the dispatch inner loops. These views give each
// backend a branch-free surface:
//
//  * DenseStoreView     — raw pointers into the dense buffers; every
//    accessor compiles to the exact loads Instance used to serve when it
//    WAS the dense store, so RejectionFlowPolicy<DenseStoreView, ...> is
//    the same hot path as the pre-refactor
//    RejectionFlowPolicy<Instance, ...> instantiation.
//  * SparseStoreView    — CSR entries decompressed on demand into a small
//    direct-mapped tile of dense rows (the policies read machine-indexed
//    rows). The tiles are the view's working set: two rows per dispatch
//    (current job + lookahead), reused across arrivals, so the DRAM
//    footprint stays O(eligible entries) while the row reads stay O(1).
//  * GeneratorStoreView — rows synthesized from the closed form into the
//    same tile shape; the n×m matrix never exists.
//
// A view borrows its Instance: keep the Instance alive for the view's
// lifetime, and use one view per run (the tiles are deliberately not
// thread-safe — a view is as private to its policy as the policy's own
// scratch). with_store_view() is the batch entry points' dispatcher.
#pragma once

#include <array>
#include <cstdlib>
#include <limits>
#include <vector>

#include "instance/instance.hpp"

namespace osched {

class DenseStoreView {
 public:
  explicit DenseStoreView(const Instance& instance)
      : instance_(&instance),
        p_(instance.processing_.data()),
        bounds_(instance.bounds_.data()),
        eligible_(instance.eligible_flat_.data()),
        offsets_(instance.eligible_offsets_.data()),
        m_(instance.num_machines()) {
    OSCHED_CHECK(instance.backend() == StorageBackend::kDense);
  }

  std::size_t num_jobs() const { return instance_->num_jobs(); }
  std::size_t num_machines() const { return m_; }
  const Job& job(JobId j) const { return instance_->job(j); }

  Work processing(MachineId i, JobId j) const {
    OSCHED_CHECK(i >= 0 && static_cast<std::size_t>(i) < m_);
    OSCHED_CHECK(j >= 0 && static_cast<std::size_t>(j) < num_jobs());
    return processing_unchecked(i, j);
  }
  Work processing_unchecked(MachineId i, JobId j) const {
    return p_[static_cast<std::size_t>(j) * m_ + static_cast<std::size_t>(i)];
  }
  const Work* processing_row(JobId j) const {
    return p_ + static_cast<std::size_t>(j) * m_;
  }
  const float* bounds_row(JobId j) const {
    return bounds_ + static_cast<std::size_t>(j) * m_;
  }
  EligibleMachines eligible_machines(JobId j) const {
    const auto idx = static_cast<std::size_t>(j);
    return EligibleMachines{eligible_ + offsets_[idx],
                            eligible_ + offsets_[idx + 1]};
  }
  bool eligible(MachineId i, JobId j) const {
    return processing(i, j) < kTimeInfinity;
  }
  Work min_processing(JobId j) const { return instance_->min_processing(j); }

 private:
  const Instance* instance_;
  const Work* p_;
  const float* bounds_;
  const MachineId* eligible_;
  const std::size_t* offsets_;
  std::size_t m_;
};

namespace store_detail {

/// One decompressed/synthesized dense row (machine-indexed, m entries of p
/// plus the float_lower shadow) tagged with the job it holds. Four
/// direct-mapped slots (j & 3): a dispatch touches rows j and j+1, which
/// land in different slots, and re-touching either is a hit.
struct RowTile {
  JobId id = kInvalidJob;
  std::vector<Work> p;
  std::vector<float> bounds;
};

inline constexpr std::size_t kTileSlots = 4;

}  // namespace store_detail

class SparseStoreView {
 public:
  explicit SparseStoreView(const Instance& instance)
      : instance_(&instance),
        csr_p_(instance.csr_p_.data()),
        eligible_(instance.eligible_flat_.data()),
        offsets_(instance.eligible_offsets_.data()),
        m_(instance.num_machines()) {
    OSCHED_CHECK(instance.backend() == StorageBackend::kSparseCsr);
  }

  std::size_t num_jobs() const { return instance_->num_jobs(); }
  std::size_t num_machines() const { return m_; }
  const Job& job(JobId j) const { return instance_->job(j); }

  Work processing(MachineId i, JobId j) const {
    OSCHED_CHECK(i >= 0 && static_cast<std::size_t>(i) < m_);
    OSCHED_CHECK(j >= 0 && static_cast<std::size_t>(j) < num_jobs());
    return processing_unchecked(i, j);
  }
  Work processing_unchecked(MachineId i, JobId j) const {
    return tile(j).p[static_cast<std::size_t>(i)];
  }
  const Work* processing_row(JobId j) const { return tile(j).p.data(); }
  const float* bounds_row(JobId j) const { return tile(j).bounds.data(); }
  EligibleMachines eligible_machines(JobId j) const {
    const auto idx = static_cast<std::size_t>(j);
    return EligibleMachines{eligible_ + offsets_[idx],
                            eligible_ + offsets_[idx + 1]};
  }
  bool eligible(MachineId i, JobId j) const {
    return processing(i, j) < kTimeInfinity;
  }
  Work min_processing(JobId j) const { return instance_->min_processing(j); }

 private:
  const store_detail::RowTile& tile(JobId j) const {
    store_detail::RowTile& slot =
        tiles_[static_cast<std::size_t>(j) % store_detail::kTileSlots];
    if (slot.id != j) fill(slot, j);
    return slot;
  }

  void fill(store_detail::RowTile& slot, JobId j) const {
    // Ineligible entries read as +infinity / FLT_MAX — exactly the values
    // the dense buffers hold for them (float_lower(inf) == FLT_MAX), so a
    // policy sweeping the row sees bit-identical inputs.
    slot.p.assign(m_, kTimeInfinity);
    slot.bounds.assign(m_, std::numeric_limits<float>::max());
    const auto idx = static_cast<std::size_t>(j);
    const std::size_t begin = offsets_[idx];
    const std::size_t end = offsets_[idx + 1];
    const float* csr_bounds = instance_->csr_bounds_.data();
    for (std::size_t k = begin; k < end; ++k) {
      const auto i = static_cast<std::size_t>(eligible_[k]);
      slot.p[i] = csr_p_[k];
      slot.bounds[i] = csr_bounds[k];
    }
    slot.id = j;
  }

  const Instance* instance_;
  const Work* csr_p_;
  const MachineId* eligible_;
  const std::size_t* offsets_;
  std::size_t m_;
  mutable std::array<store_detail::RowTile, store_detail::kTileSlots> tiles_;
};

class GeneratorStoreView {
 public:
  explicit GeneratorStoreView(const Instance& instance)
      : instance_(&instance),
        generator_(&instance.generator()),
        identity_(instance.identity_machines_.data()),
        m_(instance.num_machines()) {}

  std::size_t num_jobs() const { return instance_->num_jobs(); }
  std::size_t num_machines() const { return m_; }
  const Job& job(JobId j) const { return instance_->job(j); }

  Work processing(MachineId i, JobId j) const {
    OSCHED_CHECK(i >= 0 && static_cast<std::size_t>(i) < m_);
    OSCHED_CHECK(j >= 0 && static_cast<std::size_t>(j) < num_jobs());
    return processing_unchecked(i, j);
  }
  Work processing_unchecked(MachineId i, JobId j) const {
    return tile(j).p[static_cast<std::size_t>(i)];
  }
  const Work* processing_row(JobId j) const { return tile(j).p.data(); }
  const float* bounds_row(JobId j) const { return tile(j).bounds.data(); }
  EligibleMachines eligible_machines(JobId /*j*/) const {
    // Fully eligible by the RowGenerator contract: the shared 0..m-1 row.
    return EligibleMachines{identity_, identity_ + m_};
  }
  bool eligible(MachineId i, JobId j) const {
    return processing(i, j) < kTimeInfinity;
  }
  Work min_processing(JobId j) const {
    const store_detail::RowTile& t = tile(j);
    Work best = kTimeInfinity;
    for (std::size_t i = 0; i < m_; ++i) best = std::min(best, t.p[i]);
    return best;
  }

 private:
  const store_detail::RowTile& tile(JobId j) const {
    store_detail::RowTile& slot =
        tiles_[static_cast<std::size_t>(j) % store_detail::kTileSlots];
    if (slot.id != j) {
      slot.p.resize(m_);
      slot.bounds.resize(m_);
      generator_->fill_row(j, m_, slot.p.data());
      for (std::size_t i = 0; i < m_; ++i) {
        slot.bounds[i] = float_lower(slot.p[i]);
      }
      slot.id = j;
    }
    return slot;
  }

  const Instance* instance_;
  const RowGenerator* generator_;
  const MachineId* identity_;
  std::size_t m_;
  mutable std::array<store_detail::RowTile, store_detail::kTileSlots> tiles_;
};

/// Runs `fn` with the view matching `instance.backend()`. The batch entry
/// points route through this so each backend gets its own full template
/// instantiation of the policy + engine.
template <class Fn>
decltype(auto) with_store_view(const Instance& instance, Fn&& fn) {
  switch (instance.backend()) {
    case StorageBackend::kDense: {
      const DenseStoreView view(instance);
      return fn(view);
    }
    case StorageBackend::kSparseCsr: {
      const SparseStoreView view(instance);
      return fn(view);
    }
    case StorageBackend::kGenerator: {
      const GeneratorStoreView view(instance);
      return fn(view);
    }
  }
  OSCHED_CHECK(false) << "unreachable storage backend";
  std::abort();
}

}  // namespace osched
