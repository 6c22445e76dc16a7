#include "sim/validator.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace osched {

namespace {

struct Interval {
  Time begin;
  Time end;
  JobId job;
};

/// "job <j> (<fate>): ", the prefix of every per-job violation. Built only
/// when a violation fires: formatting it for every job would cost more
/// than all the checks.
std::string job_tag(JobId j, JobFate fate) {
  std::ostringstream tag;
  tag << "job " << j << " (" << to_string(fate) << "): ";
  return tag.str();
}

}  // namespace

std::vector<std::string> validate_schedule(const Schedule& schedule,
                                           const Instance& instance,
                                           const ValidationOptions& options) {
  std::vector<std::string> violations;
  auto violation = [&violations](const std::string& msg) {
    violations.push_back(msg);
  };

  OSCHED_CHECK_EQ(schedule.num_jobs(), instance.num_jobs());
  const double tol = options.tolerance;

  std::vector<std::vector<Interval>> busy(instance.num_machines());

  for (std::size_t idx = 0; idx < schedule.num_jobs(); ++idx) {
    const auto j = static_cast<JobId>(idx);
    const JobRecord& rec = schedule.record(j);
    const Job& job = instance.job(j);
    const auto tag = [j, &rec] { return job_tag(j, rec.fate); };

    if (rec.fate == JobFate::kUnscheduled || rec.fate == JobFate::kPending) {
      if (options.require_all_decided) {
        violation(tag() + "left undecided at end of run");
      }
      continue;
    }

    // A job rejected at its arrival instant, before any dispatch, carries no
    // machine (immediate-rejection policies, Lemma 1 setting): only the
    // timing is checkable.
    if (rec.fate == JobFate::kRejectedPending && rec.machine == kInvalidMachine) {
      if (rec.started) violation(tag() + "queue-rejected but started");
      if (rec.rejection_time < job.release - tol) {
        violation(tag() + "rejected before release");
      }
      continue;
    }

    // Dispatched machine must exist and be eligible.
    if (rec.machine < 0 ||
        static_cast<std::size_t>(rec.machine) >= instance.num_machines()) {
      violation(tag() + "invalid machine index");
      continue;
    }
    if (!instance.eligible(rec.machine, j)) {
      violation(tag() + "assigned to ineligible machine");
      continue;
    }

    if (rec.fate == JobFate::kRejectedPending) {
      if (rec.started) violation(tag() + "queue-rejected but started");
      if (rec.rejection_time < job.release - tol) {
        violation(tag() + "rejected before release");
      }
      continue;
    }

    // Completed or rejected-running: must have started.
    if (!rec.started) {
      violation(tag() + "finished without starting");
      continue;
    }
    if (rec.start < job.release - tol) {
      violation(tag() + "started before release");
    }
    if (rec.speed <= 0.0) {
      violation(tag() + "non-positive speed");
      continue;
    }
    if (rec.end < rec.start - tol) {
      violation(tag() + "ends before it starts");
    }

    if (rec.fate == JobFate::kCompleted) {
      const Work p = instance.processing(rec.machine, j);
      const Time required = p / rec.speed;
      const Time actual = rec.end - rec.start;
      if (std::abs(actual - required) > tol * std::max(1.0, required)) {
        std::ostringstream msg;
        msg << tag() << "non-preemptive duration mismatch: ran " << actual
            << ", needs " << required;
        violation(msg.str());
      }
      if (options.require_deadlines && job.has_deadline() &&
          rec.end > job.deadline + tol) {
        std::ostringstream msg;
        msg << tag() << "misses deadline " << job.deadline << " (ends "
            << rec.end << ")";
        violation(msg.str());
      }
    } else {  // kRejectedRunning
      if (std::abs(rec.rejection_time - rec.end) > tol) {
        violation(tag() + "interruption time disagrees with end time");
      }
      // An interrupted job must not have exceeded its full processing need
      // (otherwise it should have completed).
      const Work p = instance.processing(rec.machine, j);
      if (rec.end - rec.start > p / rec.speed + tol) {
        violation(tag() + "ran longer than its processing requirement");
      }
    }

    if (rec.end > rec.start) {
      busy[static_cast<std::size_t>(rec.machine)].push_back(
          Interval{rec.start, rec.end, j});
    }
  }

  // Machine capacity: at most one job at a time unless the model allows
  // parallel speed-added execution.
  if (!options.allow_parallel_execution) {
    for (std::size_t i = 0; i < busy.size(); ++i) {
      auto& intervals = busy[i];
      std::sort(intervals.begin(), intervals.end(),
                [](const Interval& a, const Interval& b) {
                  return a.begin < b.begin;
                });
      for (std::size_t k = 1; k < intervals.size(); ++k) {
        if (intervals[k].begin < intervals[k - 1].end - tol) {
          std::ostringstream msg;
          msg << "machine " << i << ": jobs " << intervals[k - 1].job << " and "
              << intervals[k].job << " overlap ([" << intervals[k - 1].begin
              << "," << intervals[k - 1].end << ") vs [" << intervals[k].begin
              << "," << intervals[k].end << "))";
          violation(msg.str());
        }
      }
    }
  }

  return violations;
}

void check_schedule(const Schedule& schedule, const Instance& instance,
                    const ValidationOptions& options) {
  const auto violations = validate_schedule(schedule, instance, options);
  OSCHED_CHECK(violations.empty())
      << violations.size() << " violations; first: " << violations.front();
}

}  // namespace osched
