// E18 — storage-backend memory scaling (registered scenario "e18_memory").
//
// The perf tier behind the pluggable processing-store refactor: the SAME
// closed-form workload (workload/generated_family.hpp) runs through the
// Theorem 1 scheduler under each storage backend, and the scenario verdict
// asserts the refactor's two contracts in-process:
//
//  1. Determinism: rejected / completed / total_flow are BIT-identical
//     between backends of the same workload — storage must be invisible to
//     scheduling.
//  2. Memory: the compact backends undercut the dense matrix by >= 4x in
//     measured store bytes (sparse at eligibility 1/16; generator at
//     m = 2048, whose store is the job records only).
//
// Memory is reported two ways: store_bytes (the instance's exact backend
// footprint — deterministic, diffed exactly by scripts/compare_bench.py)
// and peak_rss_mib, the case's own resident high-water mark: VmHWM is
// reset to the current RSS when the case starts (after freed heap is handed
// back), so the reading covers this case's build + run and nothing an
// earlier case left behind in the allocator. VmHWM is per process, so run
// with --jobs 1 to keep the readings per case.
//
// Tags: "perf" + "slow" like e16/e17; CI's perf-smoke job runs it at
// --scale 0.05 with the compare gate (peak_rss_* metrics take the
// --rss-tolerance band there).
#include <string>

#include "core/flow/rejection_flow.hpp"
#include "harness/registry.hpp"
#include "util/timer.hpp"
#include "workload/generated_family.hpp"

#if defined(__GLIBC__)
#include <malloc.h>
#endif
#if defined(__linux__)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#endif

namespace {

using namespace osched;
using harness::CaseSpec;
using harness::MetricRow;
using harness::Scenario;
using harness::ScenarioReport;
using harness::UnitContext;
using harness::Verdict;

/// Hands freed heap back to the OS and resets the process's VmHWM to its
/// current RSS ("5" to /proc/self/clear_refs), so case_peak_rss_mib()
/// reads the high-water mark of what runs in between. A no-op off Linux.
void reset_peak_rss() {
#if defined(__linux__)
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  if (std::FILE* refs = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", refs);
    std::fclose(refs);
  }
#endif
}

/// VmHWM in MiB: the peak RSS since the last reset_peak_rss() (0.0 where
/// unsupported).
double case_peak_rss_mib() {
  double mib = 0.0;
#if defined(__linux__)
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      mib = std::strtod(line + 6, nullptr) / 1024.0;  // kB
      break;
    }
  }
  std::fclose(status);
#endif
  return mib;
}

MetricRow run_e18_unit(const UnitContext& ctx) {
  const auto backend = static_cast<StorageBackend>(
      static_cast<int>(ctx.param("backend")));
  workload::ClosedFormConfig config;
  config.num_jobs = ctx.scaled(static_cast<std::size_t>(ctx.param("n")));
  config.num_machines = static_cast<std::size_t>(ctx.param("m"));
  config.eligibility = ctx.param_or("eligibility", 1.0);
  // SCENARIO seed, not the per-case unit seed: backend pairs must run the
  // SAME workload or the verdict's byte-equality would compare apples to
  // oranges (cells differ by (n, m, eligibility), which is in the config).
  config.seed = ctx.scenario_seed;

  reset_peak_rss();
  const Instance instance = workload::make_closed_form_instance(config, backend);

  util::Timer timer;
  const RejectionFlowResult result =
      run_rejection_flow(instance, {.epsilon = 0.25});
  const double seconds = timer.elapsed_seconds();

  MetricRow row;
  row.set("seconds", seconds);
  row.set("jobs_per_sec",
          seconds > 0.0 ? static_cast<double>(config.num_jobs) / seconds : 0.0);
  row.set("store_bytes", static_cast<double>(instance.store_bytes()));
  row.set("peak_rss_mib", case_peak_rss_mib());
  // Deterministic outputs: identical across runs, binaries, --jobs values
  // AND storage backends for one (seed, scale) — the cross-backend equality
  // is asserted in the verdict below.
  row.set("rejected", static_cast<double>(result.schedule.num_rejected()));
  row.set("completed", static_cast<double>(result.schedule.num_completed()));
  row.set("total_flow", result.schedule.total_flow(instance));
  return row;
}

Scenario make_e18() {
  Scenario scenario;
  scenario.name = "e18_memory";
  scenario.description =
      "storage-backend memory scaling: dense vs sparse-CSR vs generator on "
      "one closed-form workload, byte-identical outputs asserted";
  scenario.tags = {"perf", "storage", "slow"};
  scenario.repetitions = 1;
  const struct {
    const char* label;
    StorageBackend backend;
    double n;
    double m;
    double eligibility;
  } cells[] = {
      // The m=2048 sweep the dense backend cannot afford at full n:
      {"generator n=100000 m=2048", StorageBackend::kGenerator, 100000, 2048,
       1.0},
      // Backend-equality pairs (generator vs dense at reduced n; sparse vs
      // dense at eligibility 1/16):
      {"gendiff generator n=20000 m=2048", StorageBackend::kGenerator, 20000,
       2048, 1.0},
      {"sparse elig=1/16 n=100000 m=512", StorageBackend::kSparseCsr, 100000,
       512, 0.0625},
      {"gendiff dense n=20000 m=2048", StorageBackend::kDense, 20000, 2048,
       1.0},
      {"dense elig=1/16 n=100000 m=512", StorageBackend::kDense, 100000, 512,
       0.0625},
  };
  for (const auto& cell : cells) {
    scenario.grid.push_back(
        CaseSpec(cell.label)
            .with("backend", static_cast<double>(cell.backend))
            .with("n", cell.n)
            .with("m", cell.m)
            .with("eligibility", cell.eligibility));
  }
  scenario.run_unit = run_e18_unit;
  scenario.evaluate = [](const ScenarioReport& report) {
    // Contract 1: byte-identical deterministic outputs per backend pair.
    const struct {
      const char* compact;
      const char* dense;
    } pairs[] = {
        {"gendiff generator n=20000 m=2048", "gendiff dense n=20000 m=2048"},
        {"sparse elig=1/16 n=100000 m=512", "dense elig=1/16 n=100000 m=512"},
    };
    for (const auto& pair : pairs) {
      const auto& compact = report.case_result(pair.compact);
      const auto& dense = report.case_result(pair.dense);
      for (const char* metric : {"rejected", "completed", "total_flow"}) {
        const double a = compact.metric(metric).mean();
        const double b = dense.metric(metric).mean();
        if (a != b) {
          return Verdict{false, std::string("backend mismatch on ") + metric +
                                    " (" + pair.compact + " vs " + pair.dense +
                                    "): " + std::to_string(a) + " vs " +
                                    std::to_string(b)};
        }
      }
      // Contract 2: the compact backend stores >= 4x less than the dense
      // matrix of the same workload (store_bytes is exact, not sampled).
      const double compact_bytes = compact.metric("store_bytes").mean();
      const double dense_bytes = dense.metric("store_bytes").mean();
      if (!(compact_bytes * 4.0 <= dense_bytes)) {
        return Verdict{false, std::string(pair.compact) +
                                  " stores " + std::to_string(compact_bytes) +
                                  " bytes, not >= 4x under dense's " +
                                  std::to_string(dense_bytes)};
      }
      // Per-case peak RSS cross-check, asserted only when the dense twin's
      // peak is big enough (>= 64 MiB) for the process's own footprint to
      // wash out — reduced-scale CI runs stay informational.
      const double compact_rss = compact.metric("peak_rss_mib").mean();
      const double dense_rss = dense.metric("peak_rss_mib").mean();
      if (dense_rss >= 64.0 && !(compact_rss * 4.0 <= dense_rss)) {
        return Verdict{false, std::string(pair.compact) + " peak RSS " +
                                  std::to_string(compact_rss) +
                                  " MiB, not >= 4x under dense's " +
                                  std::to_string(dense_rss) + " MiB"};
      }
    }
    return Verdict{true,
                   "backends byte-identical; sparse and generator stores >= "
                   "4x under dense"};
  };
  return scenario;
}

OSCHED_REGISTER_SCENARIO(make_e18);

}  // namespace
