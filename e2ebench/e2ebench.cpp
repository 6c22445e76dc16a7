// e2ebench — end-to-end benchmark of the scheduler library, input to
// decisions, through its public entry points only.
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--scale <f>] [--plant-mismatch] [--commit <sha>]
//            [--workdir <dir>]
//
// One process runs one workload (README.md beside this file names them and
// every metric). The run
//   1. generates the workload's inputs from --seed several times and reports
//      the median as setup_s (set-up is untimed for every other metric);
//   2. repeats the workload's timed region until --seconds have passed —
//      untraced with --trace 0; alternating untraced and traced repetitions
//      with --trace 1, where spans around each public call give the
//      per-layer numbers and the untraced-minus-traced throughput gap.
//      Timings are best-of-repetitions (see best_of below);
//   3. checks every repetition's decisions against an independent reference
//      computed outside the timed region, counting mismatches as failures.
// It prints an attribution header, one `metric <name> <value> <unit>` line
// per metric, and as its last line one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// The exit code is 0 iff every check passed.
#include <malloc.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "api/scheduler_api.hpp"
#include "core/flow/rejection_flow.hpp"
#include "metrics/metrics.hpp"
#include "service/scheduler_session.hpp"
#include "service/shard_driver.hpp"
#include "sim/validator.hpp"
#include "util/rng.hpp"
#include "util/simd_argmin.hpp"
#include "workload/generated_family.hpp"
#include "workload/trace_io.hpp"

namespace {

using namespace osched;
using Clock = std::chrono::steady_clock;

constexpr double kEpsilon = 0.2;
constexpr int kSetupRepeats = 5;

/// CPUs this process may run on, as `nproc` counts them.
std::size_t nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// The best repetition's figure: the smallest of `values` when `lower` is
/// better, else the largest. Interference from the rest of a shared host (a
/// neighbour on the same physical core, stolen CPU time) only ever slows a
/// repetition, and it comes and goes, so the fastest of many short
/// repetitions tracks the code while the median tracks the neighbours.
double best_of(const std::vector<double>& values, bool lower) {
  if (values.empty()) return 0.0;
  return lower ? *std::min_element(values.begin(), values.end())
               : *std::max_element(values.begin(), values.end());
}

/// Pins the calling thread to each CPU of its affinity mask in turn, one
/// CPU per next() call, and restores the whole mask when destroyed. On a
/// shared host each CPU's neighbour load comes and goes on its own, often
/// for tens of seconds at a time, so a single-threaded workload that the
/// kernel keeps on one loaded CPU would see nothing else; rotating lets
/// best_of() find the CPU that is free at the time.
class CpuRotation {
 public:
  CpuRotation() {
    if (sched_getaffinity(0, sizeof(all_), &all_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &all_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(all_), &all_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t all_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// Nearest-rank percentile (q in (0, 1]).
double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

// ------------------------------------------------------------ peak memory

/// Returns freed heap to the OS and resets VmHWM to the current RSS, so the
/// next read_peak_rss_mib() covers only what runs in between.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double read_peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------- tracing

/// In-memory span recorder for the traced repetitions. A span is opened
/// around one public call from this file; spans nest through a stack, so
/// each records the span that caused it. Untraced repetitions pass a null
/// Tracer and Span does nothing.
class Tracer {
 public:
  struct Record {
    const char* name;
    std::int64_t parent;  ///< index of the enclosing span, -1 for a root
    Clock::time_point start;
    Clock::time_point end;
  };

  class Span {
   public:
    Span(Tracer* tracer, const char* name) : tracer_(tracer) {
      if (tracer_ == nullptr) return;
      index_ = tracer_->records_.size();
      const std::int64_t parent =
          tracer_->open_.empty() ? -1
                                 : static_cast<std::int64_t>(tracer_->open_.back());
      tracer_->records_.push_back({name, parent, Clock::now(), {}});
      tracer_->open_.push_back(index_);
    }
    ~Span() {
      if (tracer_ == nullptr) return;
      tracer_->records_[index_].end = Clock::now();
      tracer_->open_.pop_back();
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    std::size_t index_ = 0;
  };

  std::size_t size() const { return records_.size(); }

  /// Seconds per span name over records [first, size()).
  std::map<std::string, double> totals_since(std::size_t first) const {
    std::map<std::string, double> totals;
    for (std::size_t k = first; k < records_.size(); ++k) {
      const Record& r = records_[k];
      totals[r.name] += std::chrono::duration<double>(r.end - r.start).count();
    }
    return totals;
  }

  /// One CSV row per span: id, parent id, name, start and end in ns from the
  /// first span.
  bool write_csv(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "id,parent,name,start_ns,end_ns\n";
    const Clock::time_point origin =
        records_.empty() ? Clock::time_point{} : records_.front().start;
    for (std::size_t k = 0; k < records_.size(); ++k) {
      const Record& r = records_[k];
      using std::chrono::nanoseconds;
      out << k << ',' << r.parent << ',' << r.name << ','
          << std::chrono::duration_cast<nanoseconds>(r.start - origin).count()
          << ','
          << std::chrono::duration_cast<nanoseconds>(r.end - origin).count()
          << '\n';
    }
    return static_cast<bool>(out);
  }

 private:
  std::vector<Record> records_;
  std::vector<std::size_t> open_;
};

using Span = Tracer::Span;

// ------------------------------------------------------ results and checks

/// The deterministic outcome of one schedule: what the output checks
/// compare, bit for bit, against the reference.
struct Totals {
  std::size_t completed = 0;
  std::size_t rejected = 0;
  double total_flow = 0.0;
  double lower_bound = 0.0;
  std::size_t rule1 = 0;
  std::size_t rule2 = 0;

  bool operator==(const Totals&) const = default;
};

Totals totals_of(const api::RunSummary& summary) {
  return {summary.report.num_completed, summary.report.num_rejected,
          summary.report.total_flow,    summary.certified_lower_bound,
          summary.rule1_rejections,     summary.rule2_rejections};
}

/// One timed repetition.
struct Rep {
  std::size_t jobs = 0;
  double wall_s = 0.0;
  double peak_rss_mib = 0.0;
  std::vector<double> round_ms;
  double failover_s = 0.0;
  std::vector<Totals> totals;  ///< per tenant (one entry off the fleet)
  std::size_t attempted = 0;   ///< submits and restores tried
  std::size_t failed = 0;      ///< submits refused, restores failed
  bool dispatch_index_active = false;
  /// Per-layer values this repetition measured besides span times.
  std::map<std::string, double> layers;
};

/// A workload: inputs made by setup(), one timed region per rep(), and the
/// reference its outputs are checked against.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Generates the inputs from the seed (the only source of randomness).
  virtual void setup() = 0;
  /// Runs the timed region once; `tracer` is null on untraced repetitions.
  virtual Rep rep(Tracer* tracer) = 0;
  /// The reference totals, computed outside any timed region.
  virtual std::vector<Totals> reference() = 0;
  virtual const char* loop_kind() const = 0;
  /// Whether rep() runs on the calling thread alone, so that it may be
  /// pinned to one CPU per repetition (see CpuRotation).
  virtual bool single_threaded() const { return true; }
};

// ------------------------------------------------------- batch_dense_m256

/// Closed-form dense family at m = 256: the public Instance constructor,
/// then api::run(kTheorem1) with validation. Reference: the unpruned
/// linear-scan dispatch of the same policy.
class BatchDense final : public Workload {
 public:
  BatchDense(std::uint64_t seed, double scale) {
    config_.num_jobs = std::max<std::size_t>(64, std::llround(40000 * scale));
    config_.num_machines = 256;
    config_.seed = seed;
    config_.load = 1.1;
  }

  const char* loop_kind() const override {
    return "batch: throughput at a stated n, one whole batch per round";
  }

  void setup() override {
    // The generator backend materializes no matrix; its closed form fills
    // the machine-major input the dense constructor takes.
    const Instance family =
        workload::make_closed_form_instance(config_, StorageBackend::kGenerator);
    const std::size_t n = family.num_jobs();
    const std::size_t m = family.num_machines();
    jobs_.resize(n);
    rows_.assign(m, std::vector<Work>(n));
    std::vector<Work> row(m);
    for (std::size_t j = 0; j < n; ++j) {
      jobs_[j] = family.job(static_cast<JobId>(j));
      family.generator().fill_row(static_cast<JobId>(j), m, row.data());
      for (std::size_t i = 0; i < m; ++i) rows_[i][j] = row[i];
    }
  }

  Rep rep(Tracer* tracer) override {
    std::vector<Job> jobs = jobs_;
    std::vector<std::vector<Work>> rows = rows_;
    Rep out;
    out.jobs = jobs.size();
    out.attempted = jobs.size();
    reset_peak_rss();
    const auto start = Clock::now();
    std::optional<Instance> instance;
    {
      Span span(tracer, "instance.build");
      instance.emplace(std::move(jobs), std::move(rows));
    }
    api::RunSummary summary;
    const api::RunOptions options{.epsilon = kEpsilon, .validate = true};
    if (tracer == nullptr) {
      summary = api::run(api::Algorithm::kTheorem1, *instance, options);
    } else {
      // The traced stand-in for api::run: the same three steps it takes for
      // kTheorem1, each under its own span.
      RejectionFlowResult result;
      {
        Span span(tracer, "core.flow");
        result = run_rejection_flow(*instance, {.epsilon = options.epsilon});
      }
      summary.schedule = result.schedule;
      summary.certified_lower_bound = result.opt_lower_bound;
      summary.rule1_rejections = result.rule1_rejections;
      summary.rule2_rejections = result.rule2_rejections;
      summary.dispatch_index_active = instance->dispatch_index_active();
      {
        Span span(tracer, "sim.validate");
        check_schedule(summary.schedule, *instance);
      }
      Span span(tracer, "metrics.evaluate");
      summary.report = evaluate(summary.schedule, *instance);
    }
    out.wall_s = seconds_since(start);
    out.peak_rss_mib = read_peak_rss_mib();
    out.round_ms.push_back(out.wall_s * 1e3);
    // No checkpoint exists for a batch: recovering its decisions is a replay.
    out.failover_s = out.wall_s;
    out.totals.push_back(totals_of(summary));
    out.dispatch_index_active = summary.dispatch_index_active;
    out.layers["instance.store_bytes"] =
        static_cast<double>(instance->store_bytes());
    return out;
  }

  std::vector<Totals> reference() override {
    const Instance instance(jobs_, rows_);
    const RejectionFlowResult result = run_rejection_flow(
        instance,
        {.epsilon = kEpsilon, .dispatch = DispatchMode::kLinearScan});
    if (const auto violations = validate_schedule(result.schedule, instance);
        !violations.empty()) {
      std::fprintf(stderr, "reference schedule invalid: %s\n",
                   violations.front().c_str());
      std::exit(1);
    }
    const ObjectiveReport report = evaluate(result.schedule, instance);
    return {{report.num_completed, report.num_rejected, report.total_flow,
             result.opt_lower_bound, result.rule1_rejections,
             result.rule2_rejections}};
  }

 private:
  workload::ClosedFormConfig config_;
  std::vector<Job> jobs_;
  std::vector<std::vector<Work>> rows_;
};

// ------------------------------------------------------- trace_lowmem_m16

/// Dense CSV trace at m = 16, written during setup, read in chunks through
/// TraceStreamReader into one low-memory SchedulerSession. Reference:
/// api::run on the same jobs.
class TraceLowmem final : public Workload {
 public:
  TraceLowmem(std::uint64_t seed, double scale, std::string path)
      : path_(std::move(path)) {
    config_.num_jobs = std::max<std::size_t>(64, std::llround(20000 * scale));
    config_.num_machines = 16;
    config_.seed = seed;
    config_.load = 1.1;
  }
  ~TraceLowmem() override { std::remove(path_.c_str()); }

  const char* loop_kind() const override {
    return "batch: throughput at a stated n, one trace chunk per round";
  }

  void setup() override {
    const Instance family =
        workload::make_closed_form_instance(config_, StorageBackend::kGenerator);
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    workload::TraceStreamWriter writer(out, family.num_machines());
    StreamJob job;
    for (std::size_t j = 0; j < family.num_jobs(); ++j) {
      fill_stream_job(family, static_cast<JobId>(j), 0.0, &job);
      writer.write_job(job);
    }
    out.close();
    if (!out) {
      std::fprintf(stderr, "cannot write trace %s\n", path_.c_str());
      std::exit(1);
    }
    trace_bytes_ = static_cast<double>(std::ifstream(path_, std::ios::ate |
                                                                std::ios::binary)
                                           .tellg());
  }

  Rep rep(Tracer* tracer) override {
    service::SessionOptions options;
    options.run.epsilon = kEpsilon;
    options.run.validate = false;  // low-memory mode retains no schedule
    options.retain_records = false;
    Rep out;
    reset_peak_rss();
    const auto start = Clock::now();
    std::ifstream in(path_, std::ios::binary);
    workload::TraceStreamReader reader(in);
    if (!reader.ok()) {
      std::fprintf(stderr, "trace header: %s\n", reader.error().c_str());
      std::exit(1);
    }
    service::SchedulerSession session(api::Algorithm::kTheorem1,
                                      reader.num_machines(), options);
    std::vector<StreamJob> chunk;
    for (;;) {
      const auto round_start = Clock::now();
      {
        Span span(tracer, "workload.parse");
        if (reader.next_chunk(kChunk, chunk) == 0) break;
      }
      {
        Span span(tracer, "service.submit");
        session.submit(std::span<const StreamJob>(chunk));
      }
      {
        Span span(tracer, "service.advance");
        session.advance(chunk.back().release);
      }
      out.round_ms.push_back(seconds_since(round_start) * 1e3);
    }
    if (!reader.ok()) {
      std::fprintf(stderr, "trace: %s\n", reader.error().c_str());
      std::exit(1);
    }
    out.layers["service.max_live_jobs"] =
        static_cast<double>(session.max_live_jobs());
    out.layers["service.matrix_peak_bytes"] =
        static_cast<double>(session.matrix_peak_bytes());
    api::RunSummary summary;
    {
      Span span(tracer, "service.drain");
      summary = session.drain();
    }
    out.wall_s = seconds_since(start);
    out.peak_rss_mib = read_peak_rss_mib();
    // A low-memory session keeps no checkpoint: recovery replays the trace.
    out.failover_s = out.wall_s;
    out.jobs = reader.rows_read();
    out.attempted = out.jobs;
    out.totals.push_back(totals_of(summary));
    out.dispatch_index_active = summary.dispatch_index_active;
    out.layers["workload.parse_bytes"] = trace_bytes_;
    return out;
  }

  std::vector<Totals> reference() override {
    const Instance instance =
        workload::make_closed_form_instance(config_, StorageBackend::kDense);
    return {totals_of(api::run(api::Algorithm::kTheorem1, instance,
                               {.epsilon = kEpsilon, .validate = true}))};
  }

 private:
  static constexpr std::size_t kChunk = 1024;
  workload::ClosedFormConfig config_;
  std::string path_;
  double trace_bytes_ = 0.0;
};

// -------------------------------------------------- fleet_sparse_failover

/// A restricted-assignment job stream drawn directly in sparse form: each
/// job's kEligible distinct machines of kMachines are hash draws of
/// (seed, tenant, j), so a job costs O(k) to generate — never O(m).
class SparseStream {
 public:
  static constexpr std::size_t kMachines = 4096;
  static constexpr std::size_t kEligible = 8;

  explicit SparseStream(std::uint64_t seed) : seed_(seed) {}

  /// Fills job j of `tenant` (payload and release; releases follow a
  /// per-tenant exponential arrival process drawn from `rng`).
  void next(std::uint64_t tenant, std::uint64_t j, util::Rng& rng, Time* clock,
            StreamJob* out) const {
    *clock += rng.exponential(kRate);
    out->release = *clock;
    out->weight = 1.0;
    out->deadline = kTimeInfinity;
    MachineId ids[kEligible];
    for (std::size_t s = 0; s < kEligible; ++s) {
      auto id = static_cast<MachineId>(hash(tenant, j, s) % kMachines);
      // Linear probe past machines already drawn for this job.
      while (std::find(ids, ids + s, id) != ids + s) {
        id = static_cast<MachineId>((id + 1) % kMachines);
      }
      ids[s] = id;
    }
    std::sort(ids, ids + kEligible);
    const double base =
        kMinSize * std::pow(1.0 - u01(hash(tenant, j, kEligible)),
                            -1.0 / kParetoShape);
    out->processing.clear();
    out->entries.clear();
    for (std::size_t s = 0; s < kEligible; ++s) {
      const double u = u01(hash(tenant, j, kEligible + 1 + ids[s]));
      out->entries.push_back(
          {ids[s], base * std::exp(kLnSpread * (2.0 * u - 1.0))});
    }
  }

 private:
  static constexpr double kMinSize = 0.5;
  static constexpr double kParetoShape = 1.8;
  static constexpr double kLnSpread = 1.3862943611198906;  // ln 4
  /// Arrivals per unit time: the whole fleet of machines at about load 1
  /// for the mean Pareto size (0.5 * 1.8 / 0.8).
  static constexpr double kRate = 1.0 * kMachines / 1.125;

  static std::uint64_t mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }
  static double u01(std::uint64_t h) {
    return static_cast<double>(h >> 11) * 0x1.0p-53;
  }
  std::uint64_t hash(std::uint64_t tenant, std::uint64_t j,
                     std::uint64_t slot) const {
    return mix(seed_ ^ (tenant * 0xd6e8feb86659fd93ULL) ^
               (j * 0x9e3779b97f4a7c15ULL) ^ (slot * 0xc2b2ae3d27d4eb4fULL));
  }

  std::uint64_t seed_;
};

/// Closed loop: one feeding thread drives a ShardDriver of kTenants sparse
/// retain-mode tenants round by round (stage every tenant's next kWave jobs,
/// then pump()); at the midpoint it checkpoints, restores and continues on
/// the restored driver, then drain_all()s with validation. Reference: the
/// uninterrupted twin of the same feed.
class FleetFailover final : public Workload {
 public:
  FleetFailover(std::uint64_t seed, double scale) : seed_(seed) {
    per_tenant_ = std::max<std::size_t>(
        kWave * 4, std::llround(25000 * scale) / kWave * kWave);
    workers_ = std::max<std::size_t>(1, nproc() - 1);
  }

  const char* loop_kind() const override {
    return "closed loop: 1 feeding thread, next round after pump() returns";
  }
  bool single_threaded() const override { return false; }

  void setup() override {
    const SparseStream stream(seed_);
    jobs_.assign(kTenants, std::vector<StreamJob>(per_tenant_));
    for (std::size_t t = 0; t < kTenants; ++t) {
      util::Rng rng(util::derive_seed(seed_, t));
      Time clock = 0.0;
      for (std::size_t j = 0; j < per_tenant_; ++j) {
        stream.next(t, j, rng, &clock, &jobs_[t][j]);
      }
    }
  }

  Rep rep(Tracer* tracer) override { return run(tracer, /*failover=*/true); }

  std::vector<Totals> reference() override {
    return run(nullptr, /*failover=*/false).totals;
  }

 private:
  static constexpr std::size_t kTenants = 8;
  static constexpr std::size_t kWave = 64;

  Rep run(Tracer* tracer, bool failover) {
    service::ShardDriverOptions options;
    options.threads = workers_;
    options.session.run.epsilon = kEpsilon;
    options.session.run.validate = true;
    options.session.storage = StorageBackend::kSparseCsr;
    const std::size_t rounds = per_tenant_ / kWave;
    Rep out;
    out.jobs = kTenants * per_tenant_;
    reset_peak_rss();
    const auto start = Clock::now();
    auto driver = std::make_unique<service::ShardDriver>(
        api::Algorithm::kTheorem1, kTenants, SparseStream::kMachines, options);
    for (std::size_t r = 0; r < rounds; ++r) {
      if (failover && r == rounds / 2) fail_over(tracer, driver, out);
      const auto round_start = Clock::now();
      {
        Span span(tracer, "shard.stage");
        for (std::size_t t = 0; t < kTenants; ++t) {
          const StreamJob* wave = jobs_[t].data() + r * kWave;
          for (std::size_t k = 0; k < kWave; ++k) {
            ++out.attempted;
            if (!service::stage_ok(driver->try_submit(t, wave[k]))) {
              ++out.failed;
            }
          }
          driver->advance(t, wave[kWave - 1].release);
        }
      }
      {
        Span span(tracer, "shard.pump");
        driver->pump();
      }
      out.round_ms.push_back(seconds_since(round_start) * 1e3);
    }
    double matrix_peak = 0.0;
    double max_live = 0.0;
    for (std::size_t t = 0; t < kTenants; ++t) {
      matrix_peak += static_cast<double>(driver->session(t).matrix_peak_bytes());
      max_live = std::max(
          max_live, static_cast<double>(driver->session(t).max_live_jobs()));
    }
    std::vector<api::RunSummary> summaries;
    {
      Span span(tracer, "shard.drain");
      summaries = driver->drain_all();
    }
    out.wall_s = seconds_since(start);
    out.peak_rss_mib = read_peak_rss_mib();
    for (const api::RunSummary& summary : summaries) {
      out.totals.push_back(totals_of(summary));
    }
    out.dispatch_index_active = summaries.front().dispatch_index_active;
    out.layers["service.matrix_peak_bytes"] = matrix_peak;
    out.layers["service.max_live_jobs"] = max_live;
    return out;
  }

  /// checkpoint() + restore() on the live fleet; the restored driver
  /// replaces the original, which a failed restore leaves in service.
  void fail_over(Tracer* tracer, std::unique_ptr<service::ShardDriver>& driver,
                 Rep& out) {
    const auto start = Clock::now();
    std::string blob;
    {
      Span span(tracer, "shard.checkpoint");
      blob = driver->checkpoint();
    }
    std::string error;
    std::unique_ptr<service::ShardDriver> restored;
    {
      Span span(tracer, "shard.restore");
      restored = service::ShardDriver::restore(blob, workers_, &error);
    }
    out.failover_s = seconds_since(start);
    out.layers["shard.checkpoint_bytes"] = static_cast<double>(blob.size());
    ++out.attempted;
    if (restored == nullptr) {
      std::fprintf(stderr, "restore failed: %s\n", error.c_str());
      ++out.failed;
      return;
    }
    driver = std::move(restored);
  }

  std::uint64_t seed_;
  std::size_t per_tenant_ = 0;
  std::size_t workers_ = 1;
  std::vector<std::vector<StreamJob>> jobs_;  ///< [tenant][job]
};

// ------------------------------------------------------------ the run

/// Every per-layer metric the traced run reports, with its unit. A layer
/// that the workload's path does not cross reads 0.
const std::vector<std::pair<std::string, std::string>> kLayerMetrics = {
    {"instance.build_s", "s"},
    {"instance.store_bytes", "bytes"},
    {"core.flow_s", "s"},
    {"core.rule1_rejections", "count"},
    {"core.rule2_rejections", "count"},
    {"sim.validate_s", "s"},
    {"metrics.evaluate_s", "s"},
    {"workload.parse_s", "s"},
    {"workload.parse_mb_per_s", "MB/s"},
    {"service.submit_s", "s"},
    {"service.advance_s", "s"},
    {"service.drain_s", "s"},
    {"service.max_live_jobs", "count"},
    {"service.matrix_peak_bytes", "bytes"},
    {"shard.stage_s", "s"},
    {"shard.pump_s", "s"},
    {"shard.checkpoint_s", "s"},
    {"shard.restore_s", "s"},
    {"shard.checkpoint_bytes", "bytes"},
    {"shard.drain_s", "s"},
    {"trace.jobs_per_s", "1/s"},
    {"trace.overhead_jobs_per_s", "1/s"},
    {"round_p99_ms", "ms"},
    {"bench.rounds", "count"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double scale = 1.0;
  bool plant_mismatch = false;
  std::string commit = "unknown";
  std::string workdir = ".";
};

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload "
               "<batch_dense_m256|trace_lowmem_m16|fleet_sparse_failover> "
               "--seed <n> --seconds <s> --trace <0|1> [--scale <f>] "
               "[--plant-mismatch] [--commit <sha>] [--workdir <dir>]\n",
               message);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int k = 1; k < argc; ++k) {
    const std::string flag = argv[k];
    if (flag == "--plant-mismatch") {
      args.plant_mismatch = true;
      continue;
    }
    if (k + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++k];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--scale") {
      args.scale = std::stod(value);
    } else if (flag == "--commit") {
      args.commit = value;
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.seconds <= 0.0 || args.scale <= 0.0) usage("bad --seconds/--scale");
  return args;
}

std::unique_ptr<Workload> make_workload(const Args& args) {
  if (args.workload == "batch_dense_m256") {
    return std::make_unique<BatchDense>(args.seed, args.scale);
  }
  if (args.workload == "trace_lowmem_m16") {
    return std::make_unique<TraceLowmem>(
        args.seed, args.scale,
        args.workdir + "/trace-" + std::to_string(args.seed) + "-" +
            std::to_string(::getpid()) + ".csv");
  }
  if (args.workload == "fleet_sparse_failover") {
    return std::make_unique<FleetFailover>(args.seed, args.scale);
  }
  usage(("unknown workload " + args.workload).c_str());
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  std::unique_ptr<Workload> workload = make_workload(args);

  std::vector<double> setup_s;
  for (int k = 0; k < kSetupRepeats; ++k) {
    const auto start = Clock::now();
    workload->setup();
    setup_s.push_back(seconds_since(start));
  }

  // Alternate untraced and traced repetitions under --trace 1, so drift in
  // the machine's speed hits both halves alike.
  Tracer tracer;
  std::vector<Rep> untraced;
  std::vector<Rep> traced;
  std::vector<std::map<std::string, double>> traced_spans;
  std::optional<CpuRotation> rotation;
  if (workload->single_threaded()) rotation.emplace();
  const auto measure_start = Clock::now();
  while (untraced.empty() || (args.trace && traced.empty()) ||
         seconds_since(measure_start) < args.seconds) {
    const bool use_trace = args.trace && traced.size() < untraced.size();
    // A traced repetition runs on its untraced twin's CPU.
    if (rotation && !use_trace) rotation->next();
    if (!use_trace) {
      untraced.push_back(workload->rep(nullptr));
      continue;
    }
    const std::size_t first = tracer.size();
    {
      Span root(&tracer, "rep");
      traced.push_back(workload->rep(&tracer));
    }
    traced_spans.push_back(tracer.totals_since(first));
  }
  rotation.reset();

  // Output checks, outside every timed region.
  std::vector<Totals> reference = workload->reference();
  if (args.plant_mismatch) reference.front().rejected += 1;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t mismatches = 0;
  std::vector<Rep*> all;
  for (Rep& rep : untraced) all.push_back(&rep);
  for (Rep& rep : traced) all.push_back(&rep);
  for (const Rep* rep : all) {
    attempted += rep->attempted + 1;
    failed += rep->failed;
    if (rep->totals != reference) {
      ++failed;
      ++mismatches;
    }
  }
  // Theorem 1's rejection budget: at most a 2*eps share of the jobs.
  std::size_t rejected = 0;
  double flow = 0.0;
  double lower_bound = 0.0;
  for (const Totals& t : reference) {
    rejected += t.rejected;
    flow += t.total_flow;
    lower_bound += t.lower_bound;
  }
  const double jobs = static_cast<double>(all.front()->jobs);
  const double reject_frac = static_cast<double>(rejected) / jobs;
  ++attempted;
  if (reject_frac > 2.0 * kEpsilon || !(lower_bound > 0.0)) ++failed;
  const bool correct = failed == 0;

  // End-to-end metrics from the untraced repetitions: timings from the best
  // repetition, memory as the median.
  std::vector<double> jobs_per_s;
  std::vector<double> rss;
  std::vector<double> failover;
  std::vector<double> round_p50;
  std::vector<double> rounds;
  for (const Rep& rep : untraced) {
    jobs_per_s.push_back(static_cast<double>(rep.jobs) / rep.wall_s);
    rss.push_back(rep.peak_rss_mib);
    failover.push_back(rep.failover_s);
    round_p50.push_back(percentile(rep.round_ms, 0.50));
    rounds.insert(rounds.end(), rep.round_ms.begin(), rep.round_ms.end());
  }
  std::vector<std::tuple<std::string, double, std::string>> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", median(setup_s), "s"},
        {"jobs_per_s", best_of(jobs_per_s, false), "1/s"},
        {"peak_rss_mib", median(rss), "MiB"},
        {"flow_ratio", flow / lower_bound, "ratio"},
        {"reject_frac", reject_frac, "ratio"},
        {"round_p50_ms", best_of(round_p50, true), "ms"},
        {"failover_s", best_of(failover, true), "s"},
    };
  } else {
    std::map<std::string, std::vector<double>> samples;
    std::vector<double> traced_jobs_per_s;
    for (std::size_t k = 0; k < traced.size(); ++k) {
      const Rep& rep = traced[k];
      traced_jobs_per_s.push_back(static_cast<double>(rep.jobs) / rep.wall_s);
      std::map<std::string, double> values = rep.layers;
      for (const auto& [name, seconds] : traced_spans[k]) {
        if (name != "rep") values[name + "_s"] = seconds;
      }
      for (const Totals& tenant : rep.totals) {
        values["core.rule1_rejections"] += static_cast<double>(tenant.rule1);
        values["core.rule2_rejections"] += static_cast<double>(tenant.rule2);
      }
      if (values.count("workload.parse_s") != 0) {
        values["workload.parse_mb_per_s"] =
            values["workload.parse_bytes"] / 1e6 / values["workload.parse_s"];
      }
      for (const auto& [name, value] : values) samples[name].push_back(value);
    }
    const double traced_rate = best_of(traced_jobs_per_s, false);
    samples["trace.jobs_per_s"] = {traced_rate};
    samples["trace.overhead_jobs_per_s"] = {best_of(jobs_per_s, false) -
                                            traced_rate};
    // Too sensitive to host stalls to gate on, so it is reported here.
    samples["round_p99_ms"] = {percentile(rounds, 0.99)};
    samples["bench.rounds"] = {static_cast<double>(rounds.size())};
    for (const auto& [name, unit] : kLayerMetrics) {
      const auto it = samples.find(name);
      metrics.emplace_back(name, it == samples.end() ? 0.0 : median(it->second),
                           unit);
    }
    const std::string path = args.workdir + "/spans-" + args.workload + "-" +
                             std::to_string(args.seed) + ".csv";
    if (!tracer.write_csv(path)) {
      std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
    }
    std::printf("# spans: %s (%zu spans)\n", path.c_str(), tracer.size());
  }

  std::printf("# workload: %s  seed: %llu  trace: %d  scale: %g\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
              args.scale);
  std::printf("# loop: %s\n", workload->loop_kind());
  std::printf("# jobs per repetition: %.0f  repetitions: %zu untraced, %zu "
              "traced  rounds: %zu\n",
              jobs, untraced.size(), traced.size(), rounds.size());
  std::printf("# cpu_model: %s\n", cpu_model().c_str());
  std::printf("# nproc: %zu\n", nproc());
  std::printf("# simd_tier: %s\n", util::to_string(util::active_simd_tier()));
  std::printf("# dispatch_index_active: %s\n",
              all.front()->dispatch_index_active ? "true" : "false");
  std::printf("# build_type: %s\n", E2EBENCH_BUILD_TYPE);
  std::printf("# commit: %s\n", args.commit.c_str());
  std::printf("# check: %zu output mismatches, failed_frac %.6g (%zu of %zu)\n",
              mismatches, static_cast<double>(failed) /
                              static_cast<double>(attempted),
              failed, attempted);
  for (auto& [name, value, unit] : metrics) {
    if (!std::isfinite(value)) value = 0.0;  // only after a failed check
    std::printf("metric %s %.17g %s\n", name.c_str(), value, unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t k = 0; k < metrics.size(); ++k) {
    const auto& [name, value, unit] = metrics[k];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                k == 0 ? "" : ", ", name.c_str(), value, unit.c_str());
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}
