// Property tests for the trace (instance CSV) round trip.
//
// The contract: instance_to_csv -> instance_from_csv reproduces every field
// BIT-exactly under %.17g — including "inf" eligibility holes, absent
// deadlines, and extreme magnitudes down to denormals — and a second
// serialization is byte-identical text (serialize/parse is a closed loop).
// The chunked TraceStreamReader must parse the same trace to the same jobs
// as the whole-file path, for any chunk size. Malformed input must come
// back as a message, never an abort.
//
// The reader equivalence wall holds TraceStreamReader to the reference
// algorithm it replaced (getline + util::parse_csv + strtod) bit for bit,
// error text and row number included, over random traces full of edge
// spellings; the writer must emit the bytes of printf's %.17g.
//
// Seed rotation: OSCHED_FUZZ_SEED (decimal env var), logged for repro.
#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "fuzz_seed.hpp"
#include "util/csv.hpp"
#include "workload/generators.hpp"
#include "workload/trace_io.hpp"

namespace osched::workload {
namespace {

std::uint64_t base_seed() {
  return testing::fuzz_base_seed("trace_roundtrip_test", 11);
}

void expect_bit_identical(const Instance& a, const Instance& b) {
  ASSERT_EQ(a.num_jobs(), b.num_jobs());
  ASSERT_EQ(a.num_machines(), b.num_machines());
  for (std::size_t idx = 0; idx < a.num_jobs(); ++idx) {
    const auto j = static_cast<JobId>(idx);
    EXPECT_EQ(a.job(j).release, b.job(j).release) << "job " << j;
    EXPECT_EQ(a.job(j).weight, b.job(j).weight) << "job " << j;
    EXPECT_EQ(a.job(j).deadline, b.job(j).deadline) << "job " << j;
    for (std::size_t i = 0; i < a.num_machines(); ++i) {
      const auto machine = static_cast<MachineId>(i);
      EXPECT_EQ(a.processing(machine, j), b.processing(machine, j))
          << "p[" << i << "][" << j << "]";
    }
  }
}

TEST(TraceRoundTrip, RandomInstancesSurviveExactly) {
  for (std::uint64_t s = 0; s < 6; ++s) {
    WorkloadConfig config;
    config.num_jobs = 120;
    config.num_machines = 1 + s % 4;
    config.seed = base_seed() + s;
    config.load = 1.0;
    config.sizes.dist = s % 2 == 0 ? SizeDistribution::kPareto
                                   : SizeDistribution::kLognormal;
    config.weights = s % 3 == 0 ? WeightDistribution::kUniform
                                : WeightDistribution::kUnit;
    // Half the instances carry inf eligibility holes; a third carry
    // deadlines (absent deadlines serialize as "inf" and must come back).
    if (s % 2 == 1) {
      config.machines.model = MachineModel::kRestricted;
      config.machines.eligibility = 0.5;
    }
    config.with_deadlines = s % 3 == 1;
    const Instance original = generate_workload(config);

    const std::string text = instance_to_csv(original);
    std::string error;
    const auto reloaded = instance_from_csv(text, &error);
    ASSERT_TRUE(reloaded.has_value()) << error;
    expect_bit_identical(original, *reloaded);
    // Closed loop: re-serialization is byte-identical text.
    EXPECT_EQ(instance_to_csv(*reloaded), text) << "seed " << s;
  }
}

TEST(TraceRoundTrip, ExtremeMagnitudesSurviveExactly) {
  // Values chosen to stress %.17g: repeating binary fractions, adjacent
  // representables, denormals, near-overflow magnitudes, and infinities.
  const double tiny = 5e-324;          // smallest positive denormal
  const double next = std::nextafter(1.0, 2.0);
  std::vector<Job> jobs(4);
  jobs[0] = Job{0, 0.0, 1.0 / 3.0, kTimeInfinity};
  jobs[1] = Job{1, 1e-17, next, 1e-17 + 1e300};
  jobs[2] = Job{2, 1.0e300, 1e-300, kTimeInfinity};
  jobs[3] = Job{3, 3.141592653589793, 7.0, 1e301};
  const std::vector<std::vector<Work>> processing = {
      {tiny, 1e300, 0.1, 2.0},
      {kTimeInfinity, next, kTimeInfinity, 1e-300},
  };
  const Instance original(jobs, processing);
  ASSERT_EQ(original.validate(), "");

  const std::string text = instance_to_csv(original);
  std::string error;
  const auto reloaded = instance_from_csv(text, &error);
  ASSERT_TRUE(reloaded.has_value()) << error;
  expect_bit_identical(original, *reloaded);
  EXPECT_EQ(instance_to_csv(*reloaded), text);
}

TEST(TraceRoundTrip, EmptyInstanceWithMachinesSurvives) {
  const Instance original({}, {{}});
  const std::string text = instance_to_csv(original);
  std::string error;
  const auto reloaded = instance_from_csv(text, &error);
  ASSERT_TRUE(reloaded.has_value()) << error;
  EXPECT_EQ(reloaded->num_jobs(), 0u);
  EXPECT_EQ(reloaded->num_machines(), 1u);
}

TEST(TraceRoundTrip, ChunkedStreamReaderMatchesWholeFileParse) {
  WorkloadConfig config;
  config.num_jobs = 500;
  config.num_machines = 3;
  config.seed = base_seed() + 100;
  config.machines.model = MachineModel::kRestricted;
  config.machines.eligibility = 0.6;
  const Instance original = generate_workload(config);
  const std::string text = instance_to_csv(original);

  for (const std::size_t chunk_size : {1ul, 7ul, 100000ul}) {
    std::istringstream in(text);
    TraceStreamReader reader(in);
    ASSERT_TRUE(reader.ok()) << reader.error();
    EXPECT_EQ(reader.num_machines(), original.num_machines());

    std::size_t at = 0;
    std::vector<StreamJob> chunk;
    while (reader.next_chunk(chunk_size, chunk) > 0) {
      for (const StreamJob& job : chunk) {
        ASSERT_LT(at, original.num_jobs());
        const auto j = static_cast<JobId>(at);
        EXPECT_EQ(job.release, original.job(j).release);
        EXPECT_EQ(job.weight, original.job(j).weight);
        EXPECT_EQ(job.deadline, original.job(j).deadline);
        ASSERT_EQ(job.processing.size(), original.num_machines());
        for (std::size_t i = 0; i < job.processing.size(); ++i) {
          EXPECT_EQ(job.processing[i],
                    original.processing(static_cast<MachineId>(i), j));
        }
        ++at;
      }
    }
    ASSERT_TRUE(reader.ok()) << reader.error();
    EXPECT_EQ(at, original.num_jobs());
    EXPECT_EQ(reader.rows_read(), original.num_jobs());
  }
}

TEST(TraceRoundTrip, StreamWriterMatchesWholeFileSerialization) {
  WorkloadConfig config;
  config.num_jobs = 60;
  config.num_machines = 2;
  config.seed = base_seed() + 200;
  const Instance original = generate_workload(config);

  std::ostringstream streamed;
  TraceStreamWriter writer(streamed, original.num_machines());
  StreamJob job;
  job.processing.resize(original.num_machines());
  for (std::size_t idx = 0; idx < original.num_jobs(); ++idx) {
    const auto j = static_cast<JobId>(idx);
    job.release = original.job(j).release;
    job.weight = original.job(j).weight;
    job.deadline = original.job(j).deadline;
    for (std::size_t i = 0; i < original.num_machines(); ++i) {
      job.processing[i] = original.processing(static_cast<MachineId>(i), j);
    }
    writer.write_job(job);
  }
  EXPECT_EQ(writer.rows_written(), original.num_jobs());
  EXPECT_EQ(streamed.str(), instance_to_csv(original));
}

TEST(TraceRoundTrip, MalformedInputComesBackAsMessages) {
  std::string error;
  EXPECT_FALSE(instance_from_csv("", &error).has_value());
  EXPECT_NE(error.find("empty trace"), std::string::npos);

  EXPECT_FALSE(instance_from_csv("not,a,trace\n1,2,3\n", &error).has_value());
  EXPECT_NE(error.find("bad header"), std::string::npos);

  EXPECT_FALSE(instance_from_csv("release,weight,deadline,p_0\n1,1,inf\n",
                                 &error)
                   .has_value());
  EXPECT_NE(error.find("wrong arity"), std::string::npos);

  EXPECT_FALSE(instance_from_csv("release,weight,deadline,p_0\nx,1,inf,1\n",
                                 &error)
                   .has_value());
  EXPECT_NE(error.find("non-numeric job fields"), std::string::npos);

  EXPECT_FALSE(instance_from_csv("release,weight,deadline,p_0\n1,1,inf,zap\n",
                                 &error)
                   .has_value());
  EXPECT_NE(error.find("non-numeric p_ij"), std::string::npos);

  // Parseable but structurally invalid: the instance validator's message
  // must surface through the trace API.
  EXPECT_FALSE(instance_from_csv("release,weight,deadline,p_0\n1,1,inf,-2\n",
                                 &error)
                   .has_value());
  EXPECT_NE(error.find("invalid instance"), std::string::npos);

  // NaN fields parse as doubles but must be rejected as an invalid
  // instance, not silently accepted (the gap this suite uncovered).
  EXPECT_FALSE(instance_from_csv("release,weight,deadline,p_0\nnan,1,inf,1\n",
                                 &error)
                   .has_value());
  EXPECT_NE(error.find("invalid instance"), std::string::npos);
  EXPECT_FALSE(instance_from_csv("release,weight,deadline,p_0\n1,1,inf,nan\n",
                                 &error)
                   .has_value());
  EXPECT_NE(error.find("NaN"), std::string::npos);
  // Rows are arrivals: a trace out of release order is refused, not sorted.
  EXPECT_FALSE(instance_from_csv(
                   "release,weight,deadline,p_0\n2,1,inf,1\n1,1,inf,1\n",
                   &error)
                   .has_value());
  EXPECT_NE(error.find("release order"), std::string::npos) << error;
}

// ------------------------------------------------------- sparse dialect

TEST(TraceRoundTrip, SparseInstancesRoundTripInTheSparseDialect) {
  for (std::uint64_t s = 0; s < 4; ++s) {
    WorkloadConfig config;
    config.num_jobs = 150;
    config.num_machines = 8;
    config.seed = base_seed() + 300 + s;
    config.machines.model = MachineModel::kRestricted;
    config.machines.eligibility = 0.3;
    config.weights = WeightDistribution::kUniform;
    config.with_deadlines = s % 2 == 1;
    const Instance original =
        generate_workload(config).with_backend(StorageBackend::kSparseCsr);

    const std::string text = instance_to_csv(original);
    // The sparse header, not m "p_i" columns — and no ineligible-machine
    // "inf" entries anywhere (absent deadlines still serialize as "inf").
    EXPECT_NE(text.find("eligible:8"), std::string::npos);
    EXPECT_EQ(text.find(":inf"), std::string::npos);

    std::string error;
    const auto reloaded = instance_from_csv(text, &error);
    ASSERT_TRUE(reloaded.has_value()) << error;
    EXPECT_EQ(reloaded->backend(), StorageBackend::kSparseCsr);
    expect_bit_identical(original, *reloaded);
    // Closed loop, same as the dense dialect.
    EXPECT_EQ(instance_to_csv(*reloaded), text) << "seed " << s;
  }
}

TEST(TraceRoundTrip, SparseDialectSurvivesExtremeMagnitudes) {
  const double tiny = 5e-324;
  const double next = std::nextafter(1.0, 2.0);
  std::vector<Job> jobs(3);
  jobs[0] = Job{0, 0.0, 1.0 / 3.0, kTimeInfinity};
  jobs[1] = Job{1, 1e-17, next, 1e-17 + 1e300};
  jobs[2] = Job{2, 1.0e300, 1e-300, kTimeInfinity};
  std::vector<std::vector<SparseEntry>> rows = {
      {{0, tiny}, {1, 1e300}},
      {{1, next}},
      {{0, 0.1}, {1, 1e-300}},
  };
  const Instance original =
      Instance::from_sparse_rows(jobs, 2, std::move(rows));
  ASSERT_EQ(original.validate(), "");

  const std::string text = instance_to_csv(original);
  std::string error;
  const auto reloaded = instance_from_csv(text, &error);
  ASSERT_TRUE(reloaded.has_value()) << error;
  expect_bit_identical(original, *reloaded);
  EXPECT_EQ(instance_to_csv(*reloaded), text);
}

TEST(TraceRoundTrip, ChunkedReaderHandsOutSparseJobsInTheSparseForm) {
  WorkloadConfig config;
  config.num_jobs = 200;
  config.num_machines = 6;
  config.seed = base_seed() + 400;
  config.machines.model = MachineModel::kRestricted;
  config.machines.eligibility = 0.4;
  const Instance original =
      generate_workload(config).with_backend(StorageBackend::kSparseCsr);
  const std::string text = instance_to_csv(original);

  for (const std::size_t chunk_size : {1ul, 7ul, 100000ul}) {
    std::istringstream in(text);
    TraceStreamReader reader(in);
    ASSERT_TRUE(reader.ok()) << reader.error();
    EXPECT_EQ(reader.format(), TraceFormat::kSparse);
    EXPECT_EQ(reader.num_machines(), original.num_machines());

    std::size_t at = 0;
    std::vector<StreamJob> chunk;
    while (reader.next_chunk(chunk_size, chunk) > 0) {
      for (const StreamJob& job : chunk) {
        ASSERT_LT(at, original.num_jobs());
        const auto j = static_cast<JobId>(at);
        EXPECT_EQ(job.release, original.job(j).release);
        EXPECT_TRUE(job.processing.empty());
        const EligibleMachines eligible = original.eligible_machines(j);
        ASSERT_EQ(job.entries.size(), eligible.size());
        for (std::size_t k = 0; k < job.entries.size(); ++k) {
          EXPECT_EQ(job.entries[k].machine, eligible.begin()[k]);
          EXPECT_EQ(job.entries[k].p,
                    original.processing_unchecked(eligible.begin()[k], j));
        }
        ++at;
      }
    }
    ASSERT_TRUE(reader.ok()) << reader.error();
    EXPECT_EQ(at, original.num_jobs());
  }
}

TEST(TraceRoundTrip, MalformedSparseInputComesBackAsMessages) {
  std::string error;
  // Broken machine count in the header.
  EXPECT_FALSE(
      instance_from_csv("release,weight,deadline,eligible:zap\n", &error)
          .has_value());
  EXPECT_NE(error.find("bad header"), std::string::npos);
  EXPECT_FALSE(instance_from_csv("release,weight,deadline,eligible:0\n", &error)
                   .has_value());
  EXPECT_NE(error.find("bad header"), std::string::npos);
  // A machine count past MachineId's range would narrow row ids to
  // negative machines; the header is refused instead.
  EXPECT_FALSE(instance_from_csv("release,weight,deadline,eligible:4294967296\n"
                                 "1,1,inf,3000000000:1 3000000001:2\n",
                                 &error)
                   .has_value());
  EXPECT_NE(error.find("bad header"), std::string::npos);
  {
    std::istringstream in("release,weight,deadline,eligible:2147483648\n");
    TraceStreamReader reader(in);
    EXPECT_FALSE(reader.ok());
    EXPECT_NE(reader.error().find("bad header"), std::string::npos);
  }
  {
    // The largest count that fits still reads, down to its top machine id.
    std::istringstream in(
        "release,weight,deadline,eligible:2147483647\n1,1,inf,2147483646:1\n");
    TraceStreamReader reader(in);
    ASSERT_TRUE(reader.ok()) << reader.error();
    std::vector<StreamJob> chunk;
    ASSERT_EQ(reader.next_chunk(8, chunk), 1u);
    ASSERT_EQ(chunk[0].entries.size(), 1u);
    EXPECT_EQ(chunk[0].entries[0].machine, 2147483646);
  }

  // Rows must have exactly 4 fields.
  EXPECT_FALSE(instance_from_csv(
                   "release,weight,deadline,eligible:3\n1,1,inf,0:2,1:3\n",
                   &error)
                   .has_value());
  EXPECT_NE(error.find("wrong arity"), std::string::npos);

  // Token shapes: missing colon, non-numeric halves.
  EXPECT_FALSE(instance_from_csv(
                   "release,weight,deadline,eligible:3\n1,1,inf,0:2 1\n",
                   &error)
                   .has_value());
  EXPECT_NE(error.find("malformed i:p entry"), std::string::npos);
  EXPECT_FALSE(instance_from_csv(
                   "release,weight,deadline,eligible:3\n1,1,inf,a:2\n", &error)
                   .has_value());
  EXPECT_NE(error.find("malformed i:p entry"), std::string::npos);
  EXPECT_FALSE(instance_from_csv(
                   "release,weight,deadline,eligible:3\n1,1,inf,0:zap\n",
                   &error)
                   .has_value());
  EXPECT_NE(error.find("malformed i:p entry"), std::string::npos);

  // Structural demands are diagnosed with the row number, never an abort:
  // out-of-range ids, duplicates, descending order.
  EXPECT_FALSE(instance_from_csv(
                   "release,weight,deadline,eligible:3\n1,1,inf,3:2\n", &error)
                   .has_value());
  EXPECT_NE(error.find("names machine 3"), std::string::npos);
  EXPECT_FALSE(instance_from_csv(
                   "release,weight,deadline,eligible:3\n1,1,inf,1:2 1:3\n",
                   &error)
                   .has_value());
  EXPECT_NE(error.find("strictly ascending"), std::string::npos);
  EXPECT_FALSE(instance_from_csv(
                   "release,weight,deadline,eligible:3\n1,1,inf,2:2 1:3\n",
                   &error)
                   .has_value());
  EXPECT_NE(error.find("strictly ascending"), std::string::npos);

  // Value problems surface through validate(), like the dense dialect.
  EXPECT_FALSE(instance_from_csv(
                   "release,weight,deadline,eligible:3\n1,1,inf,0:-2\n",
                   &error)
                   .has_value());
  EXPECT_NE(error.find("invalid instance"), std::string::npos);
  EXPECT_FALSE(instance_from_csv(
                   "release,weight,deadline,eligible:3\n1,1,inf,0:inf\n",
                   &error)
                   .has_value());
  EXPECT_NE(error.find("invalid instance"), std::string::npos);
  // An empty pair list parses to a job with no eligible machine — invalid
  // instance, not a parse abort.
  EXPECT_FALSE(instance_from_csv(
                   "release,weight,deadline,eligible:3\n1,1,inf,\n", &error)
                   .has_value());
  EXPECT_NE(error.find("no eligible machine"), std::string::npos);
}

TEST(TraceRoundTrip, WriterConvertsBetweenPayloadFormsAndDialects) {
  // One job, submitted in both payload forms, serialized in both dialects:
  // all four (form, dialect) combinations must produce the same bytes as
  // the canonical same-dialect pairing.
  StreamJob dense_form;
  dense_form.release = 1.5;
  dense_form.weight = 2.0;
  dense_form.deadline = kTimeInfinity;
  dense_form.processing = {kTimeInfinity, 0.75, kTimeInfinity, 3.25};
  StreamJob sparse_form;
  sparse_form.release = 1.5;
  sparse_form.weight = 2.0;
  sparse_form.deadline = kTimeInfinity;
  sparse_form.entries = {{1, 0.75}, {3, 3.25}};

  const auto serialize = [](const StreamJob& job, TraceFormat format) {
    std::ostringstream out;
    TraceStreamWriter writer(out, 4, format);
    writer.write_job(job);
    return out.str();
  };
  EXPECT_EQ(serialize(dense_form, TraceFormat::kDense),
            serialize(sparse_form, TraceFormat::kDense));
  EXPECT_EQ(serialize(dense_form, TraceFormat::kSparse),
            serialize(sparse_form, TraceFormat::kSparse));
}

// ------------------------------------------------ reader equivalence wall

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// The trace reader as it was before the block-buffered codec: one getline
// per line, util::parse_csv per line, strtod/strtoull per field. Only the
// eligible:<m> range check was added to it, with the production message.
class ReferenceReader {
 public:
  explicit ReferenceReader(std::istream& in) : in_(in) {
    std::vector<std::string> header;
    line_number_ = static_cast<std::size_t>(-1);
    if (!next_row(header)) {
      if (ok()) fail("empty trace");
      return;
    }
    if (header.size() == 4 && header[3].rfind("eligible:", 0) == 0 &&
        header[0] == "release") {
      const std::string count = header[3].substr(9);
      char* end = nullptr;
      const unsigned long long m = std::strtoull(count.c_str(), &end, 10);
      if (count.empty() || end == count.c_str() || *end != '\0' || m == 0) {
        fail("bad header (malformed machine count in eligible:<m>)");
        return;
      }
      if (m > static_cast<unsigned long long>(
                  std::numeric_limits<MachineId>::max())) {
        fail("bad header (machine count in eligible:<m> exceeds " +
             std::to_string(std::numeric_limits<MachineId>::max()) + ")");
        return;
      }
      num_machines_ = static_cast<std::size_t>(m);
      format_ = TraceFormat::kSparse;
      return;
    }
    if (header.size() < 4 || header[0] != "release") {
      fail("bad header (expected release,weight,deadline,p_0,... or "
           "release,weight,deadline,eligible:<m>)");
      return;
    }
    num_machines_ = header.size() - 3;
  }

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }
  std::size_t num_machines() const { return num_machines_; }
  TraceFormat format() const { return format_; }
  std::size_t rows_read() const { return rows_read_; }

  std::size_t next_chunk(std::size_t max_jobs, std::vector<StreamJob>& out) {
    out.clear();
    std::vector<std::string> row;
    const std::size_t arity =
        format_ == TraceFormat::kSparse ? 4 : num_machines_ + 3;
    while (out.size() < max_jobs && next_row(row)) {
      const std::string at = "row " + std::to_string(line_number_);
      StreamJob job;
      if (row.size() != arity) return abort(out, at + " has wrong arity");
      const auto release = parse_value(row[0]);
      const auto weight = parse_value(row[1]);
      const auto deadline = parse_value(row[2]);
      if (!release || !weight || !deadline) {
        return abort(out, at + " has non-numeric job fields");
      }
      job.release = *release;
      job.weight = *weight;
      job.deadline = *deadline;
      if (format_ == TraceFormat::kSparse) {
        const std::string& field = row[3];
        MachineId previous = kInvalidMachine;
        std::size_t pos = 0;
        while (pos < field.size()) {
          const std::size_t space = field.find(' ', pos);
          const std::size_t token_end =
              space == std::string::npos ? field.size() : space;
          const std::string token = field.substr(pos, token_end - pos);
          pos = token_end + 1;
          if (token.empty()) continue;
          const std::size_t colon = token.find(':');
          if (colon == 0 || colon == std::string::npos) {
            return abort(out,
                         at + " has a malformed i:p entry '" + token + "'");
          }
          const std::string id_text = token.substr(0, colon);
          char* end = nullptr;
          const unsigned long long id =
              std::strtoull(id_text.c_str(), &end, 10);
          const auto p = parse_value(token.substr(colon + 1));
          if (end != id_text.c_str() + id_text.size() || !p) {
            return abort(out,
                         at + " has a malformed i:p entry '" + token + "'");
          }
          if (id >= num_machines_) {
            return abort(out, at + " names machine " + std::to_string(id) +
                                  " but the trace has " +
                                  std::to_string(num_machines_) + " machines");
          }
          const auto machine = static_cast<MachineId>(id);
          if (previous != kInvalidMachine && machine <= previous) {
            return abort(out,
                         at + " entries are not strictly ascending by machine");
          }
          previous = machine;
          job.entries.push_back(SparseEntry{machine, *p});
        }
      } else {
        for (std::size_t i = 0; i < num_machines_; ++i) {
          const auto p = parse_value(row[3 + i]);
          if (!p) return abort(out, at + " has non-numeric p_ij");
          job.processing.push_back(*p);
        }
      }
      out.push_back(std::move(job));
      ++rows_read_;
    }
    return out.size();
  }

 private:
  static std::optional<double> parse_value(const std::string& s) {
    if (s == "inf") return kTimeInfinity;
    char* end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (end == s.c_str() || *end != '\0') return std::nullopt;
    return v;
  }

  std::size_t abort(std::vector<StreamJob>& out, const std::string& message) {
    fail(message);
    out.clear();
    return 0;
  }

  bool fail(const std::string& message) {
    if (error_.empty()) error_ = message;
    return false;
  }

  bool next_row(std::vector<std::string>& fields) {
    if (!ok()) return false;
    std::string line;
    while (std::getline(in_, line)) {
      ++line_number_;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      const auto rows = util::parse_csv(line);
      if (!rows.has_value() || rows->size() != 1) return fail("malformed CSV");
      fields = std::move((*rows)[0]);
      if (fields.size() == 1 && fields[0].empty()) continue;
      return true;
    }
    return false;
  }

  std::istream& in_;
  std::string error_;
  std::size_t num_machines_ = 0;
  TraceFormat format_ = TraceFormat::kDense;
  std::size_t rows_read_ = 0;
  std::size_t line_number_ = 0;
};

/// Hands its text out 1–7 bytes per underflow, so lines straddle every
/// refill boundary the reader has.
class TrickleBuf : public std::streambuf {
 public:
  TrickleBuf(std::string text, std::uint64_t seed)
      : text_(std::move(text)), rng_(seed) {}

 protected:
  int_type underflow() override {
    if (pos_ >= text_.size()) return traits_type::eof();
    const std::size_t n =
        std::min<std::size_t>(1 + rng_() % 7, text_.size() - pos_);
    char* base = text_.data() + pos_;
    setg(base, base, base + n);
    pos_ += n;
    return traits_type::to_int_type(*base);
  }

 private:
  std::string text_;
  std::mt19937_64 rng_;
  std::size_t pos_ = 0;
};

std::string format_17g(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double random_bits(std::mt19937_64& rng) {
  const std::uint64_t bits = rng();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

/// Random trace text in either dialect, mixing in edge spellings. With
/// `invalid` set, some tokens and lines are malformed, so most such traces
/// end in an error somewhere past the header.
class TraceTextGenerator {
 public:
  TraceTextGenerator(std::uint64_t seed, bool invalid)
      : rng_(seed), invalid_(invalid) {}

  std::string trace(bool sparse, std::size_t m, std::size_t rows) {
    std::string text = "release,weight,deadline";
    if (sparse) {
      text += ",eligible:" + std::to_string(m);
    } else {
      for (std::size_t i = 0; i < m; ++i) text += ",p_" + std::to_string(i);
    }
    text += eol();
    for (std::size_t r = 0; r < rows; ++r) {
      if (chance(0.05)) text += blank_line() + eol();
      std::string row = field(number()) + "," + field(number()) + "," +
                        field(chance(0.5) ? "inf" : number());
      if (sparse) {
        row += ',';
        row += field(entries(m));
      } else {
        for (std::size_t i = 0; i < m; ++i) {
          row += ',';
          row += field(number());
        }
      }
      if (invalid_ && chance(0.01)) row += ",";  // wrong arity
      text += row;
      if (r + 1 < rows || chance(0.7)) text += eol();
    }
    return text;
  }

 private:
  bool chance(double p) {
    return std::uniform_real_distribution<>(0, 1)(rng_) < p;
  }
  template <typename T>
  const T& pick(const std::vector<T>& items) {
    return items[rng_() % items.size()];
  }

  std::string eol() { return chance(0.2) ? "\r\n" : "\n"; }

  std::string blank_line() {
    // "\r\r" leaves parse_csv no row at all; " " is a one-field row.
    if (invalid_ && chance(0.2)) return chance(0.5) ? "\r\r" : " ";
    return chance(0.5) ? "" : "\"\"";
  }

  std::string number() {
    static const std::vector<std::string> kValid = {
        "+1.5", " 1.5", "\t2", "0x1p3", "0X1.8P1", "1e999", "-1e999",
        "1e-400", "-0", "0", "nan", "-nan", "nan(123)", "NAN", "inf", "-inf",
        "Infinity", "INF", "4.9e-324", "2.2250738585072011e-308", ".5", "5.",
        "0001.25", "1E5", "1.7976931348623157e308",
        "0.1000000000000000055511151231257827021181583404541015625",
        std::string("1\0x", 3)};
    static const std::vector<std::string> kInvalid = {
        "zap", "", "1.5 ", "1e", "--1", "0x", "infinit", "1.2.3", "+",
        "1\"5"};
    const double roll = std::uniform_real_distribution<>(0, 1)(rng_);
    if (invalid_ && roll < 0.004) return pick(kInvalid);
    if (roll < 0.05) return pick(kValid);
    if (roll < 0.15) return format_17g(random_bits(rng_));
    if (roll < 0.3) return std::to_string(rng_() % 1000) + ".5";
    return format_17g(std::uniform_real_distribution<>(0.01, 100)(rng_));
  }

  /// Wraps a token in CSV quoting or splices an interior '\r' into it at
  /// times; util::parse_csv unwraps both.
  std::string field(std::string token) {
    const double roll = std::uniform_real_distribution<>(0, 1)(rng_);
    if (roll < 0.02) {
      std::string quoted = "\"";
      for (const char c : token) {
        if (c == '"') quoted += '"';
        quoted += c;
      }
      return quoted + "\"";
    }
    if (roll < 0.03) token.insert(rng_() % (token.size() + 1), "\r");
    return token;
  }

  std::string entries(std::size_t m) {
    std::string out;
    MachineId previous = -1;
    const auto count = static_cast<std::size_t>(rng_() % 4);
    for (std::size_t k = 0; k < count; ++k) {
      const auto room = static_cast<MachineId>(m) - previous - 1;
      if (room <= 0) break;
      const MachineId id = previous + 1 + static_cast<MachineId>(rng_() % room);
      previous = id;
      if (!out.empty()) out += chance(0.1) ? "  " : " ";
      std::string p = number();
      // A blank inside p splits the pair; only invalid traces keep it.
      if (!invalid_ && p.find(' ') != std::string::npos) p = "+1.5";
      out += id_text(id, m) + ":" + p;
    }
    if (chance(0.05)) out = " " + out + " ";
    if (invalid_ && chance(0.01)) {
      static const std::vector<std::string> kBadEntry = {
          "5", ":2", "1::2", "1:2:3", "a:1", "-1:2", "99999999999999999999:2",
          "0:1"};
      out += " " + pick(kBadEntry);
    }
    return out;
  }

  std::string id_text(MachineId id, std::size_t m) {
    const std::string plain = std::to_string(id);
    const double roll = std::uniform_real_distribution<>(0, 1)(rng_);
    if (roll < 0.02) return "+" + plain;
    if (roll < 0.04) return "0" + plain;
    if (roll < 0.05) return "\t" + plain;
    if (invalid_ && roll < 0.055) return std::to_string(m + rng_() % 3);
    return plain;
  }

  std::mt19937_64 rng_;
  bool invalid_;
};

/// Reads `text` through both readers in the same chunk sizes and requires
/// identical chunks, bit for bit, and identical state after every call.
/// `trickle_seed` != 0 feeds the production reader through a TrickleBuf.
void expect_readers_agree(const std::string& text, std::uint64_t chunk_seed,
                          std::uint64_t trickle_seed) {
  std::istringstream reference_in(text);
  ReferenceReader reference(reference_in);
  std::istringstream plain_in(text);
  TrickleBuf trickle(text, trickle_seed);
  std::istream trickle_in(&trickle);
  TraceStreamReader reader(trickle_seed != 0 ? trickle_in : plain_in);

  ASSERT_EQ(reader.ok(), reference.ok());
  ASSERT_EQ(reader.error(), reference.error());
  if (!reference.ok()) return;
  ASSERT_EQ(reader.num_machines(), reference.num_machines());
  ASSERT_EQ(reader.format(), reference.format());

  std::mt19937_64 rng(chunk_seed);
  static const std::vector<std::size_t> kChunks = {1, 3, 64, 100000};
  std::vector<StreamJob> got;
  std::vector<StreamJob> want;
  for (;;) {
    const std::size_t chunk = kChunks[rng() % kChunks.size()];
    const std::size_t n = reader.next_chunk(chunk, got);
    ASSERT_EQ(n, reference.next_chunk(chunk, want));
    ASSERT_EQ(reader.ok(), reference.ok());
    ASSERT_EQ(reader.error(), reference.error());
    ASSERT_EQ(reader.rows_read(), reference.rows_read());
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t k = 0; k < got.size(); ++k) {
      const StreamJob& a = got[k];
      const StreamJob& b = want[k];
      const std::string where = "job " + std::to_string(reader.rows_read() -
                                                        got.size() + k);
      ASSERT_TRUE(same_bits(a.release, b.release)) << where;
      ASSERT_TRUE(same_bits(a.weight, b.weight)) << where;
      ASSERT_TRUE(same_bits(a.deadline, b.deadline)) << where;
      ASSERT_EQ(a.processing.size(), b.processing.size()) << where;
      for (std::size_t i = 0; i < a.processing.size(); ++i) {
        ASSERT_TRUE(same_bits(a.processing[i], b.processing[i]))
            << where << " p_" << i;
      }
      ASSERT_EQ(a.entries.size(), b.entries.size()) << where;
      for (std::size_t e = 0; e < a.entries.size(); ++e) {
        ASSERT_EQ(a.entries[e].machine, b.entries[e].machine) << where;
        ASSERT_TRUE(same_bits(a.entries[e].p, b.entries[e].p)) << where;
      }
    }
    if (n == 0) break;
  }
}

TEST(TraceReaderWall, MatchesReferenceOnRandomTracesWithEdgeSpellings) {
  std::size_t failed_traces = 0;
  for (std::uint64_t t = 0; t < 240; ++t) {
    const std::uint64_t seed = base_seed() * 1000003 + 500 + t;
    const bool invalid = t % 3 == 0;
    const bool sparse = t % 2 == 1;
    TraceTextGenerator generator(seed, invalid);
    const std::size_t m = 1 + seed % (sparse ? 12 : 6);
    const std::string text = generator.trace(sparse, m, 40 + seed % 300);
    SCOPED_TRACE("trace " + std::to_string(t) + " seed " +
                 std::to_string(seed));
    expect_readers_agree(text, seed, /*trickle_seed=*/0);
    expect_readers_agree(text, seed + 1, /*trickle_seed=*/seed | 1);
    if (HasFatalFailure()) return;
    std::istringstream in(text);
    ReferenceReader reference(in);
    std::vector<StreamJob> chunk;
    while (reference.next_chunk(1000, chunk) > 0) {
    }
    failed_traces += reference.ok() ? 0 : 1;
  }
  // The wall must see both outcomes: clean traces through to EOF, and
  // malformed ones stopping with a message.
  EXPECT_GT(failed_traces, 10u);
  EXPECT_LT(failed_traces, 200u);
}

TEST(TraceReaderWall, MatchesReferenceOnDegenerateTexts) {
  const std::vector<std::string> texts = {
      "",
      "\n\n",
      "\r\n",
      "release,weight,deadline,p_0",
      "release,weight,deadline,p_0\n1,1,inf,2",
      "release,weight,deadline,p_0\r\n1,1,inf,2\r\n\r\n",
      "\n\"\"\nrelease,weight,deadline,p_0\n\n1,1,inf,2\n",
      "release,weight,deadline,p_0\n1,1,inf,\"2\n3\"\n",
      "release,weight,deadline,p_0\n\r\r\n1,1,inf,2\n",
      "\"release\",weight,deadline,p_0\n1,\"1\",inf,2\n",
      "release,weight,deadline,eligible:3\n1,1,inf,\n",
      "release,weight,deadline,eligible:3\n1,1,inf,\"0:1 2:3\"\n",
      "release,weight,deadline,eligible: 3\n1,1,inf,0:1\n",
      std::string("release,weight,deadline,eligible:3\0z\n1,1,inf,0:1\n", 47),
      std::string("release,weight,deadline,p_0\n1\0,1,inf,2\n", 38),
  };
  for (std::size_t k = 0; k < texts.size(); ++k) {
    SCOPED_TRACE("text " + std::to_string(k));
    expect_readers_agree(texts[k], k, 0);
    expect_readers_agree(texts[k], k, k + 1);
  }
}

TEST(TraceReaderWall, RowsLongerThanTheReadBlockMatchTheReference) {
  // At m = 8192 one %.17g dense row is about 190 KB, several times the
  // reader's 64 KiB block, so the block must grow and lines straddle refills.
  constexpr std::size_t kMachines = 8192;
  std::mt19937_64 rng(base_seed() + 600);
  std::ostringstream out;
  TraceStreamWriter writer(out, kMachines);
  StreamJob job;
  job.processing.resize(kMachines);
  for (int r = 0; r < 4; ++r) {
    job.release = r;
    for (Work& p : job.processing) {
      p = rng() % 5 == 0 ? kTimeInfinity
                         : std::uniform_real_distribution<>(0.1, 10)(rng);
    }
    writer.write_job(job);
  }
  const std::string text = out.str();
  ASSERT_GT(text.size(), std::size_t{4} * 64 * 1024);
  expect_readers_agree(text, 1, 0);
  expect_readers_agree(text, 2, base_seed() | 1);

  std::istringstream in(text);
  TraceStreamReader reader(in);
  std::vector<StreamJob> chunk;
  EXPECT_EQ(reader.next_chunk(10, chunk), 4u);
  EXPECT_TRUE(reader.ok()) << reader.error();
}

// ------------------------------------------------- writer byte identity

TEST(TraceWriterBytes, MatchPrintf17gOnRandomBitPatterns) {
  std::mt19937_64 rng(base_seed() + 700);
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> specials = {
      0.0, -0.0, 5e-324, -5e-324, DBL_MIN, -DBL_MIN, DBL_MAX, -DBL_MAX,
      inf, -inf, std::nan(""), -std::nan(""), 1.0 / 3.0, 1e21, 1e-5,
      123456789012345678.0, 0.1};
  std::size_t next_special = 0;
  const auto value = [&]() {
    if (next_special < specials.size() && rng() % 4 == 0) {
      return specials[next_special++];
    }
    return random_bits(rng);
  };
  // A value at or past +inf is written "inf"; everything else is %.17g.
  const auto expected = [](double v) {
    return v >= kTimeInfinity ? std::string("inf") : format_17g(v);
  };

  constexpr std::size_t kMachines = 5;
  std::ostringstream dense_out;
  std::ostringstream sparse_out;
  TraceStreamWriter dense(dense_out, kMachines, TraceFormat::kDense);
  TraceStreamWriter sparse(sparse_out, kMachines, TraceFormat::kSparse);
  std::string dense_want = "release,weight,deadline,p_0,p_1,p_2,p_3,p_4\n";
  std::string sparse_want = "release,weight,deadline,eligible:5\n";
  for (int r = 0; r < 4000 || next_special < specials.size(); ++r) {
    StreamJob dense_job;
    dense_job.release = value();
    dense_job.weight = value();
    dense_job.deadline = value();
    const std::string head = expected(dense_job.release) + "," +
                             expected(dense_job.weight) + "," +
                             expected(dense_job.deadline);
    StreamJob sparse_job = dense_job;
    dense_want += head;
    sparse_want += head + ",";
    for (std::size_t i = 0; i < kMachines; ++i) {
      const double p = value();
      dense_job.processing.push_back(p);
      dense_want += ',';
      dense_want += expected(p);
      if (rng() % 2 == 0) continue;
      if (!sparse_job.entries.empty()) sparse_want += " ";
      sparse_job.entries.push_back(SparseEntry{static_cast<MachineId>(i), p});
      sparse_want += std::to_string(i) + ":" + expected(p);
    }
    if (sparse_job.entries.empty()) {
      sparse_job.entries.push_back(SparseEntry{0, 1.5});
      sparse_want += "0:1.5";
    }
    dense_want += "\n";
    sparse_want += "\n";
    dense.write_job(dense_job);
    sparse.write_job(sparse_job);
  }
  EXPECT_EQ(dense_out.str(), dense_want);
  EXPECT_EQ(sparse_out.str(), sparse_want);
}

}  // namespace
}  // namespace osched::workload
