#include "workload/trace_io.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

#include "util/check.hpp"
#include "util/csv.hpp"

namespace osched::workload {

namespace {

/// Read granularity of TraceStreamReader; the block grows past it only to
/// hold a longer line.
constexpr std::size_t kReadBlock = std::size_t{64} << 10;

void append_value(std::string& out, double v) {
  if (v >= kTimeInfinity) {
    out += "inf";
    return;
  }
  char buf[32];  // %.17g needs at most 24: "-1.2345678901234567e-308"
  const auto result =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general, 17);
  out.append(buf, result.ptr);
}

void append_id(std::string& out, std::size_t id) {
  char buf[24];
  const auto result = std::to_chars(buf, buf + sizeof(buf), id);
  out.append(buf, result.ptr);
}

std::optional<double> parse_value(std::string_view s) {
  if (s == "inf") return kTimeInfinity;
  const char* const last = s.data() + s.size();
  double v = 0.0;
  const auto [stop, ec] = std::from_chars(s.data(), last, v);
  if (ec == std::errc{} && stop == last && !std::isnan(v)) return v;
  // Spellings from_chars does not take whole keep strtod's reading.
  const std::string copy(s);
  char* end = nullptr;
  const double slow = std::strtod(copy.c_str(), &end);
  if (end == copy.c_str() || *end != '\0') return std::nullopt;
  return slow;
}

std::optional<unsigned long long> parse_id(std::string_view s) {
  const char* const last = s.data() + s.size();
  unsigned long long id = 0;
  const auto [stop, ec] = std::from_chars(s.data(), last, id);
  if (ec == std::errc{} && stop == last) return id;
  // Leading blanks, signs and overflow keep strtoull's reading.
  const std::string copy(s);
  char* end = nullptr;
  const unsigned long long slow = std::strtoull(copy.c_str(), &end, 10);
  if (end != copy.c_str() + copy.size()) return std::nullopt;
  return slow;
}

}  // namespace

// ---------------------------------------------------------------- writer

TraceStreamWriter::TraceStreamWriter(std::ostream& out,
                                     std::size_t num_machines,
                                     TraceFormat format)
    : out_(out), num_machines_(num_machines), format_(format) {
  row_ = "release,weight,deadline";
  if (format_ == TraceFormat::kSparse) {
    // No row spells the machine count out in the sparse dialect, so the
    // header carries it. "eligible:" cannot collide with a dense header,
    // whose fourth column is always "p_0".
    row_ += ",eligible:";
    append_id(row_, num_machines);
  } else {
    for (std::size_t i = 0; i < num_machines; ++i) {
      row_ += ",p_";
      append_id(row_, i);
    }
  }
  row_ += '\n';
  out_.write(row_.data(), static_cast<std::streamsize>(row_.size()));
}

void TraceStreamWriter::write_job(const StreamJob& job) {
  const bool has_dense = !job.processing.empty();
  OSCHED_CHECK(has_dense || !job.entries.empty())
      << "metadata-only jobs carry no payload to serialize";
  if (has_dense) {
    OSCHED_CHECK_EQ(job.processing.size(), num_machines_)
        << "trace row arity mismatch";
  }
  // Numeric fields never need CSV quoting, so the row is built as text.
  row_.clear();
  append_value(row_, job.release);
  row_ += ',';
  append_value(row_, job.weight);
  row_ += ',';
  append_value(row_, job.deadline);
  if (format_ == TraceFormat::kSparse) {
    // Eligible entries only, `i:p` pairs — converting a dense payload just
    // drops its infinities.
    row_ += ',';
    bool first = true;
    auto append = [this, &first](std::size_t i, Work p) {
      if (!first) row_ += ' ';
      first = false;
      append_id(row_, i);
      row_ += ':';
      append_value(row_, p);
    };
    if (has_dense) {
      for (std::size_t i = 0; i < job.processing.size(); ++i) {
        if (job.processing[i] < kTimeInfinity) append(i, job.processing[i]);
      }
    } else {
      for (const SparseEntry& entry : job.entries) {
        OSCHED_CHECK(static_cast<std::size_t>(entry.machine) < num_machines_)
            << "trace row machine id out of range";
        append(static_cast<std::size_t>(entry.machine), entry.p);
      }
    }
  } else {
    const std::vector<Work>* dense = &job.processing;
    if (!has_dense) {
      // Sparse payload into the dense dialect: scatter over an all-inf row.
      dense_row_.assign(num_machines_, kTimeInfinity);
      for (const SparseEntry& entry : job.entries) {
        OSCHED_CHECK(static_cast<std::size_t>(entry.machine) < num_machines_)
            << "trace row machine id out of range";
        dense_row_[static_cast<std::size_t>(entry.machine)] = entry.p;
      }
      dense = &dense_row_;
    }
    for (const Work p : *dense) {
      row_ += ',';
      append_value(row_, p);
    }
  }
  row_ += '\n';
  out_.write(row_.data(), static_cast<std::streamsize>(row_.size()));
  ++rows_written_;
}

// ---------------------------------------------------------------- reader

TraceStreamReader::TraceStreamReader(std::istream& in) : in_(in) {
  line_number_ = static_cast<std::size_t>(-1);  // header becomes line 0
  if (!next_row()) {
    if (ok()) fail("empty trace");
    return;
  }
  const std::vector<std::string_view>& header = fields_;
  if (header.size() == 4 && header[3].substr(0, 9) == "eligible:" &&
      header[0] == "release") {
    // Sparse dialect: the machine count rides in the header field. Row ids
    // narrow to MachineId, so the count must fit it.
    const std::string count(header[3].substr(9));
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

bool TraceStreamReader::fail(const std::string& message) {
  if (error_.empty()) error_ = message;
  return false;
}

bool TraceStreamReader::next_line(std::string_view& line) {
  for (;;) {
    const char* const data = block_.data();
    const auto* newline = static_cast<const char*>(
        begin_ < end_ ? std::memchr(data + begin_, '\n', end_ - begin_)
                      : nullptr);
    if (newline != nullptr) {
      const auto at = static_cast<std::size_t>(newline - data);
      line = std::string_view(data + begin_, at - begin_);
      begin_ = at + 1;
      return true;
    }
    if (exhausted_) {
      // A last line without its '\n' still counts; an empty tail does not.
      if (begin_ == end_) return false;
      line = std::string_view(data + begin_, end_ - begin_);
      begin_ = end_;
      return true;
    }
    // Refill: slide the partial line to the front, grow the block only if
    // that line already fills it, then top the block up from the stream.
    const std::size_t partial = end_ - begin_;
    if (partial > 0 && begin_ > 0) {
      std::memmove(block_.data(), block_.data() + begin_, partial);
    }
    begin_ = 0;
    end_ = partial;
    if (block_.size() == end_) {
      block_.resize(std::max(kReadBlock, 2 * block_.size()));
    }
    const std::size_t want = block_.size() - end_;
    in_.read(block_.data() + end_, static_cast<std::streamsize>(want));
    const auto got = static_cast<std::size_t>(in_.gcount());
    end_ += got;
    exhausted_ = got < want;
  }
}

bool TraceStreamReader::next_row() {
  if (!ok()) return false;
  std::string_view line;
  while (next_line(line)) {
    ++line_number_;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) continue;  // blank separator lines are tolerated
    fields_.clear();
    const char* at = line.data();
    const char* const last = at + line.size();
    if (std::memchr(at, '"', line.size()) == nullptr &&
        std::memchr(at, '\r', line.size()) == nullptr) {
      // Plain line: util::parse_csv would split it on ',' and nothing else.
      for (;;) {
        const auto* comma =
            static_cast<const char*>(std::memchr(at, ',', last - at));
        if (comma == nullptr) {
          fields_.emplace_back(at, static_cast<std::size_t>(last - at));
          return true;
        }
        fields_.emplace_back(at, static_cast<std::size_t>(comma - at));
        at = comma + 1;
      }
    }
    auto rows = util::parse_csv(line);
    if (!rows.has_value() || rows->size() != 1) return fail("malformed CSV");
    quoted_ = std::move((*rows)[0]);
    if (quoted_.size() == 1 && quoted_[0].empty()) continue;
    fields_.assign(quoted_.begin(), quoted_.end());
    return true;
  }
  return false;  // clean EOF
}

bool TraceStreamReader::parse_job(StreamJob& job) {
  const auto fail_row = [this](const std::string& what) {
    return fail("row " + std::to_string(line_number_) + what);
  };
  const std::size_t arity =
      format_ == TraceFormat::kSparse ? 4 : num_machines_ + 3;
  if (fields_.size() != arity) return fail_row(" has wrong arity");
  const auto release = parse_value(fields_[0]);
  const auto weight = parse_value(fields_[1]);
  const auto deadline = parse_value(fields_[2]);
  if (!release || !weight || !deadline) {
    return fail_row(" has non-numeric job fields");
  }
  job.release = *release;
  job.weight = *weight;
  job.deadline = *deadline;
  if (format_ == TraceFormat::kDense) {
    job.processing.reserve(num_machines_);
    for (std::size_t i = 0; i < num_machines_; ++i) {
      const auto p = parse_value(fields_[3 + i]);
      if (!p) return fail_row(" has non-numeric p_ij");
      job.processing.push_back(*p);
    }
    return true;
  }
  // Space-separated `i:p` pairs. Traces are external input, so the
  // structural demands from_sparse_rows/validate_job would make — in-range,
  // strictly ascending machine ids — are diagnosed here with the row number
  // rather than trusted downstream.
  const std::string_view field = fields_[3];
  MachineId previous = kInvalidMachine;
  std::size_t pos = 0;
  while (pos < field.size()) {
    const auto* space = static_cast<const char*>(
        std::memchr(field.data() + pos, ' ', field.size() - pos));
    const std::size_t token_end =
        space == nullptr ? field.size()
                         : static_cast<std::size_t>(space - field.data());
    const std::string_view token = field.substr(pos, token_end - pos);
    pos = token_end + 1;
    if (token.empty()) continue;  // tolerate doubled separators
    const std::size_t colon = token.find(':');
    const auto id = colon == 0 || colon == std::string_view::npos
                        ? std::nullopt
                        : parse_id(token.substr(0, colon));
    const auto p = id ? parse_value(token.substr(colon + 1)) : std::nullopt;
    if (!id || !p) {
      return fail_row(" has a malformed i:p entry '" + std::string(token) +
                      "'");
    }
    if (*id >= num_machines_) {
      return fail_row(" names machine " + std::to_string(*id) +
                      " but the trace has " + std::to_string(num_machines_) +
                      " machines");
    }
    const auto machine = static_cast<MachineId>(*id);
    if (previous != kInvalidMachine && machine <= previous) {
      return fail_row(" entries are not strictly ascending by machine");
    }
    previous = machine;
    job.entries.push_back(SparseEntry{machine, *p});
  }
  return true;
}

std::size_t TraceStreamReader::next_chunk(std::size_t max_jobs,
                                          std::vector<StreamJob>& out) {
  out.clear();
  while (out.size() < max_jobs && next_row()) {
    StreamJob job;
    if (!parse_job(job)) {
      out.clear();
      return 0;
    }
    out.push_back(std::move(job));
    ++rows_read_;
  }
  return out.size();
}

// ------------------------------------------------------ whole-file helpers

std::string instance_to_csv(const Instance& instance) {
  std::ostringstream out;
  const TraceFormat format = instance.backend() == StorageBackend::kSparseCsr
                                 ? TraceFormat::kSparse
                                 : TraceFormat::kDense;
  TraceStreamWriter writer(out, instance.num_machines(), format);
  StreamJob job;
  for (std::size_t idx = 0; idx < instance.num_jobs(); ++idx) {
    fill_stream_job(instance, static_cast<JobId>(idx), 0.0, &job);
    writer.write_job(job);
  }
  return out.str();
}

namespace {

std::optional<Instance> instance_from_stream(std::istream& in,
                                             std::string* error) {
  auto fail = [&](const std::string& msg) -> std::optional<Instance> {
    if (error) *error = msg;
    return std::nullopt;
  };
  TraceStreamReader reader(in);
  if (!reader.ok()) return fail(reader.error());

  // Chunks go straight into the store an Instance seals: every row is
  // checked by the store's validator (all problems collected, as
  // validate() reports them) and appended in trace order, which the
  // dialect defines as release order.
  JobStore store(reader.num_machines(), /*jobs_per_block=*/4096,
                 reader.format() == TraceFormat::kSparse
                     ? StorageBackend::kSparseCsr
                     : StorageBackend::kDense);
  std::ostringstream problems;
  std::vector<StreamJob> chunk;
  while (reader.next_chunk(4096, chunk) > 0) {
    for (const StreamJob& job : chunk) store.append_reporting(job, problems);
  }
  if (!reader.ok()) return fail(reader.error());
  // The reader already vetted the structural demands (row arity; in-range,
  // strictly ascending sparse ids), so every row fits the store's layout.
  if (!problems.str().empty()) {
    return fail("invalid instance: " + problems.str());
  }
  return store.take_instance();
}

}  // namespace

std::optional<Instance> instance_from_csv(const std::string& text,
                                          std::string* error) {
  std::istringstream in(text);
  return instance_from_stream(in, error);
}

bool save_instance(const Instance& instance, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << instance_to_csv(instance);
  return static_cast<bool>(out);
}

std::optional<Instance> load_instance(const std::string& path,
                                      std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error) *error = "cannot open " + path;
    return std::nullopt;
  }
  return instance_from_stream(in, error);
}

}  // namespace osched::workload
