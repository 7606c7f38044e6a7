// Shared pieces of the end-to-end benchmark: seeded generation, the
// counting FileSystem wrapper, percentile math, result canonicalisation for
// the oracle, the traced SELECT path and the metric record.
//
// Everything here calls only the engine's public headers; src/ is never
// modified by the benchmark.
#ifndef E2EBENCH_HARNESS_H_
#define E2EBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/database.h"
#include "common/fs.h"

namespace e2e {

using stratica::Database;
using stratica::FileSystem;
using stratica::QueryResult;
using stratica::Result;
using stratica::Status;

/// splitmix64: the benchmark's own generator, so inputs depend only on the
/// seed and never on engine code.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi] inclusive.
  int64_t Range(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }
  double Unit() { return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0); }

 private:
  uint64_t state_;
};

inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

/// Byte and op counters of the FileSystem wrapper. Clocks (`*_ns`) are
/// only advanced when the wrapper was built with timing on.
struct FsCounters {
  uint64_t read_ops = 0, read_bytes = 0, read_ns = 0;
  uint64_t write_ops = 0, write_bytes = 0, write_ns = 0;
  FsCounters operator-(const FsCounters& o) const {
    return {read_ops - o.read_ops,   read_bytes - o.read_bytes,   read_ns - o.read_ns,
            write_ops - o.write_ops, write_bytes - o.write_bytes, write_ns - o.write_ns};
  }
  FsCounters& operator+=(const FsCounters& o) {
    read_ops += o.read_ops, read_bytes += o.read_bytes, read_ns += o.read_ns;
    write_ops += o.write_ops, write_bytes += o.write_bytes, write_ns += o.write_ns;
    return *this;
  }
};

/// \brief Forwards every call to an inner FileSystem and counts reads and
/// writes. The engine's checksum, retry and failover code sits above this
/// layer and sees exactly what the inner filesystem returns.
class CountingFileSystem : public FileSystem {
 public:
  CountingFileSystem(std::shared_ptr<FileSystem> inner, bool timed)
      : inner_(std::move(inner)), timed_(timed) {}

  Status WriteFile(const std::string& path, const std::string& data) override;
  Result<std::string> ReadFile(const std::string& path) const override;
  Result<std::string> ReadRange(const std::string& path, uint64_t offset,
                                uint64_t length) const override;
  Status ReadRangeInto(const std::string& path, uint64_t offset, uint64_t length,
                       std::string* out) const override;
  Result<uint64_t> FileSize(const std::string& path) const override {
    return inner_->FileSize(path);
  }
  bool Exists(const std::string& path) const override { return inner_->Exists(path); }
  Status Delete(const std::string& path) override { return inner_->Delete(path); }
  Result<std::vector<std::string>> List(const std::string& prefix) const override {
    return inner_->List(prefix);
  }
  Status HardLink(const std::string& source, const std::string& target) override {
    return inner_->HardLink(source, target);
  }

  FsCounters Snapshot() const;

 private:
  uint64_t Start() const { return timed_ ? NowNs() : 0; }
  void CountRead(uint64_t start, uint64_t bytes) const;

  std::shared_ptr<FileSystem> inner_;
  bool timed_;
  mutable std::atomic<uint64_t> read_ops_{0}, read_bytes_{0}, read_ns_{0};
  std::atomic<uint64_t> write_ops_{0}, write_bytes_{0}, write_ns_{0};
};

/// Nearest-rank percentile of an unsorted sample: the smallest value with
/// at least p·n values at or below it. p in (0, 1]. Empty sample -> 0.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);
/// Number of samples strictly above the nearest-rank p-th percentile's
/// rank: a p95 is reported only when this is at least 10.
size_t SamplesBeyond(size_t n, double p);

/// One result row in canonical form: every column as a double (ints,
/// dates and counts are exact below 2^53).
using Row = std::vector<double>;
using Rows = std::vector<Row>;

/// Canonicalise a QueryResult. Fails (returns false) on NULLs or strings,
/// which no workload query produces.
bool ToRows(const QueryResult& result, Rows* out);

/// Compare a result with the oracle's answer. `ordered` = the query has an
/// ORDER BY covering its output; otherwise both sides are sorted first.
/// Float columns compare with a relative tolerance (summation order is the
/// engine's choice); every other column compares exactly.
bool SameRows(Rows got, Rows want, bool ordered, double rel_tol = 1e-9);

/// Per-SELECT breakdown collected on the traced path.
struct SelectTrace {
  uint64_t parse_ns = 0, plan_ns = 0, admit_ns = 0, drain_ns = 0, total_ns = 0;
  uint64_t fanout = 0;
  // ExecStats deltas of this statement.
  uint64_t rows_scanned = 0, blocks_pruned = 0, rows_decoded = 0, bytes_read = 0,
           decode_elided_bytes = 0, rows_processed_encoded = 0, rows_sip_filtered = 0,
           rows_spilled = 0, exchange_bytes = 0, morsel_bypasses = 0;
  // Scheduler::stats() deltas around the drain.
  uint64_t tasks_run = 0, tasks_stolen = 0, tasks_inline = 0;
  uint64_t rows_out = 0;

  /// Field-wise sum (aggregating statements of one kind).
  void Add(const SelectTrace& o);
};

/// Run one SELECT through the same public calls Database::RunSelect makes
/// (ParseSql, Planner::PlanSelect, ResourceManager::Admit/AllowedFanout,
/// DrainOperator), timing each. Single caller only (MakeExecContext).
/// Failed reads are not re-planned here: the traced run has no faults.
Result<QueryResult> TracedSelect(Database* db, const std::string& sql, SelectTrace* trace);

/// Sum of Cluster::Census over every projection of every table.
struct StorageTotals {
  uint64_t bytes = 0, raw_bytes = 0, containers = 0;
};
StorageTotals CensusAll(Database* db);

/// getrusage max resident set, MiB.
double PeakRssMb();

/// Ordered metric record written as JSON by the benchmark binary.
class Record {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  void Meta(const std::string& key, const std::string& json_value);
  std::string ToJson(bool correct, uint64_t attempted, uint64_t failed) const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::pair<std::string, std::string>> meta_;
};

std::string JsonString(const std::string& s);

}  // namespace e2e

#endif  // E2EBENCH_HARNESS_H_
