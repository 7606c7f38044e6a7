// Workload interface and the closed-loop plumbing the three workloads share.
#ifndef E2EBENCH_WORKLOAD_H_
#define E2EBENCH_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"

namespace e2e {

/// Template index of a SELECT; exec.drain_ms.q1..q8 report kinds 0..7.
constexpr int kMaxSelectKinds = 8;
/// Kinds of the other operations a workload performs.
enum OpKind : int {
  kLoadOp = 100,
  kInsertOp,
  kDeleteOp,
  kUpdateOp,
  kMoverOp,  ///< tuple-mover pass: attempted and checked, but not a statement
};

/// Outcomes one client collected in a phase.
struct Ops {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t statements = 0;      ///< completed statements (excludes mover passes)
  uint64_t rows_ingested = 0;   ///< user rows committed by loads and INSERTs
  uint64_t bytes_ingested = 0;  ///< raw bytes of those rows
  std::vector<double> latency_ms;                        ///< one per statement
  std::vector<uint64_t> done_ns;                         ///< completion time of each
  std::map<int, std::pair<uint64_t, double>> by_kind;    ///< kind -> (n, sum ms)
  std::vector<std::string> errors;                       ///< first few failures

  void Fail(const std::string& what);
  void Statement(int kind, double ms, bool ok, const std::string& what);
  void Merge(const Ops& other);
};

/// Calls of one kind and their total time.
struct Timed {
  uint64_t n = 0, ns = 0;
  void Add(uint64_t d) {
    ++n;
    ns += d;
  }
};

/// Per-layer accumulators of the traced phase. Single client only.
struct Tracer {
  CountingFileSystem* fs = nullptr;
  std::map<int, std::pair<uint64_t, SelectTrace>> selects;  ///< kind -> (n, sums)
  std::map<int, Timed> calls;  ///< OpKind -> Database::Load / DML / mover calls
  uint64_t mover_write_bytes = 0;
};

/// \brief One benchmark workload: seeded inputs, the timed set-up, and a
/// closed-loop step that runs and checks one operation.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Cluster shape; the runner fills in `fs`.
  virtual stratica::DatabaseOptions Options(size_t threads) const = 0;
  virtual int clients() const = 0;
  /// Steps that make up one full cycle of the workload's mix. Every phase
  /// (and the warm-up) runs whole cycles, so rates and write amplification
  /// never depend on where in a cycle the clock ran out.
  virtual int cycle_steps() const = 0;

  /// Build inputs and the oracle's answers from the seed (not timed).
  virtual void Generate(uint64_t seed, bool tiny) = 0;
  /// DDL + loads + tuple-mover passes that make the data queryable (timed
  /// as setup_s). Resets any oracle state. `tr` non-null in traced runs.
  virtual Status Setup(Database* db, Tracer* tr) = 0;
  virtual uint64_t setup_rows() const = 0;
  virtual uint64_t setup_bytes() const = 0;

  /// Run and check the next operation of `client`.
  virtual void Step(Database* db, int client, Tracer* tr, Ops* ops) = 0;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name);

// --- helpers shared by the workloads ------------------------------------------

/// Execute a SELECT (traced or not), check it against `want`, record it.
void RunCheckedSelect(Database* db, const std::string& sql, int kind, const Rows& want,
                      bool ordered, Tracer* tr, Ops* ops);
/// Execute a DML statement and check its affected-row count; true if it
/// passed.
bool RunCheckedDml(Database* db, const std::string& sql, int kind, uint64_t want_rows,
                   Tracer* tr, Ops* ops);
/// Database::Load, checking the loaded-row count. Counted as a statement.
void RunCheckedLoad(Database* db, const std::string& table, const stratica::RowBlock& rows,
                    bool direct, uint64_t row_bytes, Tracer* tr, Ops* ops);
/// AdvanceAhm + RunTupleMover. Attempted and checked; not a statement.
void RunMover(Database* db, Tracer* tr, Ops* ops);

/// Timed set-up helpers (record layer time when `tr` is set).
Status SetupLoad(Database* db, const std::string& table, const stratica::RowBlock& rows,
                 Tracer* tr);
Status SetupMover(Database* db, Tracer* tr);
Status SetupDdl(Database* db, const std::string& sql);

}  // namespace e2e

#endif  // E2EBENCH_WORKLOAD_H_
