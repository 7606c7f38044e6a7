#include "workload.h"

namespace e2e {

namespace {
constexpr size_t kMaxErrors = 5;

double MsSince(uint64_t start_ns) { return static_cast<double>(NowNs() - start_ns) / 1e6; }
}  // namespace

std::unique_ptr<Workload> MakeTpchCstore();
std::unique_ptr<Workload> MakeMeterDashboard();
std::unique_ptr<Workload> MakeIngestMixed();

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "tpch_cstore") return MakeTpchCstore();
  if (name == "meter_dashboard") return MakeMeterDashboard();
  if (name == "ingest_mixed") return MakeIngestMixed();
  return nullptr;
}

void Ops::Fail(const std::string& what) {
  ++failed;
  if (errors.size() < kMaxErrors) errors.push_back(what);
}

void Ops::Statement(int kind, double ms, bool ok, const std::string& what) {
  ++attempted;
  if (!ok) Fail(what);
  ++statements;
  latency_ms.push_back(ms);
  done_ns.push_back(NowNs());
  auto& k = by_kind[kind];
  ++k.first;
  k.second += ms;
}

void Ops::Merge(const Ops& o) {
  attempted += o.attempted;
  failed += o.failed;
  statements += o.statements;
  rows_ingested += o.rows_ingested;
  bytes_ingested += o.bytes_ingested;
  latency_ms.insert(latency_ms.end(), o.latency_ms.begin(), o.latency_ms.end());
  done_ns.insert(done_ns.end(), o.done_ns.begin(), o.done_ns.end());
  for (const auto& [kind, v] : o.by_kind) {
    by_kind[kind].first += v.first;
    by_kind[kind].second += v.second;
  }
  for (const auto& e : o.errors)
    if (errors.size() < kMaxErrors) errors.push_back(e);
}

void RunCheckedSelect(Database* db, const std::string& sql, int kind, const Rows& want,
                      bool ordered, Tracer* tr, Ops* ops) {
  uint64_t start = NowNs();
  SelectTrace trace;
  auto result = tr ? TracedSelect(db, sql, &trace) : db->Execute(sql);
  double ms = MsSince(start);
  bool ok = result.ok();
  std::string what;
  if (!ok) {
    what = sql + ": " + result.status().ToString();
  } else {
    Rows got;
    ok = ToRows(result.value(), &got) && SameRows(std::move(got), want, ordered);
    if (!ok) what = sql + ": result differs from the oracle";
  }
  ops->Statement(kind, ms, ok, what);
  if (tr && result.ok()) {
    auto& k = tr->selects[kind];
    ++k.first;
    k.second.Add(trace);
  }
}

bool RunCheckedDml(Database* db, const std::string& sql, int kind, uint64_t want_rows,
                   Tracer* tr, Ops* ops) {
  uint64_t start = NowNs();
  auto result = db->Execute(sql);
  uint64_t ns = NowNs() - start;
  bool ok = result.ok() && result.value().affected_rows == want_rows;
  std::string what;
  if (!result.ok()) {
    what = sql + ": " + result.status().ToString();
  } else if (!ok) {
    what = sql + ": affected " + std::to_string(result.value().affected_rows) +
           " rows, oracle expects " + std::to_string(want_rows);
  }
  ops->Statement(kind, static_cast<double>(ns) / 1e6, ok, what);
  if (tr) tr->calls[kind].Add(ns);
  return ok;
}

void RunCheckedLoad(Database* db, const std::string& table, const stratica::RowBlock& rows,
                    bool direct, uint64_t row_bytes, Tracer* tr, Ops* ops) {
  uint64_t start = NowNs();
  auto result = db->Load(table, rows, direct);
  uint64_t ns = NowNs() - start;
  bool ok = result.ok() && result.value().rows_loaded == rows.NumRows() &&
            result.value().rejected.empty();
  std::string what = result.ok() ? "load of " + table + " lost rows"
                                 : "load " + table + ": " + result.status().ToString();
  ops->Statement(kLoadOp, static_cast<double>(ns) / 1e6, ok, what);
  if (ok) {
    ops->rows_ingested += rows.NumRows();
    ops->bytes_ingested += rows.NumRows() * row_bytes;
  }
  if (tr) tr->calls[kLoadOp].Add(ns);
}

void RunMover(Database* db, Tracer* tr, Ops* ops) {
  ++ops->attempted;
  FsCounters before = tr ? tr->fs->Snapshot() : FsCounters{};
  uint64_t start = NowNs();
  // The AHM is advanced first so mergeout purges rows deleted since the
  // last pass and the table keeps a steady size.
  Status st = db->AdvanceAhm();
  if (st.ok()) st = db->RunTupleMover();
  uint64_t ns = NowNs() - start;
  if (!st.ok()) ops->Fail("tuple mover: " + st.ToString());
  if (!tr) return;
  tr->calls[kMoverOp].Add(ns);
  tr->mover_write_bytes += (tr->fs->Snapshot() - before).write_bytes;
}

Status SetupLoad(Database* db, const std::string& table, const stratica::RowBlock& rows,
                 Tracer* tr) {
  uint64_t start = NowNs();
  auto result = db->Load(table, rows, /*direct=*/true);
  if (tr) tr->calls[kLoadOp].Add(NowNs() - start);
  if (!result.ok()) return result.status();
  if (result.value().rows_loaded != rows.NumRows())
    return Status::Internal("set-up load of ", table, " lost rows");
  return Status::OK();
}

Status SetupMover(Database* db, Tracer* tr) {
  uint64_t start = NowNs();
  Status st = db->RunTupleMover();
  if (tr) tr->calls[kMoverOp].Add(NowNs() - start);
  return st;
}

Status SetupDdl(Database* db, const std::string& sql) { return db->Execute(sql).status(); }

}  // namespace e2e
