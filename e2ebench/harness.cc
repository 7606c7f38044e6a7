#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "exec/operator.h"
#include "exec/resource_manager.h"
#include "exec/scheduler.h"
#include "opt/planner.h"
#include "sql/parser.h"

namespace e2e {

using stratica::ExecContext;
using stratica::ExecStats;
using stratica::PhysicalPlan;
using stratica::RowBlock;
using stratica::Statement;

// --- CountingFileSystem ------------------------------------------------------

Status CountingFileSystem::WriteFile(const std::string& path, const std::string& data) {
  uint64_t start = Start();
  Status st = inner_->WriteFile(path, data);
  write_ops_.fetch_add(1, std::memory_order_relaxed);
  if (st.ok()) write_bytes_.fetch_add(data.size(), std::memory_order_relaxed);
  if (timed_) write_ns_.fetch_add(NowNs() - start, std::memory_order_relaxed);
  return st;
}

void CountingFileSystem::CountRead(uint64_t start, uint64_t bytes) const {
  read_ops_.fetch_add(1, std::memory_order_relaxed);
  read_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  if (timed_) read_ns_.fetch_add(NowNs() - start, std::memory_order_relaxed);
}

Result<std::string> CountingFileSystem::ReadFile(const std::string& path) const {
  uint64_t start = Start();
  auto data = inner_->ReadFile(path);
  CountRead(start, data.ok() ? data.value().size() : 0);
  return data;
}

Result<std::string> CountingFileSystem::ReadRange(const std::string& path, uint64_t offset,
                                                  uint64_t length) const {
  uint64_t start = Start();
  auto data = inner_->ReadRange(path, offset, length);
  CountRead(start, data.ok() ? data.value().size() : 0);
  return data;
}

Status CountingFileSystem::ReadRangeInto(const std::string& path, uint64_t offset,
                                         uint64_t length, std::string* out) const {
  uint64_t start = Start();
  Status st = inner_->ReadRangeInto(path, offset, length, out);
  CountRead(start, st.ok() ? out->size() : 0);
  return st;
}

FsCounters CountingFileSystem::Snapshot() const {
  auto ld = [](const std::atomic<uint64_t>& a) { return a.load(std::memory_order_relaxed); };
  return {ld(read_ops_),  ld(read_bytes_),  ld(read_ns_),
          ld(write_ops_), ld(write_bytes_), ld(write_ns_)};
}

// --- percentiles ---------------------------------------------------------------

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(values.size())));
  rank = std::max<size_t>(rank, 1);
  return values[std::min(rank, values.size()) - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

size_t SamplesBeyond(size_t n, double p) {
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  return n - std::min(rank, n);
}

// --- oracle comparison -----------------------------------------------------------

bool ToRows(const QueryResult& result, Rows* out) {
  out->clear();
  size_t ncols = result.rows.columns.size();
  for (size_t r = 0; r < result.NumRows(); ++r) {
    Row row;
    row.reserve(ncols);
    for (size_t c = 0; c < ncols; ++c) {
      stratica::Value v = result.At(r, c);
      if (v.is_null() || v.type() == stratica::TypeId::kString) return false;
      row.push_back(v.AsDouble());
    }
    out->push_back(std::move(row));
  }
  return true;
}

bool SameRows(Rows got, Rows want, bool ordered, double rel_tol) {
  if (got.size() != want.size()) return false;
  if (!ordered) {
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
  }
  for (size_t r = 0; r < got.size(); ++r) {
    if (got[r].size() != want[r].size()) return false;
    for (size_t c = 0; c < got[r].size(); ++c) {
      double a = got[r][c], b = want[r][c];
      if (a == b) continue;
      if (std::fabs(a - b) > rel_tol * std::max(std::fabs(a), std::fabs(b))) return false;
    }
  }
  return true;
}

// --- traced SELECT ---------------------------------------------------------------

void SelectTrace::Add(const SelectTrace& o) {
  parse_ns += o.parse_ns;
  plan_ns += o.plan_ns;
  admit_ns += o.admit_ns;
  drain_ns += o.drain_ns;
  total_ns += o.total_ns;
  fanout += o.fanout;
  rows_scanned += o.rows_scanned;
  blocks_pruned += o.blocks_pruned;
  rows_decoded += o.rows_decoded;
  bytes_read += o.bytes_read;
  decode_elided_bytes += o.decode_elided_bytes;
  rows_processed_encoded += o.rows_processed_encoded;
  rows_sip_filtered += o.rows_sip_filtered;
  rows_spilled += o.rows_spilled;
  exchange_bytes += o.exchange_bytes;
  morsel_bypasses += o.morsel_bypasses;
  tasks_run += o.tasks_run;
  tasks_stolen += o.tasks_stolen;
  tasks_inline += o.tasks_inline;
  rows_out += o.rows_out;
}

Result<QueryResult> TracedSelect(Database* db, const std::string& sql, SelectTrace* t) {
  uint64_t t0 = NowNs();
  STRATICA_ASSIGN_OR_RETURN(Statement stmt, stratica::ParseSql(sql));
  uint64_t t1 = NowNs();
  if (stmt.type != Statement::Type::kSelect) return Status::InvalidArgument("not a SELECT: ", sql);

  // The planner holds no state beyond the cluster pointer, so a bench-owned
  // instance plans exactly as the database's own.
  stratica::Planner planner(db->cluster());
  ExecContext ctx = db->MakeExecContext();
  size_t requested = ctx.intra_node_parallelism;
  STRATICA_ASSIGN_OR_RETURN(PhysicalPlan plan, planner.PlanSelect(stmt.select, requested));
  uint64_t t2 = NowNs();
  STRATICA_ASSIGN_OR_RETURN(stratica::AdmissionTicket ticket,
                            db->resource_manager()->Admit(plan.estimated_memory_bytes));
  uint64_t t3 = NowNs();
  size_t allowed = stratica::ResourceManager::AllowedFanout(
      ticket.bytes(), plan.estimated_memory_bytes, plan.fanout);
  uint64_t replan_ns = 0;
  if (allowed < plan.fanout) {
    STRATICA_ASSIGN_OR_RETURN(plan, planner.PlanSelect(stmt.select, allowed));
    replan_ns = NowNs() - t3;
  }

  ExecStats stats;
  stratica::ResourceBudget budget(ticket.bytes());
  ctx.epoch = db->cluster()->epochs()->LatestQueryableEpoch();
  ctx.stats = &stats;
  ctx.budget = &budget;
  ctx.intra_node_parallelism = plan.fanout;
  if (plan.morsel_bypass) stats.morsel_bypasses.fetch_add(1);
  const auto& sched = db->scheduler()->stats();
  uint64_t run0 = sched.tasks_run.load(), stolen0 = sched.tasks_stolen.load(),
           inline0 = sched.tasks_inline.load();
  uint64_t t4 = NowNs();
  auto rows = stratica::DrainOperator(plan.root.get(), &ctx);
  plan.root.reset();  // joins producer tasks before `stats` goes away
  uint64_t t5 = NowNs();

  t->parse_ns = t1 - t0;
  t->plan_ns = (t2 - t1) + replan_ns;
  t->admit_ns = t3 - t2;
  t->drain_ns = t5 - t4;
  t->fanout = plan.fanout;
  t->tasks_run = sched.tasks_run.load() - run0;
  t->tasks_stolen = sched.tasks_stolen.load() - stolen0;
  t->tasks_inline = sched.tasks_inline.load() - inline0;
  auto ld = [](const std::atomic<uint64_t>& a) { return a.load(); };
  t->rows_scanned = ld(stats.rows_scanned);
  t->blocks_pruned = ld(stats.blocks_pruned);
  t->rows_decoded = ld(stats.rows_decoded);
  t->bytes_read = ld(stats.bytes_read);
  t->decode_elided_bytes = ld(stats.decode_elided_bytes);
  t->rows_processed_encoded = ld(stats.rows_processed_encoded);
  t->rows_sip_filtered = ld(stats.rows_sip_filtered);
  t->rows_spilled = ld(stats.rows_spilled);
  t->exchange_bytes = ld(stats.exchange_bytes);
  t->morsel_bypasses = ld(stats.morsel_bypasses);
  if (!rows.ok()) return rows.status();

  QueryResult result;
  result.column_names = plan.column_names;
  result.column_types = plan.column_types;
  result.rows = std::move(rows).value();
  t->rows_out = result.NumRows();
  t->total_ns = NowNs() - t0;
  return result;
}

// --- storage census / process stats ---------------------------------------------

StorageTotals CensusAll(Database* db) {
  StorageTotals totals;
  for (const auto& name : db->catalog()->ProjectionNames()) {
    auto census = db->cluster()->Census(name);
    totals.bytes += census.bytes;
    totals.raw_bytes += census.raw_bytes;
    totals.containers += census.containers;
  }
  return totals;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// --- JSON record -----------------------------------------------------------------

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void Record::Metric(const std::string& name, double value, const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Record::Meta(const std::string& key, const std::string& json_value) {
  meta_.push_back({key, json_value});
}

std::string Record::ToJson(bool correct, uint64_t attempted, uint64_t failed) const {
  auto num = [](double v) {
    if (!std::isfinite(v)) return std::string("null");
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return std::string(buf);
  };
  std::string out = "{\"correct\": " + std::string(correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i) out += ", ";
    out += JsonString(metrics_[i].first) + ": {\"value\": " + num(metrics_[i].second.first) +
           ", \"unit\": " + JsonString(metrics_[i].second.second) + "}";
  }
  out += "}, \"meta\": {";
  for (size_t i = 0; i < meta_.size(); ++i) {
    if (i) out += ", ";
    out += JsonString(meta_[i].first) + ": " + meta_[i].second;
  }
  return out + "}}";
}

}  // namespace e2e
