// End-to-end benchmark binary: one workload, one process.
//
//   e2e_bench --workload <tpch_cstore|meter_dashboard|ingest_mixed>
//             --seed <n> --seconds <s> --trace <0|1> [--tiny]
//
// Untraced (--trace 0): set up five times (setup_s is the median), warm up, then run the workload's closed loop for `--seconds`
// (rounded up to whole cycles of its mix) and report
// the end-to-end metrics. Traced (--trace 1): set up once, then for two
// thirds of `--seconds` alternate cycle by cycle between (A) untraced, one
// client, the reference for the tracing overhead, and (B) traced, one
// client, every SELECT broken into parse/plan/admit/drain with counter
// deltas; alternating keeps drift in machine speed out of the comparison.
// The last third (C) runs untraced with the workload's own client count,
// for the admission counters.
//
// Prints one JSON object as its last line of stdout. Exits non-zero without
// printing a result when set-up fails.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "workload.h"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace e2e {

namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (k == "--tiny") {
      a->tiny = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string v = argv[++i];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a->seconds = std::atof(v.c_str());
    else if (k == "--trace") a->trace = v == "1";
    else return false;
  }
  return !a->workload.empty() && a->seconds > 0;
}

/// Closed loop: each client runs whole cycles of its next operations, each
/// as soon as the last one returns, until the deadline has passed (at least
/// one cycle). Returns the merged outcomes. Client 0 runs on the calling
/// thread, the others on their own threads.
Ops RunPhase(Workload* w, Database* db, int clients, double seconds, Tracer* tr,
             double* wall_s) {
  std::vector<Ops> per(clients);
  uint64_t start = NowNs();
  uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
  auto body = [&](int c) {
    do {
      for (int i = 0; i < w->cycle_steps(); ++i) w->Step(db, c, tr, &per[c]);
    } while (NowNs() < deadline);
  };
  std::vector<std::thread> threads;
  for (int c = 1; c < clients; ++c) threads.emplace_back(body, c);
  body(0);
  for (auto& t : threads) t.join();
  *wall_s = static_cast<double>(NowNs() - start) / 1e9;
  Ops all;
  for (const auto& p : per) all.Merge(p);
  for (auto& t : all.done_ns) t -= start;
  return all;
}

/// Statements completed in each whole second of a phase.
std::vector<double> PerSecond(const Ops& ops) {
  std::vector<double> counts;
  for (uint64_t t : ops.done_ns) {
    size_t s = static_cast<size_t>(t / 1000000000ull);
    if (counts.size() <= s) counts.resize(s + 1, 0);
    ++counts[s];
  }
  return counts;
}

std::string JsonNum(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string JsonList(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) out += (i ? ", " : "") + JsonNum(v[i]);
  return out + "]";
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Mean statement latency per kind, as a JSON object keyed by kind.
std::string KindMeans(const Ops& ops) {
  std::string out = "{";
  bool first = true;
  for (const auto& [kind, v] : ops.by_kind) {
    out += std::string(first ? "" : ", ") + "\"" + std::to_string(kind) +
           "\": " + JsonNum(Ratio(v.second, static_cast<double>(v.first)));
    first = false;
  }
  return out + "}";
}

void TracedMetrics(const Tracer& tr, const Tracer& setup_tr, const Ops& ref, const Ops& traced,
                   double ingest_rows_per_s, const FsCounters& fs, uint64_t network_bytes,
                   uint64_t containers,
                   const stratica::ResourceManagerStats& rm_before,
                   const stratica::ResourceManagerStats& rm_after, Record* rec) {
  SelectTrace s;
  uint64_t nsel = 0;
  for (const auto& [kind, v] : tr.selects) {
    nsel += v.first;
    s.Add(v.second);
  }
  double n = static_cast<double>(nsel);
  auto per_sel = [&](uint64_t v) { return Ratio(static_cast<double>(v), n); };
  rec->Metric("sql.parse_us", per_sel(s.parse_ns) / 1e3, "us/stmt");
  rec->Metric("opt.plan_us", per_sel(s.plan_ns) / 1e3, "us/stmt");
  rec->Metric("admission.wait_us", per_sel(s.admit_ns) / 1e3, "us/stmt");
  uint64_t admitted = rm_after.admitted - rm_before.admitted;
  rec->Metric("admission.queued",
              Ratio(static_cast<double>(rm_after.queued - rm_before.queued),
                    static_cast<double>(admitted)),
              "frac");
  rec->Metric("admission.peak_active", static_cast<double>(rm_after.peak_active_queries),
              "count");
  rec->Metric("exec.drain_ms", per_sel(s.drain_ns) / 1e6, "ms/stmt");
  for (int k = 0; k < kMaxSelectKinds; ++k) {
    auto it = tr.selects.find(k);
    double v = it == tr.selects.end()
                   ? 0
                   : Ratio(static_cast<double>(it->second.second.drain_ns),
                           static_cast<double>(it->second.first)) / 1e6;
    rec->Metric("exec.drain_ms.q" + std::to_string(k + 1), v, "ms/stmt");
  }
  rec->Metric("exec.fanout", per_sel(s.fanout), "workers");
  rec->Metric("exec.rows_scanned", per_sel(s.rows_scanned), "rows/stmt");
  rec->Metric("exec.blocks_pruned", per_sel(s.blocks_pruned), "blocks/stmt");
  rec->Metric("exec.rows_decoded", per_sel(s.rows_decoded), "values/stmt");
  rec->Metric("exec.bytes_read", per_sel(s.bytes_read), "B/stmt");
  rec->Metric("exec.decode_elided_bytes", per_sel(s.decode_elided_bytes), "B/stmt");
  rec->Metric("exec.rows_processed_encoded", per_sel(s.rows_processed_encoded), "rows/stmt");
  rec->Metric("exec.rows_sip_filtered", per_sel(s.rows_sip_filtered), "rows/stmt");
  rec->Metric("exec.rows_spilled", per_sel(s.rows_spilled), "rows/stmt");
  rec->Metric("exec.exchange_bytes", per_sel(s.exchange_bytes), "B/stmt");
  rec->Metric("exec.morsel_bypasses", per_sel(s.morsel_bypasses), "count/stmt");
  rec->Metric("exec.scanned_per_row_out",
              Ratio(static_cast<double>(s.rows_scanned), static_cast<double>(s.rows_out)),
              "ratio");
  uint64_t tasks = s.tasks_run + s.tasks_stolen + s.tasks_inline;
  rec->Metric("scheduler.tasks_run", per_sel(s.tasks_run), "tasks/stmt");
  rec->Metric("scheduler.steal_frac",
              Ratio(static_cast<double>(s.tasks_stolen), static_cast<double>(tasks)), "frac");
  rec->Metric("scheduler.tasks_inline", per_sel(s.tasks_inline), "tasks/stmt");

  double stmts = static_cast<double>(traced.statements);
  auto per_stmt = [&](double v) { return Ratio(v, stmts); };
  rec->Metric("storage.read_ops", per_stmt(fs.read_ops), "ops/stmt");
  rec->Metric("storage.read_bytes", per_stmt(fs.read_bytes), "B/stmt");
  rec->Metric("storage.read_us", per_stmt(fs.read_ns) / 1e3, "us/stmt");
  rec->Metric("storage.write_ops", per_stmt(fs.write_ops), "ops/stmt");
  rec->Metric("storage.write_bytes", per_stmt(fs.write_bytes), "B/stmt");
  rec->Metric("storage.write_us", per_stmt(fs.write_ns) / 1e3, "us/stmt");
  auto calls = [&](const Tracer& t, int kind) {
    auto it = t.calls.find(kind);
    return it == t.calls.end() ? Timed{} : it->second;
  };
  auto mean_ms = [&](int kind) {
    Timed c = calls(tr, kind);
    return Ratio(static_cast<double>(c.ns), static_cast<double>(c.n)) / 1e6;
  };
  rec->Metric("cluster.load_ms", mean_ms(kLoadOp), "ms/load");
  rec->Metric("cluster.ingest_rows_per_s", ingest_rows_per_s, "rows/s");
  rec->Metric("cluster.network_bytes", per_stmt(static_cast<double>(network_bytes)), "B/stmt");
  rec->Metric("tuplemover.run_ms", mean_ms(kMoverOp), "ms/pass");
  rec->Metric("tuplemover.write_bytes",
              Ratio(static_cast<double>(tr.mover_write_bytes),
                    static_cast<double>(calls(tr, kMoverOp).n)),
              "B/pass");
  rec->Metric("tuplemover.ros_containers", static_cast<double>(containers), "count");
  rec->Metric("dml.insert_ms", mean_ms(kInsertOp), "ms/stmt");
  rec->Metric("dml.delete_ms", mean_ms(kDeleteOp), "ms/stmt");
  rec->Metric("dml.update_ms", mean_ms(kUpdateOp), "ms/stmt");
  rec->Metric("setup.load_ms", static_cast<double>(calls(setup_tr, kLoadOp).ns) / 1e6, "ms");
  rec->Metric("setup.tuplemover_ms", static_cast<double>(calls(setup_tr, kMoverOp).ns) / 1e6,
              "ms");

  // Tracing overhead and coverage, per SELECT kind weighted by the traced
  // counts: traced wall vs untraced Execute, and parse+plan+admit+drain vs
  // untraced Execute.
  double untraced = 0, traced_wall = 0, parts = 0;
  for (const auto& [kind, v] : tr.selects) {
    auto a = ref.by_kind.find(kind);
    auto b = traced.by_kind.find(kind);
    if (a == ref.by_kind.end() || b == traced.by_kind.end() || a->second.first == 0) continue;
    double cnt = static_cast<double>(v.first);
    untraced += cnt * a->second.second / static_cast<double>(a->second.first);
    traced_wall += cnt * b->second.second / static_cast<double>(b->second.first);
    const SelectTrace& t = v.second;
    parts += static_cast<double>(t.parse_ns + t.plan_ns + t.admit_ns + t.drain_ns) / 1e6;
  }
  rec->Metric("trace.overhead_pct", Ratio(traced_wall - untraced, untraced) * 100, "%");
  rec->Metric("trace.parts_pct", Ratio(parts, untraced) * 100, "%");
}

}  // namespace
}  // namespace e2e

int Main(int argc, char** argv) {
  using namespace e2e;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--tiny]\n");
    return 2;
  }
  auto workload = MakeWorkload(args.workload);
  if (!workload) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  Workload* w = workload.get();
  const size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  const size_t threads = std::min<size_t>(4, nproc);
  const int setups = args.trace || args.tiny ? 1 : 5;
  w->Generate(args.seed, args.tiny);

  // --- set-up, repeated; the last database is the one measured -------------
  std::unique_ptr<Database> db;
  std::shared_ptr<CountingFileSystem> fs;
  std::vector<double> setup_s, setup_ingest_s;
  Tracer setup_tr;
  uint64_t setup_write_bytes = 0;
  stratica::DatabaseOptions options = w->Options(threads);
  for (int i = 0; i < setups; ++i) {
    db.reset();
    fs = std::make_shared<CountingFileSystem>(std::make_shared<stratica::MemFileSystem>(),
                                              args.trace);
    options.fs = fs;
    db = std::make_unique<Database>(options);
    setup_tr = Tracer{};
    setup_tr.fs = fs.get();
    uint64_t start = NowNs();
    Status st;
    st = w->Setup(db.get(), &setup_tr);
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    if (!st.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
      return 1;
    }
    setup_ingest_s.push_back(
        static_cast<double>(setup_tr.calls[kLoadOp].ns + setup_tr.calls[kMoverOp].ns) / 1e9);
    setup_write_bytes = fs->Snapshot().write_bytes;
  }

  // Warm-up: whole cycles for a second, so caches fill and lazy
  // initialisation finishes before anything is timed.
  double warm_s = 0;
  Ops warm = RunPhase(w, db.get(), 1, 1.0, nullptr, &warm_s);

  Record rec;
  Ops all = warm;
  double wall = 0;
  if (!args.trace) {
    FsCounters fs0 = fs->Snapshot();
    Ops ops = RunPhase(w, db.get(), w->clients(), args.seconds, nullptr, &wall);
    FsCounters fs_delta = fs->Snapshot() - fs0;
    all.Merge(ops);
    StorageTotals storage = CensusAll(db.get());
    const bool ingests = ops.rows_ingested > 0;
    rec.Metric("setup_s", Median(setup_s), "s");
    rec.Metric("stmts_per_s", Ratio(static_cast<double>(ops.statements), wall), "1/s");
    rec.Metric("latency_p50_ms", Percentile(ops.latency_ms, 0.50), "ms");
    rec.Metric("latency_p95_ms", Percentile(ops.latency_ms, 0.95), "ms");
    rec.Metric("peak_rss_mb", PeakRssMb(), "MiB");
    rec.Metric("space_amp",
               Ratio(static_cast<double>(storage.bytes), static_cast<double>(storage.raw_bytes)),
               "ratio");
    // Read-only workloads write only in set-up: their write amplification
    // is the bulk-load path's (direct ROS loads plus the mover pass).
    rec.Metric("write_amp",
               ingests ? Ratio(static_cast<double>(fs_delta.write_bytes),
                               static_cast<double>(ops.bytes_ingested))
                       : Ratio(static_cast<double>(setup_write_bytes),
                               static_cast<double>(w->setup_bytes())),
               "ratio");
    rec.Meta("latency_samples", std::to_string(ops.latency_ms.size()));
    rec.Meta("samples_beyond_p95", std::to_string(SamplesBeyond(ops.latency_ms.size(), 0.95)));
    rec.Meta("latency_mean_ms_by_kind", KindMeans(ops));
    rec.Meta("window_s", JsonNum(wall));
    rec.Meta("stmts_each_second", JsonList(PerSecond(ops)));
    rec.Meta("rows_ingested", std::to_string(ops.rows_ingested));
    rec.Meta("ingest_rows_per_s", JsonNum(Ratio(static_cast<double>(ops.rows_ingested), wall)));
  } else {
    double wall_a = 0, wall_b = 0, wall_c = 0;
    Ops ref, traced;
    Tracer tr;
    tr.fs = fs.get();
    FsCounters fs_delta;
    uint64_t net = 0;
    const uint64_t ab_end = NowNs() + static_cast<uint64_t>(args.seconds * 2 / 3 * 1e9);
    do {
      double s = 0;
      ref.Merge(RunPhase(w, db.get(), 1, 0, nullptr, &s));
      wall_a += s;
      FsCounters fs0 = fs->Snapshot();
      uint64_t net0 = db->cluster()->network_bytes();
      traced.Merge(RunPhase(w, db.get(), 1, 0, &tr, &s));
      wall_b += s;
      fs_delta += fs->Snapshot() - fs0;
      net += db->cluster()->network_bytes() - net0;
    } while (NowNs() < ab_end);
    uint64_t containers = CensusAll(db.get()).containers;
    auto rm0 = db->resource_manager()->stats();
    Ops multi = RunPhase(w, db.get(), w->clients(), args.seconds / 3, nullptr, &wall_c);
    auto rm1 = db->resource_manager()->stats();
    // User rows committed per second: phase A's on ingest_mixed, the set-up
    // bulk load's on the read-only workloads.
    double ingest_rate =
        ref.rows_ingested > 0
            ? Ratio(static_cast<double>(ref.rows_ingested), wall_a)
            : Ratio(static_cast<double>(w->setup_rows()), Median(setup_ingest_s));
    TracedMetrics(tr, setup_tr, ref, traced, ingest_rate, fs_delta, net, containers, rm0, rm1,
                  &rec);
    all.Merge(ref);
    all.Merge(traced);
    all.Merge(multi);
    std::string fanout = "{";
    for (const auto& [kind, v] : tr.selects) {
      fanout += (fanout.size() > 1 ? ", \"q" : "\"q") + std::to_string(kind + 1) + "\": " +
                JsonNum(static_cast<double>(v.second.fanout) / static_cast<double>(v.first));
    }
    rec.Meta("granted_fanout_by_query", fanout + "}");
    rec.Meta("untraced_latency_mean_ms_by_kind", KindMeans(ref));
    rec.Meta("traced_latency_mean_ms_by_kind", KindMeans(traced));
    rec.Meta("traced_statements", std::to_string(traced.statements));
  }

  rec.Meta("workload", JsonString(args.workload));
  rec.Meta("seed", std::to_string(args.seed));
  rec.Meta("trace", args.trace ? "1" : "0");
  rec.Meta("tiny", args.tiny ? "true" : "false");
  rec.Meta("nproc", std::to_string(nproc));
  rec.Meta("worker_threads", std::to_string(options.worker_threads));
  rec.Meta("fanout", std::to_string(options.intra_node_parallelism));
  rec.Meta("nodes", std::to_string(options.num_nodes));
  rec.Meta("k_safety", std::to_string(options.k_safety));
  rec.Meta("clients", std::to_string(w->clients()));
  rec.Meta("build_type", JsonString(E2E_BUILD_TYPE));
  rec.Meta("setup_s_all", JsonList(setup_s));
  rec.Meta("error_rate",
           JsonNum(Ratio(static_cast<double>(all.failed), static_cast<double>(all.attempted))));
  std::string errors = "[";
  for (size_t i = 0; i < all.errors.size(); ++i)
    errors += (i ? ", " : "") + JsonString(all.errors[i]);
  rec.Meta("errors", errors + "]");

  // Tear the database down before printing so a crash in teardown cannot
  // follow a printed result.
  db.reset();
  std::printf("%s\n", rec.ToJson(all.failed == 0, all.attempted, all.failed).c_str());
  return 0;
}

// The whole run (set-ups and client 0) happens on one dedicated thread.
// On the main thread, ingest_mixed launches split into a fast and a slow
// set-up mode (0.13 s or 0.20 s for the same work); with a fresh thread per
// set-up, peak RSS ranged 280-470 MB as allocations spread over allocator
// arenas. One long-lived thread gave steady figures on both (README.md).
int main(int argc, char** argv) {
  int rc = 0;
  std::thread([&] { rc = Main(argc, argv); }).join();
  return rc;
}
