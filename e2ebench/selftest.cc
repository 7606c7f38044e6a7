// Self-tests of the benchmark's own code: percentile math, the result
// oracle, and the counting FileSystem wrapper. Exits non-zero on failure.
//
//   e2e_selftest
#include <cmath>
#include <cstdio>
#include <string>

#include "workload.h"

namespace e2e {
namespace {

int failures = 0;

#define EXPECT(cond)                                                      \
  do {                                                                    \
    if (!(cond)) {                                                        \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, #cond); \
      ++failures;                                                         \
    }                                                                     \
  } while (0)

void TestPercentiles() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  EXPECT(Percentile(v, 0.50) == 50);
  EXPECT(Percentile(v, 0.95) == 95);
  EXPECT(Percentile(v, 1.0) == 100);
  EXPECT(Percentile(v, 0.001) == 1);
  EXPECT(Percentile({}, 0.5) == 0);
  EXPECT(Percentile({7}, 0.95) == 7);
  EXPECT(Median({3, 1, 2}) == 2);
  EXPECT(Median({4, 1, 3, 2}) == 2.5);
  EXPECT(SamplesBeyond(100, 0.95) == 5);
  EXPECT(SamplesBeyond(200, 0.95) == 10);
  EXPECT(SamplesBeyond(0, 0.95) == 0);
}

void TestRowComparison() {
  Rows want = {{1, 10}, {2, 20.5}};
  EXPECT(SameRows({{2, 20.5}, {1, 10}}, want, /*ordered=*/false));
  EXPECT(!SameRows({{2, 20.5}, {1, 10}}, want, /*ordered=*/true));
  EXPECT(SameRows({{1, 10}, {2, 20.5 * (1 + 1e-12)}}, want, true));
  EXPECT(!SameRows({{1, 10}, {2, 20.5 * (1 + 1e-6)}}, want, true));
  EXPECT(!SameRows({{1, 11}, {2, 20.5}}, want, true));
  EXPECT(!SameRows({{1, 10}}, want, false));
  EXPECT(!SameRows({{1, 10, 0}, {2, 20.5}}, want, false));
}

void TestCountingFileSystem() {
  CountingFileSystem fs(std::make_shared<stratica::MemFileSystem>(), /*timed=*/false);
  EXPECT(fs.WriteFile("a", "hello").ok());
  EXPECT(fs.WriteFile("b", std::string(1000, 'x')).ok());
  EXPECT(fs.ReadFile("a").ok());
  EXPECT(fs.ReadRange("b", 10, 100).ok());
  std::string buf;
  EXPECT(fs.ReadRangeInto("b", 0, 40, &buf).ok() && buf.size() == 40);
  EXPECT(!fs.ReadFile("missing").ok());
  FsCounters c = fs.Snapshot();
  EXPECT(c.write_ops == 2 && c.write_bytes == 1005);
  EXPECT(c.read_ops == 4 && c.read_bytes == 5 + 100 + 40);
  EXPECT(c.read_ns == 0 && c.write_ns == 0);  // untimed wrapper keeps no clocks
  // Metadata calls pass through uncounted.
  EXPECT(fs.Exists("a") && fs.FileSize("b").value() == 1000);
  EXPECT(fs.Delete("a").ok() && !fs.Exists("a"));
  FsCounters d = fs.Snapshot() - c;
  EXPECT(d.read_ops == 0 && d.write_ops == 0);

  CountingFileSystem timed(std::make_shared<stratica::MemFileSystem>(), /*timed=*/true);
  EXPECT(timed.WriteFile("a", std::string(1 << 20, 'y')).ok());
  EXPECT(timed.ReadFile("a").ok());
  EXPECT(timed.Snapshot().write_ns > 0 && timed.Snapshot().read_ns > 0);
}

/// Runs a tiny workload through set-up, a first batch of steps, then a
/// DELETE issued behind the oracle's back, then more steps. The oracle must
/// pass every statement before the tamper and fail at least one after.
void TestOracleCatchesTampering(const std::string& name, const std::string& tamper) {
  auto w = MakeWorkload(name);
  w->Generate(7, /*tiny=*/true);
  stratica::DatabaseOptions options = w->Options(2);
  Database db(options);
  EXPECT(w->Setup(&db, nullptr).ok());
  Ops before, after;
  for (int i = 0; i < 12; ++i) w->Step(&db, 0, nullptr, &before);
  EXPECT(before.attempted >= 12 && before.failed == 0);
  for (const auto& e : before.errors) std::fprintf(stderr, "  %s\n", e.c_str());
  EXPECT(db.Execute(tamper).ok());
  for (int i = 0; i < 12; ++i) w->Step(&db, 0, nullptr, &after);
  EXPECT(after.failed > 0);
}

}  // namespace
}  // namespace e2e

int main() {
  using namespace e2e;
  TestPercentiles();
  TestRowComparison();
  TestCountingFileSystem();
  TestOracleCatchesTampering("tpch_cstore", "DELETE FROM customer WHERE c_nationkey = 3");
  TestOracleCatchesTampering("meter_dashboard", "DELETE FROM readings WHERE meter = 1");
  // After twelve tiny steps the live ids are [420, 2630), so these rows are
  // live and stay live for the next twelve steps.
  TestOracleCatchesTampering("ingest_mixed", "DELETE FROM events WHERE id >= 1000 AND id < 1100");
  if (failures) {
    std::fprintf(stderr, "%d self-test check(s) failed\n", failures);
    return 1;
  }
  std::printf("e2ebench self-tests passed\n");
  return 0;
}
