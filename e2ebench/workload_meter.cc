// meter_dashboard: short dashboard queries over Section 8.2.2-style meter
// readings sorted by (metric, meter, collected), 4 nodes, k=1, two clients.
// Each statement returns at most a dozen rows, so parse, plan, admission,
// pruning and exchange set-up are a large share of its latency.
#include <algorithm>
#include <iterator>

#include "workload.h"

namespace e2e {
namespace {

using stratica::RowBlock;
using stratica::TypeId;

constexpr int64_t kReadingsPerMeter = 288;  // one day at 5-minute intervals
constexpr int64_t kInterval = 300;          // seconds between readings
constexpr int64_t kT0 = 1338508800;         // 2012-06-01 00:00:00 UTC
constexpr size_t kMixLength = 256;

class MeterDashboard : public Workload {
 public:
  stratica::DatabaseOptions Options(size_t threads) const override {
    stratica::DatabaseOptions o;
    o.num_nodes = 4;
    o.k_safety = 1;
    o.intra_node_parallelism = threads;
    o.worker_threads = threads;
    return o;
  }
  int clients() const override { return 2; }
  int cycle_steps() const override { return 4; }

  void Generate(uint64_t seed, bool tiny) override;
  Status Setup(Database* db, Tracer* tr) override {
    std::fill(std::begin(next_), std::end(next_), 0);
    STRATICA_RETURN_NOT_OK(SetupDdl(
        db, "CREATE TABLE readings (metric INT, meter INT, collected INT, value FLOAT)"));
    STRATICA_RETURN_NOT_OK(SetupLoad(db, "readings", rows_, tr));
    return SetupMover(db, tr);
  }
  uint64_t setup_rows() const override { return rows_.NumRows(); }
  uint64_t setup_bytes() const override { return rows_.NumRows() * 32; }
  void Step(Database* db, int client, Tracer* tr, Ops* ops) override {
    // Clients start half a mix apart so they do not run the same statement.
    size_t i = (next_[client]++ + client * kMixLength / 2) % kMixLength;
    const Query& q = mix_[i];
    RunCheckedSelect(db, q.sql, q.kind, q.want, q.ordered, tr, ops);
  }

 private:
  struct Query {
    std::string sql;
    int kind;
    bool ordered;
    Rows want;
  };
  /// Value of reading k of (metric, meter): rows are generated in
  /// (metric, meter, collected) order.
  double ValueAt(int64_t metric, int64_t meter, int64_t k) const {
    return rows_.columns[3].doubles[(metric * meters_ + meter) * kReadingsPerMeter + k];
  }

  int64_t metrics_ = 0, meters_ = 0;
  RowBlock rows_{std::vector<TypeId>{TypeId::kInt64, TypeId::kInt64, TypeId::kInt64,
                                     TypeId::kFloat64}};
  std::vector<Query> mix_;
  size_t next_[2] = {0, 0};
};

void MeterDashboard::Generate(uint64_t seed, bool tiny) {
  metrics_ = tiny ? 4 : 30;
  meters_ = tiny ? 10 : 100;
  SplitMix rng(seed);
  for (int64_t metric = 0; metric < metrics_; ++metric) {
    for (int64_t meter = 0; meter < meters_; ++meter) {
      double value = 50 + rng.Unit() * 10;
      for (int64_t k = 0; k < kReadingsPerMeter; ++k) {
        value += rng.Unit() - 0.5;
        rows_.columns[0].ints.push_back(metric);
        rows_.columns[1].ints.push_back(meter);
        rows_.columns[2].ints.push_back(kT0 + k * kInterval);
        rows_.columns[3].doubles.push_back(value);
      }
    }
  }

  // A fixed seeded mix, the four shapes in turn.
  for (size_t i = 0; i < kMixLength; ++i) {
    int64_t m = rng.Range(0, metrics_ - 1);
    std::string where = " FROM readings WHERE metric = " + std::to_string(m);
    Query q;
    q.kind = static_cast<int>(i % 4);
    q.ordered = false;
    if (q.kind == 0) {  // point aggregate on (metric, meter)
      int64_t meter = rng.Range(0, meters_ - 1);
      q.sql = "SELECT COUNT(*), SUM(value), MIN(value), MAX(value)" + where +
              " AND meter = " + std::to_string(meter);
      double sum = 0, lo = ValueAt(m, meter, 0), hi = lo;
      for (int64_t k = 0; k < kReadingsPerMeter; ++k) {
        double v = ValueAt(m, meter, k);
        sum += v;
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
      q.want = {{static_cast<double>(kReadingsPerMeter), sum, lo, hi}};
    } else if (q.kind == 1) {  // top-5 meters of one metric
      q.sql = "SELECT meter, AVG(value) AS avg_v" + where +
              " GROUP BY meter ORDER BY avg_v DESC LIMIT 5";
      q.ordered = true;
      Rows avgs;
      for (int64_t meter = 0; meter < meters_; ++meter) {
        double sum = 0;
        for (int64_t k = 0; k < kReadingsPerMeter; ++k) sum += ValueAt(m, meter, k);
        avgs.push_back({static_cast<double>(meter), sum / kReadingsPerMeter});
      }
      std::sort(avgs.begin(), avgs.end(), [](const Row& a, const Row& b) { return a[1] > b[1]; });
      avgs.resize(std::min<size_t>(5, avgs.size()));
      q.want = avgs;
    } else if (q.kind == 2) {  // COUNT(*) for one metric
      q.sql = "SELECT COUNT(*)" + where;
      q.want = {{static_cast<double>(meters_ * kReadingsPerMeter)}};
    } else {  // ORDER BY ... LIMIT time slice
      int64_t from = rng.Range(0, kReadingsPerMeter - 8);
      q.sql = "SELECT meter, collected, value" + where +
              " AND collected >= " + std::to_string(kT0 + from * kInterval) +
              " ORDER BY collected, meter LIMIT 12";
      q.ordered = true;
      for (int64_t k = from; k < kReadingsPerMeter && q.want.size() < 12; ++k) {
        for (int64_t meter = 0; meter < meters_ && q.want.size() < 12; ++meter) {
          q.want.push_back({static_cast<double>(meter),
                            static_cast<double>(kT0 + k * kInterval), ValueAt(m, meter, k)});
        }
      }
    }
    mix_.push_back(std::move(q));
  }
}

}  // namespace

std::unique_ptr<Workload> MakeMeterDashboard() { return std::make_unique<MeterDashboard>(); }

}  // namespace e2e
