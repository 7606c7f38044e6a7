// ingest_mixed: the write path under a read. 3 nodes, k=1, one client.
// Each round: a 10k-row WOS load, a 50-row INSERT, a range DELETE of the
// oldest ids, a range UPDATE and a GROUP BY read; every fifth round a
// manual tuple-mover pass, so background work is deterministic and inside
// the timed window. The DELETE removes as many ids as the round added, so
// the table keeps a steady size however many rounds a run completes.
//
// The oracle is a shadow std::map of the table, updated after each DML.
#include <array>
#include <map>

#include "workload.h"

namespace e2e {
namespace {

using stratica::RowBlock;
using stratica::TypeId;

constexpr int64_t kGroups = 16;
constexpr uint64_t kRowBytes = 24;  // three INT columns
constexpr int kRoundSteps = 5;
constexpr int kMoverEvery = 5;

class IngestMixed : public Workload {
 public:
  stratica::DatabaseOptions Options(size_t threads) const override {
    stratica::DatabaseOptions o;
    o.num_nodes = 3;
    o.k_safety = 1;
    o.intra_node_parallelism = threads;
    o.worker_threads = threads;
    return o;
  }
  int clients() const override { return 1; }
  int cycle_steps() const override { return kRoundSteps * kMoverEvery; }

  void Generate(uint64_t seed, bool tiny) override {
    base_rows_ = tiny ? 2000 : 100000;
    batch_rows_ = tiny ? 200 : 10000;
    insert_rows_ = tiny ? 10 : 50;
    update_rows_ = tiny ? 20 : 200;
    seed_ = seed;
  }
  Status Setup(Database* db, Tracer* tr) override;
  uint64_t setup_rows() const override { return base_rows_; }
  uint64_t setup_bytes() const override { return base_rows_ * kRowBytes; }
  void Step(Database* db, int, Tracer* tr, Ops* ops) override;

 private:
  struct Val {
    int64_t grp, val;
  };
  /// Rows for ids [from, from + n), recorded in the shadow model.
  RowBlock MakeRows(int64_t from, int64_t n);
  void Put(int64_t id, Val v);
  void Erase(std::map<int64_t, Val>::iterator it);
  Rows ShadowGroups() const;

  int64_t base_rows_ = 0, batch_rows_ = 0, insert_rows_ = 0, update_rows_ = 0;
  uint64_t seed_ = 0;
  SplitMix rng_{0};
  std::map<int64_t, Val> shadow_;
  std::array<int64_t, kGroups> count_{}, sum_{};
  int64_t lo_ = 0, hi_ = 0;  ///< live ids are [lo_, hi_)
  uint64_t step_ = 0;
};

RowBlock IngestMixed::MakeRows(int64_t from, int64_t n) {
  RowBlock rows(std::vector<TypeId>{TypeId::kInt64, TypeId::kInt64, TypeId::kInt64});
  for (int64_t id = from; id < from + n; ++id) {
    Val v{rng_.Range(0, kGroups - 1), rng_.Range(0, 999)};
    rows.columns[0].ints.push_back(id);
    rows.columns[1].ints.push_back(v.grp);
    rows.columns[2].ints.push_back(v.val);
    Put(id, v);
  }
  return rows;
}

void IngestMixed::Put(int64_t id, Val v) {
  shadow_[id] = v;
  ++count_[v.grp];
  sum_[v.grp] += v.val;
}

void IngestMixed::Erase(std::map<int64_t, Val>::iterator it) {
  --count_[it->second.grp];
  sum_[it->second.grp] -= it->second.val;
  shadow_.erase(it);
}

Rows IngestMixed::ShadowGroups() const {
  Rows rows;
  for (int64_t g = 0; g < kGroups; ++g) {
    if (count_[g] > 0)
      rows.push_back({static_cast<double>(g), static_cast<double>(count_[g]),
                      static_cast<double>(sum_[g])});
  }
  return rows;
}

Status IngestMixed::Setup(Database* db, Tracer* tr) {
  rng_ = SplitMix(seed_);
  shadow_.clear();
  count_.fill(0);
  sum_.fill(0);
  step_ = 0;
  lo_ = 0;
  hi_ = base_rows_;
  STRATICA_RETURN_NOT_OK(SetupDdl(db, "CREATE TABLE events (id INT, grp INT, val INT)"));
  STRATICA_RETURN_NOT_OK(SetupLoad(db, "events", MakeRows(0, base_rows_), tr));
  return SetupMover(db, tr);
}

void IngestMixed::Step(Database* db, int, Tracer* tr, Ops* ops) {
  uint64_t round = step_ / kRoundSteps;
  switch (step_++ % kRoundSteps) {
    case 0: {  // WOS load of a fresh id range
      RowBlock rows = MakeRows(hi_, batch_rows_);
      hi_ += batch_rows_;
      RunCheckedLoad(db, "events", rows, /*direct=*/false, kRowBytes, tr, ops);
      break;
    }
    case 1: {  // small INSERT ... VALUES
      std::string sql = "INSERT INTO events VALUES ";
      for (int64_t i = 0; i < insert_rows_; ++i) {
        Val v{rng_.Range(0, kGroups - 1), rng_.Range(0, 999)};
        if (i) sql += ", ";
        sql += "(" + std::to_string(hi_ + i) + ", " + std::to_string(v.grp) + ", " +
               std::to_string(v.val) + ")";
        Put(hi_ + i, v);
      }
      hi_ += insert_rows_;
      if (RunCheckedDml(db, sql, kInsertOp, insert_rows_, tr, ops)) {
        ops->rows_ingested += insert_rows_;
        ops->bytes_ingested += insert_rows_ * kRowBytes;
      }
      break;
    }
    case 2: {  // range DELETE of the oldest ids, as many as the round added
      int64_t to = lo_ + batch_rows_ + insert_rows_;
      uint64_t n = 0;
      for (auto it = shadow_.lower_bound(lo_); it != shadow_.end() && it->first < to; ++n)
        Erase(it++);
      RunCheckedDml(db,
                    "DELETE FROM events WHERE id >= " + std::to_string(lo_) +
                        " AND id < " + std::to_string(to),
                    kDeleteOp, n, tr, ops);
      lo_ = to;
      break;
    }
    case 3: {  // UPDATE a random id range inside the live window
      int64_t from = rng_.Range(lo_, hi_ - update_rows_);
      int64_t to = from + update_rows_;
      uint64_t n = 0;
      for (auto it = shadow_.lower_bound(from); it != shadow_.end() && it->first < to; ++it) {
        ++n;
        ++it->second.val;
        ++sum_[it->second.grp];
      }
      RunCheckedDml(db,
                    "UPDATE events SET val = val + 1 WHERE id >= " + std::to_string(from) +
                        " AND id < " + std::to_string(to),
                    kUpdateOp, n, tr, ops);
      break;
    }
    case 4:  // GROUP BY read over WOS + ROS + delete vectors
      RunCheckedSelect(db, "SELECT grp, COUNT(*), SUM(val) FROM events GROUP BY grp", 0,
                       ShadowGroups(), /*ordered=*/false, tr, ops);
      if ((round + 1) % kMoverEvery == 0) RunMover(db, tr, ops);
      break;
  }
}

}  // namespace

std::unique_ptr<Workload> MakeIngestMixed() { return std::make_unique<IngestMixed>(); }

}  // namespace e2e
