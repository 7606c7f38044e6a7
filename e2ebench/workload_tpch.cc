// tpch_cstore: the seven C-Store queries of Table 3 plus COUNT(*) over the
// TPC-H-derived schema of bench/bench_table3_cstore_comparison.cc, one
// node, k=0, one client. Execution-bound: scan/decode, join build/probe,
// group-by and the scheduler do nearly all the work.
#include <map>

#include "common/types.h"
#include "workload.h"

namespace e2e {
namespace {

using stratica::RowBlock;
using stratica::TypeId;

class TpchCstore : public Workload {
 public:
  stratica::DatabaseOptions Options(size_t threads) const override {
    stratica::DatabaseOptions o;
    o.num_nodes = 1;
    o.k_safety = 0;
    o.local_segments_per_node = 1;
    o.intra_node_parallelism = threads;
    o.worker_threads = threads;
    return o;
  }
  int clients() const override { return 1; }
  int cycle_steps() const override { return static_cast<int>(queries_.size()); }

  void Generate(uint64_t seed, bool tiny) override;
  Status Setup(Database* db, Tracer* tr) override;
  uint64_t setup_rows() const override {
    return lineitem_.NumRows() + orders_.NumRows() + customers_.NumRows();
  }
  uint64_t setup_bytes() const override {
    return 8 * (4 * lineitem_.NumRows() + 3 * orders_.NumRows() + 2 * customers_.NumRows());
  }
  void Step(Database* db, int, Tracer* tr, Ops* ops) override {
    const Query& q = queries_[next_++ % queries_.size()];
    RunCheckedSelect(db, q.sql, q.kind, q.want, /*ordered=*/false, tr, ops);
  }

 private:
  struct Query {
    std::string sql;
    int kind;
    Rows want;
  };

  RowBlock lineitem_{std::vector<TypeId>{TypeId::kDate, TypeId::kInt64, TypeId::kInt64,
                                         TypeId::kFloat64}};
  RowBlock orders_{std::vector<TypeId>{TypeId::kDate, TypeId::kInt64, TypeId::kInt64}};
  RowBlock customers_{std::vector<TypeId>{TypeId::kInt64, TypeId::kInt64}};
  std::vector<Query> queries_;
  size_t next_ = 0;
};

template <typename K, typename V>
Rows ToRowsOf(const std::map<K, V>& groups) {
  Rows rows;
  for (const auto& [k, v] : groups)
    rows.push_back({static_cast<double>(k), static_cast<double>(v)});
  return rows;
}

void TpchCstore::Generate(uint64_t seed, bool tiny) {
  const int64_t n_lineitem = tiny ? 6000 : 600000;
  const int64_t n_orders = n_lineitem / 4, n_customers = n_orders / 10;
  const int64_t n_suppliers = 500, n_nations = 25;
  SplitMix rng(seed);
  const int64_t base = stratica::MakeDate(1992, 1, 1);
  const int64_t span = stratica::MakeDate(1998, 12, 31) - base;
  auto& odate = orders_.columns[0].ints;
  for (int64_t o = 0; o < n_orders; ++o) {
    odate.push_back(base + rng.Range(0, span));
    orders_.columns[1].ints.push_back(o);
    orders_.columns[2].ints.push_back(rng.Range(0, n_customers - 1));
  }
  for (int64_t l = 0; l < n_lineitem; ++l) {
    int64_t order = rng.Range(0, n_orders - 1);
    lineitem_.columns[0].ints.push_back(odate[order] + rng.Range(1, 90));
    lineitem_.columns[1].ints.push_back(rng.Range(0, n_suppliers - 1));
    lineitem_.columns[2].ints.push_back(order);
    lineitem_.columns[3].doubles.push_back(900.0 + rng.Unit() * 104000.0);
  }
  for (int64_t c = 0; c < n_customers; ++c) {
    customers_.columns[0].ints.push_back(c);
    customers_.columns[1].ints.push_back(rng.Range(0, n_nations - 1));
  }

  // Shipdate/orderdate midpoint: the range predicates select about half.
  const int64_t d = base + span / 2;
  // Oracle: the answers straight from the generated arrays (order keys are
  // array indexes, so the joins are lookups).
  std::map<int64_t, int64_t> q1, q2, q3, q4, q5, q6;
  std::map<int64_t, double> q7;
  const auto& ship = lineitem_.columns[0].ints;
  const auto& supp = lineitem_.columns[1].ints;
  const auto& lorder = lineitem_.columns[2].ints;
  const auto& price = lineitem_.columns[3].doubles;
  const auto& cust = orders_.columns[2].ints;
  const auto& nation = customers_.columns[1].ints;
  for (size_t l = 0; l < ship.size(); ++l) {
    if (ship[l] > d) ++q1[ship[l]], ++q3[supp[l]];
    if (ship[l] == d) ++q2[supp[l]];
    int64_t od = odate[lorder[l]];
    if (od > d) {
      ++q4[ship[l]];
      ++q6[supp[l]];
      q7[nation[cust[lorder[l]]]] += price[l];
    }
    if (od == d) ++q5[supp[l]];
  }

  const std::string lit = "DATE '" + stratica::FormatDate(d) + "'";
  const std::string join = " FROM lineitem JOIN orders ON l_orderkey = o_orderkey WHERE ";
  queries_ = {
      {"SELECT l_shipdate, COUNT(*) FROM lineitem WHERE l_shipdate > " + lit +
           " GROUP BY l_shipdate", 0, ToRowsOf(q1)},
      {"SELECT l_suppkey, COUNT(*) FROM lineitem WHERE l_shipdate = " + lit +
           " GROUP BY l_suppkey", 1, ToRowsOf(q2)},
      {"SELECT l_suppkey, COUNT(*) FROM lineitem WHERE l_shipdate > " + lit +
           " GROUP BY l_suppkey", 2, ToRowsOf(q3)},
      {"SELECT l_shipdate, COUNT(*)" + join + "o_orderdate > " + lit + " GROUP BY l_shipdate",
       3, ToRowsOf(q4)},
      {"SELECT l_suppkey, COUNT(*)" + join + "o_orderdate = " + lit + " GROUP BY l_suppkey",
       4, ToRowsOf(q5)},
      {"SELECT l_suppkey, COUNT(*)" + join + "o_orderdate > " + lit + " GROUP BY l_suppkey",
       5, ToRowsOf(q6)},
      {"SELECT c_nationkey, SUM(l_extendedprice) FROM lineitem JOIN orders ON l_orderkey = "
       "o_orderkey JOIN customer ON o_custkey = c_custkey WHERE o_orderdate > " + lit +
           " GROUP BY c_nationkey", 6, ToRowsOf(q7)},
      {"SELECT COUNT(*) FROM lineitem", 7, {{static_cast<double>(ship.size())}}},
  };
}

Status TpchCstore::Setup(Database* db, Tracer* tr) {
  next_ = 0;
  STRATICA_RETURN_NOT_OK(SetupDdl(db, "CREATE TABLE lineitem (l_shipdate DATE, l_suppkey INT, "
                                      "l_orderkey INT, l_extendedprice FLOAT)"));
  STRATICA_RETURN_NOT_OK(
      SetupDdl(db, "CREATE TABLE orders (o_orderdate DATE, o_orderkey INT, o_custkey INT)"));
  STRATICA_RETURN_NOT_OK(SetupDdl(db, "CREATE TABLE customer (c_custkey INT, c_nationkey INT)"));
  STRATICA_RETURN_NOT_OK(SetupLoad(db, "lineitem", lineitem_, tr));
  STRATICA_RETURN_NOT_OK(SetupLoad(db, "orders", orders_, tr));
  STRATICA_RETURN_NOT_OK(SetupLoad(db, "customer", customers_, tr));
  return SetupMover(db, tr);
}

}  // namespace

std::unique_ptr<Workload> MakeTpchCstore() { return std::make_unique<TpchCstore>(); }

}  // namespace e2e
