// Tuple mover tests (DESIGN.md §8), checked against a model of the
// workload rather than against another implementation: every row carries a
// unique id, and after moveout/mergeout the containers must hold exactly the
// ids the model says survive, sorted on the projection's sort order, with
// purge counts and re-targeted delete vectors matching the deletes issued.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>

#include "common/rng.h"
#include "storage/projection_storage.h"
#include "storage/sort_util.h"
#include "tuplemover/tuple_mover.h"
#include "txn/transaction.h"

namespace stratica {
namespace {

struct MoverWorld {
  MemFileSystem fs;
  EpochManager epochs;
  LockManager locks;
  std::unique_ptr<TransactionManager> tm;
  std::unique_ptr<ProjectionStorage> ps;
  std::unique_ptr<TupleMover> mover;

  // The model: ids (column v) of every inserted row, and the ids deleted in
  // each delete round.
  std::set<int64_t> inserted;
  std::set<int64_t> deleted[2];

  MoverWorld() {
    tm = std::make_unique<TransactionManager>(&epochs, &locks);
    TupleMoverConfig cfg;
    cfg.strata_base_bytes = 16 << 10;
    cfg.merge_fanin_min = 2;
    mover = std::make_unique<TupleMover>(&epochs, cfg);
    ProjectionStorageConfig pcfg;
    pcfg.projection = "p";
    pcfg.column_names = {"k", "s", "v"};
    pcfg.column_types = {TypeId::kInt64, TypeId::kString, TypeId::kInt64};
    pcfg.encodings = {EncodingId::kAuto, EncodingId::kAuto, EncodingId::kAuto};
    pcfg.sort_columns = {0, 1};  // int + string: fixed and variable key parts
    pcfg.num_local_segments = 1;
    ps = std::make_unique<ProjectionStorage>(&fs, "node0/p", pcfg);
  }

  /// Batches of skewed keys (duplicates across and within batches) with
  /// per-batch moveout, committed deletes in two rounds, an AHM between the
  /// rounds, then mergeout to quiescence.
  void RunWorkload() {
    Rng rng(77);
    for (int batch = 0; batch < 6; ++batch) {
      RowBlock rows({TypeId::kInt64, TypeId::kString, TypeId::kInt64});
      for (int i = 0; i < 500; ++i) {
        int64_t id = batch * 1000 + i;
        rows.columns[0].ints.push_back(rng.Range(0, 40));
        rows.columns[1].strings.push_back(rng.RandomString(rng.Uniform(5)));
        rows.columns[2].ints.push_back(id);
        inserted.insert(id);
      }
      auto txn = tm->Begin();
      ASSERT_TRUE(ps->InsertWos(std::move(rows), txn.get()).ok());
      ASSERT_TRUE(tm->Commit(txn).ok());
      ASSERT_TRUE(mover->Moveout(ps.get()).ok());
    }
    // Committed deletes on the first two containers; the model records the
    // id at every deleted position.
    auto containers = ps->Containers();
    ASSERT_GE(containers.size(), 2u);
    std::sort(containers.begin(), containers.end(),
              [](const RosContainerPtr& a, const RosContainerPtr& b) {
                return a->id < b->id;
              });
    for (int round = 0; round < 2; ++round) {
      RowBlock rows;
      ASSERT_TRUE(ReadRosContainer(&fs, *containers[round], &rows, nullptr).ok());
      auto txn = tm->Begin();
      std::vector<uint64_t> positions;
      for (uint64_t p = static_cast<uint64_t>(round); p < 60; p += 7) {
        positions.push_back(p);
        deleted[round].insert(rows.columns[2].ints[p]);
      }
      ASSERT_TRUE(
          ps->AddDeletes(containers[round]->id, std::move(positions), txn.get()).ok());
      ASSERT_TRUE(tm->Commit(txn).ok());
    }
    // AHM between the two delete epochs: round 0's deletes purge at
    // mergeout, round 1's survive as re-targeted delete vectors.
    epochs.AdvanceAhm(epochs.LatestQueryableEpoch() - 1);
    ASSERT_TRUE(mover->MergeoutAll(ps.get()).ok());
  }
};

TEST(TupleMoverModelTest, MergeoutMatchesModel) {
  MoverWorld world;
  world.RunWorkload();
  const TupleMoverStats& stats = world.mover->stats();
  EXPECT_GT(stats.mergeouts, 0u);
  // Exactly the rows deleted at or before the AHM were purged.
  EXPECT_EQ(stats.rows_purged, world.deleted[0].size());

  std::vector<int64_t> stored;    // ids physically present, with repeats
  std::set<int64_t> delete_targets;  // ids the surviving deletes point at
  for (const auto& c : world.ps->Containers()) {
    RowBlock rows;
    std::vector<Epoch> epochs;
    ASSERT_TRUE(ReadRosContainer(&world.fs, *c, &rows, &epochs).ok());
    EXPECT_TRUE(IsSorted(rows, {0, 1})) << "container " << c->id;
    for (size_t r = 0; r < rows.NumRows(); ++r) stored.push_back(rows.columns[2].ints[r]);
    for (const auto& d : world.ps->ContainerDeleteChunks(c->id)) {
      for (uint64_t pos : d->positions) {
        ASSERT_LT(pos, rows.NumRows()) << "container " << c->id;
        delete_targets.insert(rows.columns[2].ints[pos]);
      }
    }
  }
  // Live ids = inserted minus purged, each exactly once.
  std::vector<int64_t> want;
  std::set_difference(world.inserted.begin(), world.inserted.end(),
                      world.deleted[0].begin(), world.deleted[0].end(),
                      std::back_inserter(want));
  std::sort(stored.begin(), stored.end());
  EXPECT_EQ(stored, want);
  // Every surviving delete points at a round-1 id, and none was lost.
  EXPECT_EQ(delete_targets, world.deleted[1]);
}

TEST(TupleMoverModelTest, MoveoutSortsAndKeepsArrivalOrderOfEqualKeys) {
  MoverWorld world;
  Rng rng(5);
  // Several committed chunks in one moveout: the per-chunk sort + k-way
  // merge must produce one fully sorted container in which rows with equal
  // keys keep their WOS arrival order (v counts arrivals). A two-letter
  // string domain makes equal (k, s) keys common within and across chunks.
  constexpr int kChunks = 4, kRowsPerChunk = 300;
  for (int chunk = 0; chunk < kChunks; ++chunk) {
    RowBlock rows({TypeId::kInt64, TypeId::kString, TypeId::kInt64});
    for (int i = 0; i < kRowsPerChunk; ++i) {
      rows.columns[0].ints.push_back(rng.Range(0, 25));
      rows.columns[1].strings.push_back(std::string(1, 'a' + rng.Uniform(2)));
      rows.columns[2].ints.push_back(chunk * kRowsPerChunk + i);
    }
    auto txn = world.tm->Begin();
    ASSERT_TRUE(world.ps->InsertWos(std::move(rows), txn.get()).ok());
    ASSERT_TRUE(world.tm->Commit(txn).ok());
  }
  ASSERT_TRUE(world.mover->Moveout(world.ps.get()).ok());
  EXPECT_EQ(world.ps->WosRowCount(), 0u);
  auto containers = world.ps->Containers();
  ASSERT_EQ(containers.size(), 1u);
  RowBlock rows;
  std::vector<Epoch> epochs;
  ASSERT_TRUE(ReadRosContainer(&world.fs, *containers[0], &rows, &epochs).ok());
  ASSERT_EQ(rows.NumRows(), static_cast<size_t>(kChunks * kRowsPerChunk));
  EXPECT_TRUE(IsSorted(rows, {0, 1}));
  size_t ties = 0;
  for (size_t r = 1; r < rows.NumRows(); ++r) {
    if (CompareRows(rows, r - 1, rows, r, {0, 1}, {0, 1}) != 0) continue;
    ++ties;
    ASSERT_LT(rows.columns[2].ints[r - 1], rows.columns[2].ints[r])
        << "equal keys out of arrival order at row " << r;
  }
  EXPECT_GT(ties, 0u);
  std::vector<int64_t> ids = rows.columns[2].ints;
  std::sort(ids.begin(), ids.end());
  for (size_t i = 0; i < ids.size(); ++i) ASSERT_EQ(ids[i], static_cast<int64_t>(i));
}

}  // namespace
}  // namespace stratica
