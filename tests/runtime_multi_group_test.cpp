#include "runtime/multi_group.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/algorithms.h"
#include "util/rng.h"

namespace avoc::runtime {
namespace {

// One noisy table per group, each from its own deterministic stream so
// groups exercise genuinely different data.
std::vector<data::RoundTable> MakeTables(size_t groups, size_t modules,
                                         size_t rounds) {
  std::vector<data::RoundTable> tables;
  tables.reserve(groups);
  for (size_t g = 0; g < groups; ++g) {
    std::vector<std::string> names;
    for (size_t m = 0; m < modules; ++m) {
      names.push_back("m" + std::to_string(m));
    }
    data::RoundTable table(names);
    avoc::Rng rng(1234 + g);
    for (size_t r = 0; r < rounds; ++r) {
      std::vector<std::optional<double>> row;
      const double base = 20.0 + static_cast<double>(g);
      for (size_t m = 0; m < modules; ++m) {
        // Module 0 drifts badly in odd groups: distinct per-group history.
        const double bias = (m == 0 && g % 2 == 1) ? 4.0 : 0.0;
        row.emplace_back(base + bias + rng.Uniform(-0.3, 0.3));
      }
      EXPECT_TRUE(table.AppendRound(row).ok());
    }
    tables.push_back(std::move(table));
  }
  return tables;
}

core::EngineConfig AvocConfig() {
  auto engine = core::MakeEngine(core::AlgorithmId::kAvoc, 3);
  EXPECT_TRUE(engine.ok());
  return engine->config();
}

TEST(MultiGroupEngineTest, CreateValidates) {
  EXPECT_FALSE(MultiGroupEngine::Create(0, 3, AvocConfig()).ok());
  EXPECT_FALSE(MultiGroupEngine::Create(4, 0, AvocConfig()).ok());
  auto engine = MultiGroupEngine::Create(4, 3, AvocConfig());
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ(engine->group_count(), 4u);
  EXPECT_EQ(engine->module_count(), 3u);
}

TEST(MultiGroupEngineTest, RunBatchRejectsShapeMismatches) {
  auto engine = MultiGroupEngine::Create(4, 3, AvocConfig());
  ASSERT_TRUE(engine.ok());
  EXPECT_FALSE(engine->RunBatch(MakeTables(3, 3, 5)).ok());  // group count
  EXPECT_FALSE(engine->RunBatch(MakeTables(4, 2, 5)).ok());  // module count
}

TEST(MultiGroupEngineTest, ParallelMatchesSequentialBitForBit) {
  const auto tables = MakeTables(8, 3, 40);
  MultiGroupOptions options;
  options.threads = 4;
  auto parallel = MultiGroupEngine::Create(8, 3, AvocConfig(), options);
  auto sequential = MultiGroupEngine::Create(8, 3, AvocConfig());
  ASSERT_TRUE(parallel.ok());
  ASSERT_TRUE(sequential.ok());
  auto par = parallel->RunBatch(tables);
  auto seq = sequential->RunBatchSequential(tables);
  ASSERT_TRUE(par.ok());
  ASSERT_TRUE(seq.ok());
  ASSERT_EQ(par->group_count(), seq->group_count());
  for (size_t g = 0; g < par->group_count(); ++g) {
    const core::TraceView p = par->group(g);
    const core::TraceView s = seq->group(g);
    ASSERT_EQ(p.round_count(), s.round_count()) << "group " << g;
    for (size_t r = 0; r < p.round_count(); ++r) {
      EXPECT_EQ(p.output(r), s.output(r))
          << "group " << g << " round " << r;
      for (size_t m = 0; m < p.module_count(); ++m) {
        EXPECT_EQ(p.weights(r)[m], s.weights(r)[m])
            << "group " << g << " round " << r << " module " << m;
        EXPECT_EQ(p.history(r)[m], s.history(r)[m])
            << "group " << g << " round " << r << " module " << m;
      }
    }
  }
  // The live ledgers agree as well.
  for (size_t g = 0; g < tables.size(); ++g) {
    const auto p = parallel->GroupHistory(g);
    const auto s = sequential->GroupHistory(g);
    ASSERT_TRUE(std::equal(p.begin(), p.end(), s.begin(), s.end()))
        << "group " << g;
  }
}

TEST(MultiGroupEngineTest, GroupsEvolveIndependently) {
  const auto tables = MakeTables(4, 3, 60);
  auto engine = MultiGroupEngine::Create(4, 3, AvocConfig(),
                                         MultiGroupOptions{2});
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine->RunBatch(tables).ok());
  // Odd groups carry a drifting module 0; its record must fall behind the
  // same module's record in the clean even groups.
  EXPECT_LT(engine->GroupHistory(1)[0], engine->GroupHistory(0)[0]);
  EXPECT_LT(engine->GroupHistory(3)[0], engine->GroupHistory(2)[0]);

  engine->ResetAll();
  for (size_t g = 0; g < tables.size(); ++g) {
    for (const double record : engine->GroupHistory(g)) {
      EXPECT_EQ(record, 1.0);
    }
  }
}

}  // namespace
}  // namespace avoc::runtime
