#include "data/dataset.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "test_temp_dir.h"

namespace avoc::data {
namespace {

RoundTable SampleTable() {
  RoundTable table({"E1", "E2"});
  EXPECT_TRUE(table.AppendRound({18500.25, 18400.0}).ok());
  EXPECT_TRUE(table.AppendRound({{18510.0}, std::nullopt}).ok());
  return table;
}

TEST(DatasetCsvTest, TableToCsvShape) {
  const CsvTable csv = RoundTableToCsv(SampleTable());
  EXPECT_EQ(csv.header, (std::vector<std::string>{"round", "E1", "E2"}));
  ASSERT_EQ(csv.rows.size(), 2u);
  EXPECT_EQ(csv.rows[0][0], "0");
  EXPECT_EQ(csv.rows[1][2], "");  // missing reading is an empty cell
}

TEST(DatasetCsvTest, RoundTripPreservesValuesAndGaps) {
  const RoundTable original = SampleTable();
  auto restored = RoundTableFromCsv(RoundTableToCsv(original));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->module_names(), original.module_names());
  ASSERT_EQ(restored->round_count(), original.round_count());
  EXPECT_DOUBLE_EQ(*restored->At(0, 0), 18500.25);
  EXPECT_FALSE(restored->At(1, 1).has_value());
}

TEST(DatasetCsvTest, RejectsTablesWithoutRoundColumn) {
  CsvTable csv;
  csv.header = {"E1", "E2"};
  EXPECT_FALSE(RoundTableFromCsv(csv).ok());
}

TEST(DatasetCsvTest, RejectsNonNumericCells) {
  CsvTable csv;
  csv.header = {"round", "E1"};
  csv.rows = {{"0", "not-a-number"}};
  EXPECT_FALSE(RoundTableFromCsv(csv).ok());
}

TEST(DatasetFileTest, SaveAndLoadWithMetadata) {
  const auto dir = TestTempPath("ds_test");
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "sample.csv").string();

  DatasetMetadata meta;
  meta.scenario = "uc1-light";
  meta.seed = 42;
  meta.units = "lux";
  meta.sample_rate_hz = 8.0;

  ASSERT_TRUE(SaveDataset(path, SampleTable(), &meta).ok());
  auto loaded = LoadDataset(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->round_count(), 2u);

  auto loaded_meta = LoadDatasetMetadata(path);
  ASSERT_TRUE(loaded_meta.ok());
  EXPECT_EQ(loaded_meta->scenario, "uc1-light");
  EXPECT_EQ(loaded_meta->seed, 42u);
  EXPECT_EQ(loaded_meta->units, "lux");
  EXPECT_DOUBLE_EQ(loaded_meta->sample_rate_hz, 8.0);

  std::filesystem::remove_all(dir);
}

TEST(DatasetFileTest, SaveWithoutMetadataSkipsSidecar) {
  const auto dir = TestTempPath("ds_test");
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "bare.csv").string();
  ASSERT_TRUE(SaveDataset(path, SampleTable()).ok());
  EXPECT_FALSE(LoadDatasetMetadata(path).ok());
  std::filesystem::remove_all(dir);
}

TEST(DatasetMetadataTest, JsonRoundTrip) {
  DatasetMetadata meta;
  meta.scenario = "uc2-ble";
  meta.seed = 7;
  meta.units = "dBm";
  meta.sample_rate_hz = 1.782;
  auto restored = DatasetMetadata::FromJson(meta.ToJson());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->scenario, meta.scenario);
  EXPECT_EQ(restored->seed, meta.seed);
  EXPECT_EQ(restored->units, meta.units);
  EXPECT_DOUBLE_EQ(restored->sample_rate_hz, meta.sample_rate_hz);
}

TEST(DatasetMetadataTest, FromJsonToleratesMissingFields) {
  auto meta = DatasetMetadata::FromJson(json::Value(json::Object{}));
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta->scenario, "");
  EXPECT_EQ(meta->seed, 0u);
}

TEST(DatasetMetadataTest, FromJsonRejectsNonObjects) {
  EXPECT_FALSE(DatasetMetadata::FromJson(json::Value(1.0)).ok());
}

}  // namespace
}  // namespace avoc::data
