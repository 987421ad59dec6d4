#include "data/csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "test_temp_dir.h"

namespace avoc::data {
namespace {

TEST(CsvParseTest, BasicTableWithHeader) {
  auto table = ParseCsv("a,b,c\n1,2,3\n4,5,6\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->header, (std::vector<std::string>{"a", "b", "c"}));
  ASSERT_EQ(table->rows.size(), 2u);
  EXPECT_EQ(table->rows[1][2], "6");
}

TEST(CsvParseTest, NoHeaderMode) {
  CsvOptions options;
  options.has_header = false;
  auto table = ParseCsv("1,2\n3,4\n", options);
  ASSERT_TRUE(table.ok());
  EXPECT_TRUE(table->header.empty());
  EXPECT_EQ(table->rows.size(), 2u);
}

TEST(CsvParseTest, MissingFinalNewlineOk) {
  auto table = ParseCsv("a,b\n1,2");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->rows.size(), 1u);
}

TEST(CsvParseTest, EmptyCellsPreserved) {
  auto table = ParseCsv("a,b,c\n1,,3\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->rows[0][1], "");
}

TEST(CsvParseTest, QuotedFields) {
  auto table = ParseCsv("a,b\n\"x,y\",\"line1\nline2\"\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->rows[0][0], "x,y");
  EXPECT_EQ(table->rows[0][1], "line1\nline2");
}

TEST(CsvParseTest, EscapedQuotes) {
  auto table = ParseCsv("a\n\"he said \"\"hi\"\"\"\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->rows[0][0], "he said \"hi\"");
}

TEST(CsvParseTest, CrlfLineEndings) {
  auto table = ParseCsv("a,b\r\n1,2\r\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->rows[0][1], "2");
}

TEST(CsvParseTest, ArityMismatchRejectedWhenStrict) {
  EXPECT_FALSE(ParseCsv("a,b\n1,2,3\n").ok());
  CsvOptions loose;
  loose.strict_row_arity = false;
  EXPECT_TRUE(ParseCsv("a,b\n1,2,3\n", loose).ok());
}

TEST(CsvParseTest, UnterminatedQuoteRejected) {
  EXPECT_FALSE(ParseCsv("a\n\"unclosed\n").ok());
}

TEST(CsvParseTest, QuoteInsideUnquotedFieldRejected) {
  EXPECT_FALSE(ParseCsv("a\nval\"ue\n").ok());
}

TEST(CsvParseTest, CustomDelimiter) {
  CsvOptions options;
  options.delimiter = ';';
  auto table = ParseCsv("a;b\n1;2\n", options);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->rows[0][0], "1");
}

TEST(CsvWriteTest, RoundTripsSimpleTable) {
  CsvTable table;
  table.header = {"x", "y"};
  table.rows = {{"1", "2"}, {"", "4"}};
  const std::string text = WriteCsv(table);
  auto parsed = ParseCsv(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->header, table.header);
  EXPECT_EQ(parsed->rows, table.rows);
}

TEST(CsvWriteTest, QuotesSpecialFields) {
  CsvTable table;
  table.header = {"v"};
  table.rows = {{"a,b"}, {"c\"d"}, {"e\nf"}};
  const std::string text = WriteCsv(table);
  auto parsed = ParseCsv(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->rows, table.rows);
}

TEST(CsvFileTest, WriteAndReadBack) {
  const std::string path =
      (TestTempPath("csv_test") += ".csv").string();
  CsvTable table;
  table.header = {"round", "E1"};
  table.rows = {{"0", "18500.5"}, {"1", ""}};
  ASSERT_TRUE(WriteCsvFile(path, table).ok());
  auto loaded = ReadCsvFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->rows, table.rows);
  std::filesystem::remove(path);
}

TEST(CsvFileTest, ReadMissingFileFails) {
  EXPECT_FALSE(ReadCsvFile("/nonexistent/path/file.csv").ok());
}

TEST(CsvTableTest, ColumnCount) {
  CsvTable with_header;
  with_header.header = {"a", "b"};
  EXPECT_EQ(with_header.column_count(), 2u);
  CsvTable headerless;
  headerless.rows = {{"1", "2", "3"}};
  EXPECT_EQ(headerless.column_count(), 3u);
  EXPECT_EQ(CsvTable{}.column_count(), 0u);
}

}  // namespace
}  // namespace avoc::data
