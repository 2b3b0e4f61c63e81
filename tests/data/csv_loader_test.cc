#include "felip/data/csv_loader.h"

#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

namespace felip::data {
namespace {

class CsvLoaderTest : public ::testing::Test {
 protected:
  void WriteFile(const std::string& content) {
    // One file per test: ctest runs the tests of this fixture in parallel.
    path_ = ::testing::TempDir() + "/felip_csv_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".csv";
    std::ofstream out(path_);
    out << content;
  }
  void TearDown() override {
    if (!path_.empty()) std::remove(path_.c_str());
  }
  std::string path_;
};

TEST_F(CsvLoaderTest, LoadsCategoricalAndNumerical) {
  WriteFile(
      "age,city,salary\n"
      "30,NYC,1000\n"
      "40,LA,2000\n"
      "50,NYC,3000\n");
  const auto result = LoadCsv(
      path_, {{"city", true, 0}, {"salary", false, 4}});
  ASSERT_TRUE(result.has_value());
  const Dataset& ds = result->dataset;
  EXPECT_EQ(ds.num_rows(), 3u);
  EXPECT_EQ(ds.num_attributes(), 2u);
  // City dictionary in first-appearance order: NYC=0, LA=1.
  ASSERT_EQ(result->dictionaries.size(), 1u);
  EXPECT_EQ(result->dictionaries[0][0], "NYC");
  EXPECT_EQ(result->dictionaries[0][1], "LA");
  EXPECT_EQ(ds.Value(0, 0), 0u);
  EXPECT_EQ(ds.Value(1, 0), 1u);
  EXPECT_EQ(ds.Value(2, 0), 0u);
  // Salary quantized over [1000, 3000] into 4 bins.
  EXPECT_EQ(ds.Value(0, 1), 0u);
  EXPECT_EQ(ds.Value(2, 1), 3u);
  EXPECT_EQ(result->numeric_ranges[0].first, 1000.0);
  EXPECT_EQ(result->numeric_ranges[0].second, 3000.0);
}

TEST_F(CsvLoaderTest, CategoricalDomainDefaultsToDistinctCount) {
  WriteFile("c\na\nb\nc\na\n");
  const auto result = LoadCsv(path_, {{"c", true, 0}});
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->dataset.attribute(0).domain, 3u);
}

TEST_F(CsvLoaderTest, SkipsUnparsableNumericRows) {
  WriteFile("x\n1\noops\n3\n");
  const auto result = LoadCsv(path_, {{"x", false, 2}});
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->dataset.num_rows(), 2u);
  EXPECT_EQ(result->rows_skipped, 1u);
}

TEST_F(CsvLoaderTest, RespectsMaxRows) {
  WriteFile("x\n1\n2\n3\n4\n");
  const auto result = LoadCsv(path_, {{"x", false, 2}}, 2);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->dataset.num_rows(), 2u);
}

TEST_F(CsvLoaderTest, MissingColumnFails) {
  WriteFile("a,b\n1,2\n");
  EXPECT_FALSE(LoadCsv(path_, {{"nope", false, 2}}).has_value());
}

TEST_F(CsvLoaderTest, MissingFileFails) {
  EXPECT_FALSE(
      LoadCsv("/definitely/not/here.csv", {{"a", true, 0}}).has_value());
}

TEST_F(CsvLoaderTest, TooManyCategoriesFails) {
  WriteFile("c\na\nb\nc\n");
  EXPECT_FALSE(LoadCsv(path_, {{"c", true, 2}}).has_value());
}

TEST_F(CsvLoaderTest, NumericalWithoutDomainFails) {
  WriteFile("x\n1\n");
  EXPECT_FALSE(LoadCsv(path_, {{"x", false, 0}}).has_value());
}

TEST_F(CsvLoaderTest, QuotedFieldsWithCommas) {
  WriteFile(
      "name,v\n"
      "\"Smith, John\",1\n"
      "\"says \"\"hi\"\"\",2\n");
  const auto result = LoadCsv(path_, {{"name", true, 0}});
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->dictionaries[0][0], "Smith, John");
  EXPECT_EQ(result->dictionaries[0][1], "says \"hi\"");
}

TEST_F(CsvLoaderTest, EquiDepthBinsBalanceHeavyTails) {
  // 16 values: fifteen small, one huge outlier. Equi-width with 4 bins puts
  // 15/16 of the data in bin 0; equi-depth spreads it 4/4/4/4.
  std::string content = "x\n";
  for (int i = 1; i <= 15; ++i) content += std::to_string(i) + "\n";
  content += "1000000\n";
  WriteFile(content);

  const auto width = LoadCsv(path_, {{"x", false, 4, false}});
  ASSERT_TRUE(width.has_value());
  int width_bin0 = 0;
  for (uint64_t r = 0; r < 16; ++r) {
    width_bin0 += width->dataset.Value(r, 0) == 0 ? 1 : 0;
  }
  EXPECT_EQ(width_bin0, 15);

  const auto depth = LoadCsv(path_, {{"x", false, 4, true}});
  ASSERT_TRUE(depth.has_value());
  std::vector<int> counts(4, 0);
  for (uint64_t r = 0; r < 16; ++r) {
    ++counts[depth->dataset.Value(r, 0)];
  }
  for (int b = 0; b < 4; ++b) {
    EXPECT_EQ(counts[b], 4) << "bin " << b;
  }
}

TEST_F(CsvLoaderTest, EquiDepthMonotone) {
  // Larger raw values never land in a smaller bin.
  WriteFile("x\n5\n1\n9\n3\n7\n2\n8\n4\n6\n10\n");
  const auto result = LoadCsv(path_, {{"x", false, 3, true}});
  ASSERT_TRUE(result.has_value());
  // Row order: 5,1,9,3,7,2,8,4,6,10 — check pairwise monotonicity on a few.
  const auto bin_of_value = [&](double v) {
    // Find the row index of value v in the written order.
    const std::vector<double> order = {5, 1, 9, 3, 7, 2, 8, 4, 6, 10};
    for (size_t r = 0; r < order.size(); ++r) {
      if (order[r] == v) return result->dataset.Value(r, 0);
    }
    ADD_FAILURE();
    return 0u;
  };
  EXPECT_LE(bin_of_value(1), bin_of_value(5));
  EXPECT_LE(bin_of_value(5), bin_of_value(9));
  EXPECT_LE(bin_of_value(2), bin_of_value(8));
}

TEST(SplitCsvLineTest, BasicSplit) {
  const auto fields = SplitCsvLine("a,b,c");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[2], "c");
}

TEST(SplitCsvLineTest, EmptyFieldsPreserved) {
  const auto fields = SplitCsvLine("a,,c,");
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[3], "");
}

TEST(SplitCsvLineTest, StripsCarriageReturn) {
  const auto fields = SplitCsvLine("a,b\r");
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields[1], "b");
}

}  // namespace
}  // namespace felip::data
