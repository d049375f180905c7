#include "data/csv.h"

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "data/tmall.h"

namespace atnn::data {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

SchemaPtr MakeSchema() {
  return std::make_shared<FeatureSchema>(
      FeatureSchema({FeatureSpec::Categorical("cat_a", 10, 4),
                     FeatureSpec::Numeric("num_x"),
                     FeatureSpec::Categorical("cat_b", 5, 2),
                     FeatureSpec::Numeric("num_y")}));
}

TEST(CsvTest, EntityTableRoundTrip) {
  const std::string path = TempPath("entity_roundtrip.csv");
  SchemaPtr schema = MakeSchema();
  EntityTable table(schema, 3);
  for (int64_t r = 0; r < 3; ++r) {
    table.set_categorical(0, r, r + 1);
    table.set_categorical(1, r, r);
    table.set_numeric(0, r, 1.5f * static_cast<float>(r) - 0.25f);
    table.set_numeric(1, r, -3.75f);
  }
  ASSERT_TRUE(WriteEntityTableCsv(table, path).ok());
  auto loaded_or = ReadEntityTableCsv(schema, path);
  ASSERT_TRUE(loaded_or.ok()) << loaded_or.status().ToString();
  const EntityTable& loaded = loaded_or.value();
  ASSERT_EQ(loaded.num_rows(), 3);
  for (int64_t r = 0; r < 3; ++r) {
    EXPECT_EQ(loaded.categorical(0, r), table.categorical(0, r));
    EXPECT_EQ(loaded.categorical(1, r), table.categorical(1, r));
    EXPECT_FLOAT_EQ(loaded.numeric(0, r), table.numeric(0, r));
    EXPECT_FLOAT_EQ(loaded.numeric(1, r), table.numeric(1, r));
  }
  std::remove(path.c_str());
}

TEST(CsvTest, FullTmallUserTableRoundTrip) {
  TmallConfig config;
  config.num_users = 40;
  config.num_items = 30;
  config.num_new_items = 5;
  config.num_interactions = 100;
  config.attractiveness_sample = 8;
  TmallDataset dataset = GenerateTmallDataset(config);

  const std::string path = TempPath("tmall_users.csv");
  ASSERT_TRUE(WriteEntityTableCsv(dataset.users, path).ok());
  auto loaded_or = ReadEntityTableCsv(dataset.user_schema, path);
  ASSERT_TRUE(loaded_or.ok()) << loaded_or.status().ToString();
  EXPECT_EQ(loaded_or->num_rows(), 40);
  for (int64_t r = 0; r < 40; ++r) {
    for (size_t f = 0; f < dataset.user_schema->num_numeric(); ++f) {
      EXPECT_FLOAT_EQ(loaded_or->numeric(f, r), dataset.users.numeric(f, r));
    }
  }
  std::remove(path.c_str());
}

TEST(CsvTest, HeaderMismatchRejected) {
  const std::string path = TempPath("entity_bad_header.csv");
  {
    std::ofstream file(path);
    file << "wrong,header,entirely,here\n1,2.0,3,4.0\n";
  }
  EXPECT_EQ(ReadEntityTableCsv(MakeSchema(), path).status().code(),
            StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(CsvTest, OutOfVocabCategoricalRejected) {
  const std::string path = TempPath("entity_oov.csv");
  {
    std::ofstream file(path);
    file << "cat_a,num_x,cat_b,num_y\n99,1.0,0,2.0\n";  // cat_a vocab is 10
  }
  EXPECT_EQ(ReadEntityTableCsv(MakeSchema(), path).status().code(),
            StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(CsvTest, UnparsableValueRejected) {
  const std::string path = TempPath("entity_garbage.csv");
  {
    std::ofstream file(path);
    file << "cat_a,num_x,cat_b,num_y\n1,not_a_number,0,2.0\n";
  }
  EXPECT_EQ(ReadEntityTableCsv(MakeSchema(), path).status().code(),
            StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(CsvTest, MissingFileIsIoError) {
  EXPECT_EQ(ReadEntityTableCsv(MakeSchema(), "/no/such.csv").status().code(),
            StatusCode::kIoError);
}

TEST(CsvTest, InteractionsRoundTrip) {
  const std::string path = TempPath("interactions.csv");
  ASSERT_TRUE(WriteInteractionsCsv({1, 2, 3}, {10, 20, 30}, {1.0f, 0.0f, 1.0f},
                                   path)
                  .ok());
  auto log_or = ReadInteractionsCsv(path);
  ASSERT_TRUE(log_or.ok()) << log_or.status().ToString();
  EXPECT_EQ(log_or->users, (std::vector<int64_t>{1, 2, 3}));
  EXPECT_EQ(log_or->items, (std::vector<int64_t>{10, 20, 30}));
  EXPECT_EQ(log_or->labels, (std::vector<float>{1.0f, 0.0f, 1.0f}));
  std::remove(path.c_str());
}

TEST(CsvTest, ExportTmallDatasetWritesAllFiles) {
  TmallConfig config;
  config.num_users = 30;
  config.num_items = 20;
  config.num_new_items = 5;
  config.num_interactions = 80;
  config.attractiveness_sample = 8;
  TmallDataset dataset = GenerateTmallDataset(config);
  const std::string dir = testing::TempDir();
  ASSERT_TRUE(ExportTmallDatasetCsv(dataset, dir).ok());

  // Every table reads back under its own schema with the right row count.
  auto users = ReadEntityTableCsv(dataset.user_schema, dir + "/users.csv");
  ASSERT_TRUE(users.ok());
  EXPECT_EQ(users->num_rows(), 30);
  auto profiles = ReadEntityTableCsv(dataset.item_profile_schema,
                                     dir + "/item_profiles.csv");
  ASSERT_TRUE(profiles.ok());
  EXPECT_EQ(profiles->num_rows(), 25);
  auto stats = ReadEntityTableCsv(dataset.item_stats_schema,
                                  dir + "/item_stats.csv");
  ASSERT_TRUE(stats.ok());
  auto log = ReadInteractionsCsv(dir + "/interactions.csv");
  ASSERT_TRUE(log.ok());
  EXPECT_EQ(log->users.size(), 80u);
  EXPECT_EQ(log->labels, dataset.labels);

  for (const char* name :
       {"users.csv", "item_profiles.csv", "item_stats.csv",
        "interactions.csv", "splits.csv"}) {
    std::remove((dir + "/" + name).c_str());
  }
}

// --- SplitCsvLine: RFC-4180 behaviour, tested directly ---

TEST(SplitCsvLineTest, PlainFieldsAndTrailingComma) {
  EXPECT_EQ(SplitCsvLine("a,b,c"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(SplitCsvLine("a,,c"), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(SplitCsvLine("a,b,"), (std::vector<std::string>{"a", "b", ""}));
  EXPECT_EQ(SplitCsvLine(""), std::vector<std::string>{});
}

// Regression: getline keeps the '\r' of CRLF terminators, so every last
// field of a Windows-written file used to carry an invisible byte that
// failed value parsing.
TEST(SplitCsvLineTest, StripsTrailingCarriageReturn) {
  EXPECT_EQ(SplitCsvLine("a,b,c\r"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(SplitCsvLine("\r"), std::vector<std::string>{});
  EXPECT_EQ(SplitCsvLine("7\r"), std::vector<std::string>{"7"});
}

TEST(SplitCsvLineTest, QuotedFieldsKeepCommas) {
  EXPECT_EQ(SplitCsvLine("\"a,b\",c"),
            (std::vector<std::string>{"a,b", "c"}));
  EXPECT_EQ(SplitCsvLine("x,\"1,2,3\",y"),
            (std::vector<std::string>{"x", "1,2,3", "y"}));
  EXPECT_EQ(SplitCsvLine("\"\",b"), (std::vector<std::string>{"", "b"}));
}

TEST(SplitCsvLineTest, DoubledQuoteIsLiteralQuote) {
  EXPECT_EQ(SplitCsvLine("\"say \"\"hi\"\"\",b"),
            (std::vector<std::string>{"say \"hi\"", "b"}));
  EXPECT_EQ(SplitCsvLine("\"\"\"\""), std::vector<std::string>{"\""});
}

TEST(SplitCsvLineTest, QuotedFieldWithCrlfTail) {
  EXPECT_EQ(SplitCsvLine("a,\"b,c\"\r"),
            (std::vector<std::string>{"a", "b,c"}));
}

// --- CRLF fixtures through the real readers ---

TEST(CsvTest, CrlfEntityTableReadsClean) {
  const std::string path = TempPath("crlf_entity.csv");
  {
    std::ofstream file(path, std::ios::binary);
    file << "cat_a,num_x,cat_b,num_y\r\n"
         << "1,0.5,2,-1.25\r\n"
         << "3,1.5,4,2.5\r\n";
  }
  auto loaded_or = ReadEntityTableCsv(MakeSchema(), path);
  ASSERT_TRUE(loaded_or.ok()) << loaded_or.status().ToString();
  const EntityTable& loaded = loaded_or.value();
  ASSERT_EQ(loaded.num_rows(), 2);
  EXPECT_EQ(loaded.categorical(0, 0), 1);
  EXPECT_FLOAT_EQ(loaded.numeric(1, 0), -1.25f);
  EXPECT_FLOAT_EQ(loaded.numeric(1, 1), 2.5f);
  std::remove(path.c_str());
}

TEST(CsvTest, CrlfInteractionsReadClean) {
  const std::string path = TempPath("crlf_interactions.csv");
  {
    std::ofstream file(path, std::ios::binary);
    file << "user_id,item_id,label\r\n"
         << "1,10,1\r\n"
         << "2,20,0\r\n"
         << "\r\n";  // trailing blank CRLF line must be skipped
  }
  auto log_or = ReadInteractionsCsv(path);
  ASSERT_TRUE(log_or.ok()) << log_or.status().ToString();
  ASSERT_EQ(log_or.value().users.size(), 2u);
  EXPECT_EQ(log_or.value().items[1], 20);
  EXPECT_FLOAT_EQ(log_or.value().labels[0], 1.0f);
  std::remove(path.c_str());
}

TEST(CsvTest, QuotedNumericFieldParses) {
  const std::string path = TempPath("quoted_entity.csv");
  {
    std::ofstream file(path);
    file << "cat_a,num_x,cat_b,num_y\n"
         << "\"1\",\"0.5\",2,-1.25\n";
  }
  auto loaded_or = ReadEntityTableCsv(MakeSchema(), path);
  ASSERT_TRUE(loaded_or.ok()) << loaded_or.status().ToString();
  EXPECT_EQ(loaded_or.value().categorical(0, 0), 1);
  EXPECT_FLOAT_EQ(loaded_or.value().numeric(0, 0), 0.5f);
  std::remove(path.c_str());
}

// --- non-finite ingestion rejected at the parse boundary ---

TEST(CsvTest, NonFiniteNumericValuesRejected) {
  for (const char* bad : {"nan", "NaN", "inf", "-inf", "infinity"}) {
    const std::string path = TempPath("nonfinite_entity.csv");
    {
      std::ofstream file(path);
      file << "cat_a,num_x,cat_b,num_y\n"
           << "1," << bad << ",2,0.5\n";
    }
    const auto status = ReadEntityTableCsv(MakeSchema(), path).status();
    EXPECT_EQ(status.code(), StatusCode::kCorruption) << bad;
    EXPECT_NE(status.ToString().find("non-finite"), std::string::npos)
        << status.ToString();
    std::remove(path.c_str());
  }
}

TEST(CsvTest, NonFiniteInteractionLabelRejected) {
  const std::string path = TempPath("nonfinite_interactions.csv");
  {
    std::ofstream file(path);
    file << "user_id,item_id,label\n"
         << "1,10,nan\n";
  }
  EXPECT_EQ(ReadInteractionsCsv(path).status().code(),
            StatusCode::kCorruption);
  std::remove(path.c_str());
}

// Regression: strtof flags ERANGE on underflow, and the old blanket
// `errno != 0` check turned legitimate subnormal feature values into
// Corruption errors. Tiny-but-representable must load; true overflow
// must still be rejected.
TEST(CsvTest, SubnormalNumericValuesAccepted) {
  const std::string path = TempPath("subnormal_entity.csv");
  {
    std::ofstream file(path);
    file << "cat_a,num_x,cat_b,num_y\n"
         << "1,1e-42,2,-4.9e-324\n";
  }
  auto loaded_or = ReadEntityTableCsv(MakeSchema(), path);
  ASSERT_TRUE(loaded_or.ok()) << loaded_or.status().ToString();
  EXPECT_GT(loaded_or.value().numeric(0, 0), 0.0f);
  EXPECT_LT(loaded_or.value().numeric(0, 0), 1e-41f);
  // -4.9e-324 (the second numeric field, num_y) underflows float all the
  // way to (signed) zero — a value, not an error.
  EXPECT_LE(loaded_or.value().numeric(1, 0), 0.0f);
  std::remove(path.c_str());
}

TEST(CsvTest, OverflowingNumericValueRejected) {
  const std::string path = TempPath("overflow_entity.csv");
  {
    std::ofstream file(path);
    file << "cat_a,num_x,cat_b,num_y\n"
         << "1,1e999,2,0.5\n";
  }
  EXPECT_EQ(ReadEntityTableCsv(MakeSchema(), path).status().code(),
            StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(CsvTest, MisalignedInteractionsRejected) {
  EXPECT_EQ(WriteInteractionsCsv({1, 2}, {10}, {1.0f, 0.0f}, "/tmp/x.csv")
                .code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace atnn::data
