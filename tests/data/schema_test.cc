#include "data/schema.h"

#include <cstdio>
#include <cstring>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "../common/counting_allocator.h"
#include "common/rng.h"
#include "data/normalize.h"

namespace atnn::data {
namespace {

FeatureSchema MakeMixedSchema() {
  return FeatureSchema({FeatureSpec::Categorical("cat_a", 10, 4),
                        FeatureSpec::Numeric("num_x"),
                        FeatureSpec::Categorical("cat_b", 5, 2),
                        FeatureSpec::Numeric("num_y")});
}

TEST(FeatureSchemaTest, SplitsCategoricalAndNumeric) {
  FeatureSchema schema = MakeMixedSchema();
  EXPECT_EQ(schema.num_features(), 4u);
  EXPECT_EQ(schema.num_categorical(), 2u);
  EXPECT_EQ(schema.num_numeric(), 2u);
  EXPECT_EQ(schema.categorical_spec(0).name, "cat_a");
  EXPECT_EQ(schema.categorical_spec(1).name, "cat_b");
  EXPECT_EQ(schema.TotalEmbedDim(), 6);
  EXPECT_EQ(schema.TowerInputDim(), 8);
}

TEST(EntityTableTest, StoresAndRetrievesValues) {
  auto schema = std::make_shared<FeatureSchema>(MakeMixedSchema());
  EntityTable table(schema, 3);
  EXPECT_EQ(table.num_rows(), 3);
  table.set_categorical(0, 1, 7);
  table.set_categorical(1, 2, 4);
  table.set_numeric(0, 0, 1.5f);
  table.set_numeric(1, 2, -2.0f);
  EXPECT_EQ(table.categorical(0, 1), 7);
  EXPECT_EQ(table.categorical(1, 2), 4);
  EXPECT_FLOAT_EQ(table.numeric(0, 0), 1.5f);
  EXPECT_FLOAT_EQ(table.numeric(1, 2), -2.0f);
  // Unset values default to zero.
  EXPECT_EQ(table.categorical(0, 0), 0);
  EXPECT_FLOAT_EQ(table.numeric(0, 1), 0.0f);
}

TEST(EntityTableTest, GatherBlockSelectsRows) {
  auto schema = std::make_shared<FeatureSchema>(MakeMixedSchema());
  EntityTable table(schema, 4);
  for (int64_t r = 0; r < 4; ++r) {
    table.set_categorical(0, r, r);
    table.set_numeric(0, r, static_cast<float>(10 * r));
  }
  BlockBatch batch = GatherBlock(table, {3, 1});
  EXPECT_EQ(batch.rows(), 2);
  EXPECT_EQ(batch.categorical[0][0], 3);
  EXPECT_EQ(batch.categorical[0][1], 1);
  EXPECT_FLOAT_EQ(batch.numeric.at(0, 0), 30.0f);
  EXPECT_FLOAT_EQ(batch.numeric.at(1, 0), 10.0f);
}

/// A table of `num_rows` seeded random rows under the mixed schema.
EntityTable RandomTable(int64_t num_rows, uint64_t seed) {
  auto schema = std::make_shared<FeatureSchema>(MakeMixedSchema());
  EntityTable table(schema, num_rows);
  Rng rng(seed);
  for (int64_t r = 0; r < num_rows; ++r) {
    for (size_t f = 0; f < schema->num_categorical(); ++f) {
      const auto vocab =
          static_cast<uint64_t>(schema->categorical_spec(f).vocab_size);
      table.set_categorical(f, r, static_cast<int64_t>(rng.UniformInt(vocab)));
    }
    for (size_t f = 0; f < schema->num_numeric(); ++f) {
      table.set_numeric(f, r, static_cast<float>(rng.Uniform(-3.0, 3.0)));
    }
  }
  return table;
}

TEST(EntityTableTest, GatherBlockIntoEqualsGatherBlock) {
  const EntityTable table = RandomTable(200, 7);
  Rng rng(11);
  BlockBuffer buffer;
  // Shrinking and growing batches through one buffer, repeats included.
  for (const size_t size : {64u, 1u, 37u, 0u, 64u, 5u}) {
    std::vector<int64_t> rows(size);
    for (int64_t& row : rows) {
      row = static_cast<int64_t>(rng.UniformInt(200));
    }
    const BlockBatch expected = GatherBlock(table, rows);
    GatherBlockInto(table, rows, &buffer);
    ASSERT_EQ(buffer.rows, static_cast<int64_t>(size));
    ASSERT_EQ(buffer.numeric_cols, expected.numeric.cols());
    EXPECT_EQ(buffer.categorical, expected.categorical) << "size " << size;
    const size_t values = size * table.schema().num_numeric();
    ASSERT_GE(buffer.numeric.size(), values);
    if (values > 0) {
      EXPECT_EQ(0, std::memcmp(buffer.numeric.data(), expected.numeric.data(),
                               values * sizeof(float)))
          << "size " << size;
    }
  }
}

TEST(EntityTableTest, WarmBlockBufferGathersWithoutAllocating) {
  const EntityTable table = RandomTable(100, 3);
  std::vector<int64_t> rows(64);
  for (size_t i = 0; i < rows.size(); ++i) {
    rows[i] = static_cast<int64_t>((i * 37) % 100);
  }
  BlockBuffer buffer;
  GatherBlockInto(table, rows, &buffer);  // warms to the largest batch
  const uint64_t before = counting_allocator::AllocationCount();
  for (const size_t size : {64u, 1u, 37u, 64u}) {
    GatherBlockInto(table, std::span<const int64_t>(rows.data(), size),
                    &buffer);
  }
  const uint64_t allocations = counting_allocator::AllocationCount() - before;
  if (counting_allocator::kSanitized) {
    std::printf("warm GatherBlockInto: %llu allocations (report-only under "
                "sanitizers)\n",
                static_cast<unsigned long long>(allocations));
  } else {
    EXPECT_EQ(allocations, 0u);
  }
}

TEST(EntityTableTest, SliceRowsMaterializesAStandaloneTable) {
  auto schema = std::make_shared<FeatureSchema>(MakeMixedSchema());
  EntityTable table(schema, 5);
  for (int64_t r = 0; r < 5; ++r) {
    table.set_categorical(0, r, r + 1);
    table.set_categorical(1, r, r);
    table.set_numeric(0, r, static_cast<float>(r) * 0.5f);
    table.set_numeric(1, r, static_cast<float>(-r));
  }

  // Out-of-order, repeated selection — exactly what a shard slice does
  // when the ring hands it a scattered row set.
  const std::vector<int64_t> rows = {4, 0, 2, 4};
  EntityTable slice = SliceRows(table, rows);
  ASSERT_EQ(slice.num_rows(), 4);
  EXPECT_EQ(slice.schema_ptr(), table.schema_ptr());  // schema shared
  for (int64_t local = 0; local < slice.num_rows(); ++local) {
    const int64_t src = rows[static_cast<size_t>(local)];
    EXPECT_EQ(slice.categorical(0, local), table.categorical(0, src));
    EXPECT_EQ(slice.categorical(1, local), table.categorical(1, src));
    EXPECT_FLOAT_EQ(slice.numeric(0, local), table.numeric(0, src));
    EXPECT_FLOAT_EQ(slice.numeric(1, local), table.numeric(1, src));
  }

  // Standalone copy: mutating the source later must not leak through.
  table.set_categorical(0, 4, 9);
  EXPECT_EQ(slice.categorical(0, 0), 5);

  // An empty selection is a valid (0-row) table, not an error — shards can
  // own no rows on tiny catalogs.
  EXPECT_EQ(SliceRows(table, {}).num_rows(), 0);
}

TEST(NormalizerTest, StandardizesColumns) {
  auto schema = std::make_shared<FeatureSchema>(
      FeatureSchema({FeatureSpec::Numeric("a"), FeatureSpec::Numeric("b")}));
  EntityTable table(schema, 4);
  const float a_vals[] = {1, 2, 3, 4};
  const float b_vals[] = {10, 10, 10, 10};  // constant column
  for (int64_t r = 0; r < 4; ++r) {
    table.set_numeric(0, r, a_vals[r]);
    table.set_numeric(1, r, b_vals[r]);
  }
  Normalizer norm = Normalizer::Fit(table);
  EXPECT_FLOAT_EQ(norm.mean(0), 2.5f);
  norm.Apply(&table);
  // Standardized column has zero mean and unit-ish variance.
  double mean = 0.0;
  for (int64_t r = 0; r < 4; ++r) mean += table.numeric(0, r);
  EXPECT_NEAR(mean / 4.0, 0.0, 1e-6);
  // Constant column does not explode (guarded stddev).
  for (int64_t r = 0; r < 4; ++r) {
    EXPECT_FLOAT_EQ(table.numeric(1, r), 0.0f);
  }
}

TEST(NormalizerTest, FitOnSubsetOfRows) {
  auto schema = std::make_shared<FeatureSchema>(
      FeatureSchema({FeatureSpec::Numeric("a")}));
  EntityTable table(schema, 3);
  table.set_numeric(0, 0, 0.0f);
  table.set_numeric(0, 1, 2.0f);
  table.set_numeric(0, 2, 1000.0f);  // excluded from the fit
  Normalizer norm = Normalizer::Fit(table, {0, 1});
  EXPECT_FLOAT_EQ(norm.mean(0), 1.0f);
  EXPECT_FLOAT_EQ(norm.stddev(0), 1.0f);
}

TEST(NormalizerTest, AppliesToGatheredTensor) {
  Normalizer norm;
  {
    auto schema = std::make_shared<FeatureSchema>(
        FeatureSchema({FeatureSpec::Numeric("a")}));
    EntityTable table(schema, 2);
    table.set_numeric(0, 0, 0.0f);
    table.set_numeric(0, 1, 4.0f);
    norm = Normalizer::Fit(table);
  }
  nn::Tensor block(1, 1, {2.0f});
  norm.Apply(&block);
  EXPECT_FLOAT_EQ(block.at(0, 0), 0.0f);  // (2 - 2) / 2
}

}  // namespace
}  // namespace atnn::data
