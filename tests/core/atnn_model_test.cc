#include "core/atnn.h"

#include <cstring>
#include <numeric>
#include <set>
#include <span>

#include <gtest/gtest.h>

#include "core/generator_plan.h"
#include "core/popularity.h"
#include "core/trainer.h"
#include "test_helpers.h"

namespace atnn::core {
namespace {

using testing_helpers::MakeNormalizedTinyDataset;
using testing_helpers::TinyTowerConfig;

class AtnnModelTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new data::TmallDataset(MakeNormalizedTinyDataset());
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }

  static AtnnConfig MakeConfig() {
    AtnnConfig config;
    config.tower = TinyTowerConfig(nn::TowerKind::kDeepCross);
    config.lambda = 0.1f;
    config.seed = 5;
    return config;
  }

  static TrainOptions FastOptions() {
    TrainOptions options;
    options.epochs = 3;
    options.batch_size = 256;
    options.learning_rate = 2e-3f;
    return options;
  }

  static data::TmallDataset* dataset_;
};

data::TmallDataset* AtnnModelTest::dataset_ = nullptr;

TEST_F(AtnnModelTest, ParameterGroupsCoverEverythingAndOverlapOnlyOnSharedTables) {
  AtnnModel model(*dataset_->user_schema, *dataset_->item_profile_schema,
                  *dataset_->item_stats_schema, MakeConfig());
  auto d_params = model.DiscriminatorParameters();
  auto g_params = model.GeneratorParameters();
  auto all_params = model.Parameters();
  // Union covers every parameter.
  std::set<nn::Parameter*> unioned(d_params.begin(), d_params.end());
  unioned.insert(g_params.begin(), g_params.end());
  EXPECT_EQ(unioned.size(), all_params.size());
  // With shared embeddings the two groups overlap exactly on the
  // item-profile tables (updated by both steps, per the paper's strategy).
  std::set<nn::Parameter*> d_set(d_params.begin(), d_params.end());
  for (nn::Parameter* g : g_params) {
    if (d_set.count(g) > 0) {
      EXPECT_NE(g->name().find("atnn.item.emb."), std::string::npos)
          << g->name() << " unexpectedly in both groups";
    }
  }

  // Without sharing, the groups are fully disjoint.
  AtnnConfig separate = MakeConfig();
  separate.share_embeddings = false;
  AtnnModel separate_model(*dataset_->user_schema,
                           *dataset_->item_profile_schema,
                           *dataset_->item_stats_schema, separate);
  auto d2 = separate_model.DiscriminatorParameters();
  auto g2 = separate_model.GeneratorParameters();
  std::set<nn::Parameter*> d2_set(d2.begin(), d2.end());
  for (nn::Parameter* g : g2) EXPECT_EQ(d2_set.count(g), 0u) << g->name();
  EXPECT_EQ(d2.size() + g2.size(), separate_model.Parameters().size());
}

TEST_F(AtnnModelTest, SharedEmbeddingsReduceParameterCount) {
  AtnnConfig shared = MakeConfig();
  AtnnConfig separate = MakeConfig();
  separate.share_embeddings = false;
  AtnnModel shared_model(*dataset_->user_schema,
                         *dataset_->item_profile_schema,
                         *dataset_->item_stats_schema, shared);
  AtnnModel separate_model(*dataset_->user_schema,
                           *dataset_->item_profile_schema,
                           *dataset_->item_stats_schema, separate);
  EXPECT_LT(shared_model.NumParameterElements(),
            separate_model.NumParameterElements());
}

TEST_F(AtnnModelTest, GeneratorWorksWithoutStatistics) {
  AtnnModel model(*dataset_->user_schema, *dataset_->item_profile_schema,
                  *dataset_->item_stats_schema, MakeConfig());
  // New arrivals: profile rows exist, stats rows are zero placeholders.
  const data::BlockBatch profile =
      GatherBlock(dataset_->item_profiles, dataset_->new_items);
  nn::Var gen_vec = model.GeneratorItemVector(profile);
  EXPECT_EQ(gen_vec.rows(),
            static_cast<int64_t>(dataset_->new_items.size()));
  EXPECT_EQ(gen_vec.cols(), 12);
  EXPECT_TRUE(gen_vec.value().AllFinite());
}

TEST_F(AtnnModelTest, TrainingReducesAllThreeLosses) {
  AtnnModel model(*dataset_->user_schema, *dataset_->item_profile_schema,
                  *dataset_->item_stats_schema, MakeConfig());
  const auto history = TrainAtnnModel(&model, *dataset_, FastOptions());
  ASSERT_EQ(history.size(), 3u);
  EXPECT_LT(history.back().loss_i, history.front().loss_i);
  EXPECT_LT(history.back().loss_g, history.front().loss_g);
  EXPECT_LT(history.back().loss_s, history.front().loss_s);
}

TEST_F(AtnnModelTest, GeneratorVectorsConvergeTowardEncoderVectors) {
  AtnnModel model(*dataset_->user_schema, *dataset_->item_profile_schema,
                  *dataset_->item_stats_schema, MakeConfig());
  const data::CtrBatch batch =
      MakeCtrBatch(*dataset_, std::vector<int64_t>(
                                  dataset_->test_indices.begin(),
                                  dataset_->test_indices.begin() + 256));
  auto mean_cosine = [&model, &batch]() {
    nn::Var gen = model.GeneratorItemVector(batch.item_profile);
    nn::Var enc =
        model.EncoderItemVector(batch.item_profile, batch.item_stats);
    nn::Var cosine = nn::CosineSimilarityRows(gen, nn::StopGradient(enc));
    return cosine.value().Mean();
  };
  const double before = mean_cosine();
  TrainAtnnModel(&model, *dataset_, FastOptions());
  const double after = mean_cosine();
  EXPECT_GT(after, before);
  EXPECT_GT(after, 0.5);  // strongly aligned after training
}

TEST_F(AtnnModelTest, BothPathsBeatRandomAfterTraining) {
  AtnnModel model(*dataset_->user_schema, *dataset_->item_profile_schema,
                  *dataset_->item_stats_schema, MakeConfig());
  TrainAtnnModel(&model, *dataset_, FastOptions());
  const double auc_encoder = EvaluateAtnnAuc(
      model, *dataset_, dataset_->test_indices, CtrPath::kEncoder);
  const double auc_generator = EvaluateAtnnAuc(
      model, *dataset_, dataset_->test_indices, CtrPath::kGenerator);
  EXPECT_GT(auc_encoder, 0.6);
  EXPECT_GT(auc_generator, 0.6);
  // The paper's core claim: the generator path degrades only slightly.
  EXPECT_GT(auc_generator, auc_encoder - 0.05);
}

TEST_F(AtnnModelTest, L2SimilarityModeAlsoTrains) {
  AtnnConfig config = MakeConfig();
  config.similarity = SimilarityMode::kL2;
  AtnnModel model(*dataset_->user_schema, *dataset_->item_profile_schema,
                  *dataset_->item_stats_schema, config);
  TrainOptions options = FastOptions();
  options.epochs = 2;
  const auto history = TrainAtnnModel(&model, *dataset_, options);
  EXPECT_LT(history.back().loss_s, history.front().loss_s);
}

TEST_F(AtnnModelTest, CopyIsDeepAndServesTheSameBits) {
  std::vector<int64_t> item_rows(
      static_cast<size_t>(dataset_->item_profiles.num_rows()));
  std::iota(item_rows.begin(), item_rows.end(), int64_t{0});
  const std::vector<int64_t> users = SelectActiveUsers(*dataset_, 64);
  for (const bool share : {true, false}) {
    SCOPED_TRACE(share ? "shared embeddings" : "separate embeddings");
    AtnnConfig config = MakeConfig();
    config.share_embeddings = share;
    AtnnModel source(*dataset_->user_schema, *dataset_->item_profile_schema,
                     *dataset_->item_stats_schema, config);
    // A short run moves the weights off their seeded init, so a model
    // rebuilt from the config would not match, and leaves gradients the
    // copy must not take.
    TrainOptions options = FastOptions();
    options.epochs = 1;
    TrainAtnnOnIndices(&source, *dataset_,
                       std::span<const int64_t>(dataset_->train_indices)
                           .first(512),
                       options);

    AtnnModel copy(source);
    const std::vector<nn::Parameter*> from = source.Parameters();
    const std::vector<nn::Parameter*> to = copy.Parameters();
    ASSERT_EQ(to.size(), from.size());
    std::set<const nn::Node*> source_nodes;
    bool source_has_grad = false;
    for (const nn::Parameter* param : from) {
      source_nodes.insert(param->node());
      source_has_grad = source_has_grad || !param->grad().empty();
    }
    EXPECT_TRUE(source_has_grad);
    for (size_t i = 0; i < from.size(); ++i) {
      SCOPED_TRACE(from[i]->name());
      EXPECT_EQ(to[i]->name(), from[i]->name());
      ASSERT_EQ(to[i]->rows(), from[i]->rows());
      ASSERT_EQ(to[i]->cols(), from[i]->cols());
      EXPECT_EQ(0, std::memcmp(to[i]->value().data(), from[i]->value().data(),
                               static_cast<size_t>(from[i]->numel()) *
                                   sizeof(float)));
      EXPECT_EQ(source_nodes.count(to[i]->node()), 0u);
      EXPECT_TRUE(to[i]->grad().empty());
    }

    // Both step groups hold only the copy's parameters; with sharing on,
    // they meet on the copy's item-profile tables, which are the tables
    // the copy's generator path reads.
    const std::set<const nn::Parameter*> copy_params(to.begin(), to.end());
    const std::vector<nn::Parameter*> d_params =
        copy.DiscriminatorParameters();
    const std::vector<nn::Parameter*> g_params = copy.GeneratorParameters();
    const std::set<const nn::Parameter*> d_set(d_params.begin(),
                                               d_params.end());
    for (const nn::Parameter* param : d_params) {
      EXPECT_EQ(copy_params.count(param), 1u) << param->name();
    }
    size_t shared_tables = 0;
    for (const nn::Parameter* param : g_params) {
      EXPECT_EQ(copy_params.count(param), 1u) << param->name();
      if (d_set.count(param) > 0) {
        ++shared_tables;
        EXPECT_EQ(param->name().rfind("atnn.item.emb.", 0), 0u)
            << param->name();
      }
    }
    const nn::EmbeddingBag& bag = copy.generator_embedding_bag();
    EXPECT_NE(&bag, &source.generator_embedding_bag());
    EXPECT_EQ(shared_tables, share ? bag.num_fields() : 0u);
    for (size_t f = 0; f < bag.num_fields(); ++f) {
      EXPECT_EQ(copy_params.count(&bag.table(f)), 1u);
      EXPECT_EQ(d_set.count(&bag.table(f)), share ? 1u : 0u);
    }

    // What a publish serves: the predictor and plan built from the copy
    // score every item row bitwise as those built from the source.
    const PopularityPredictor source_predictor =
        PopularityPredictor::Build(source, *dataset_, users);
    const PopularityPredictor copy_predictor =
        PopularityPredictor::Build(copy, *dataset_, users);
    const auto source_plan =
        CompileGeneratorPlan(source, dataset_->item_profiles, 64);
    const auto copy_plan =
        CompileGeneratorPlan(copy, dataset_->item_profiles, 64);
    ASSERT_TRUE(source_plan.ok()) << source_plan.status().ToString();
    ASSERT_TRUE(copy_plan.ok()) << copy_plan.status().ToString();
    const auto source_scores = ScoreItemsWithPlan(
        **source_plan, source_predictor, dataset_->item_profiles, item_rows);
    const auto copy_scores = ScoreItemsWithPlan(
        **copy_plan, copy_predictor, dataset_->item_profiles, item_rows);
    ASSERT_TRUE(source_scores.ok()) << source_scores.status().ToString();
    ASSERT_TRUE(copy_scores.ok()) << copy_scores.status().ToString();
    ASSERT_EQ(copy_scores->size(), item_rows.size());
    ASSERT_EQ(source_scores->size(), item_rows.size());
    EXPECT_EQ(0, std::memcmp(copy_scores->data(), source_scores->data(),
                             item_rows.size() * sizeof(double)));
  }
}

TEST_F(AtnnModelTest, PredictionsAreFiniteProbabilities) {
  // Note closed bounds: an untrained DCN can produce logits large enough
  // to saturate float sigmoid exactly to 0 or 1.
  AtnnModel model(*dataset_->user_schema, *dataset_->item_profile_schema,
                  *dataset_->item_stats_schema, MakeConfig());
  const data::CtrBatch batch = MakeCtrBatch(*dataset_, {0, 1, 2, 3});
  for (double p : model.PredictCtrEncoder(batch.user, batch.item_profile,
                                          batch.item_stats)) {
    EXPECT_TRUE(std::isfinite(p));
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
  for (double p :
       model.PredictCtrGenerator(batch.user, batch.item_profile)) {
    EXPECT_TRUE(std::isfinite(p));
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

}  // namespace
}  // namespace atnn::core
