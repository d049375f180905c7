#ifndef ATNN_BENCH_BENCH_COMMON_H_
#define ATNN_BENCH_BENCH_COMMON_H_

// Shared configuration of the experiment harnesses. Every bench binary is
// standalone: it generates the (seeded, deterministic) synthetic world,
// trains its models from scratch and prints the table it reproduces.
//
// Scale note: the paper's dataset has 23.1M items / 4M users / 40M
// interactions and towers of width 512/256/128 on a production cluster.
// The benches run the same algorithms on a laptop-scale world (4k catalog
// items, 2k users, 150k interactions, towers 64/32, 32-d vectors). All
// reproduced claims are *relative* (orderings, degradations, win/loss),
// which are preserved under this scaling; see EXPERIMENTS.md.

#include <string>
#include <vector>

#include "core/atnn.h"
#include "core/feature_adapter.h"
#include "core/multitask_trainer.h"
#include "core/popularity.h"
#include "core/trainer.h"
#include "core/two_tower.h"
#include "data/eleme.h"
#include "data/tmall.h"
#include "nn/tensor.h"

namespace atnn::bench {

/// The scaled stand-in for the paper's Tmall dataset.
inline data::TmallConfig PaperScaleTmallConfig() {
  data::TmallConfig config;
  config.num_users = 2000;
  config.num_items = 4000;
  config.num_new_items = 1000;
  config.num_interactions = 150000;
  // Behavioural aggregates at production noise levels: strong enough that
  // complete-features models lean on them (and degrade when they are
  // missing), weak enough that the degradation stays in the paper's
  // single-digit band.
  config.stats_noise = 0.5;
  // Attractiveness is driven more by taste fit than by visible quality —
  // the regime where a learned ranker beats a quality-judging human.
  config.quality_scale = 0.6;
  config.seed = 20210304;  // ICDE'21 camera-ready vibes; any constant works
  return config;
}

/// The scaled stand-in for the paper's Ele.me dataset.
inline data::ElemeConfig PaperScaleElemeConfig() {
  data::ElemeConfig config;
  // Scaled 1:400 from the paper's 1.2M sign-ups. The regime matters more
  // than the count: labels are one noisy 30-day window each, so direct
  // profile-only regression overfits where the distilled generator does
  // not — the mechanism behind Table IV's improvements.
  config.num_restaurants = 3000;
  config.num_new_restaurants = 2000;
  config.num_cells = 150;
  config.seed = 20210304;
  return config;
}

/// Tower shape used by every neural model in the benches (the paper uses
/// identical structures across towers; we scale widths down).
inline nn::TowerConfig BenchTowerConfig(nn::TowerKind kind) {
  nn::TowerConfig config;
  config.kind = kind;
  config.deep_dims = {64, 32};
  config.cross_layers = 3;
  config.output_dim = 32;
  return config;
}

/// Training schedule shared by the CTR benches.
inline core::TrainOptions BenchTrainOptions() {
  core::TrainOptions options;
  options.epochs = 3;
  options.batch_size = 256;
  options.learning_rate = 2e-3f;
  options.seed = 99;
  return options;
}

/// Training schedule for the food-delivery benches (smaller dataset,
/// regression losses converge with smaller batches).
inline core::TrainOptions BenchElemeTrainOptions() {
  core::TrainOptions options;
  options.epochs = 20;
  options.batch_size = 64;
  options.learning_rate = 1e-3f;
  options.seed = 99;
  return options;
}

/// Flattens interactions into a GBDT feature matrix:
/// [user features | item profile features | item statistics (optional)].
inline nn::Tensor AssembleGbdtFeatures(const data::TmallDataset& dataset,
                                       const std::vector<int64_t>& indices,
                                       bool use_stats) {
  const data::CtrBatch batch = MakeCtrBatch(dataset, indices);
  std::vector<const data::BlockBatch*> blocks = {&batch.user,
                                                 &batch.item_profile};
  if (use_stats) blocks.push_back(&batch.item_stats);
  return core::ConcatForGbdt(blocks);
}

}  // namespace atnn::bench

#endif  // ATNN_BENCH_BENCH_COMMON_H_
