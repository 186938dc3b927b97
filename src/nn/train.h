// Training loops and the CNN-based search proxy task.
//
//   train_classifier    supervised training of an OnnModel (used for
//                       re-training searched topologies, baselines, and
//                       variation-aware training)
//   evaluate_accuracy   test-set accuracy (optionally under phase noise)
//   OnnProxyTask        core::ProxyTask implementation that embeds a live
//                       SuperMesh into the proxy CNN and trains it on the
//                       synthetic-MNIST proxy (the paper's search setup)
#pragma once

#include <cstdint>

#include "core/search.h"
#include "data/loader.h"
#include "data/synthetic.h"
#include "nn/models.h"

namespace adept::nn {

class BatchNorm2d;  // layers.h

struct TrainConfig {
  int epochs = 5;
  int batch_size = 64;
  double lr = 1e-3;
  double weight_decay = 1e-4;
  std::uint64_t seed = 7;
  // Variation-aware training noise (0 disables).
  double train_phase_noise = 0.0;
  // Rank request (comm::use_rank_group). 0 trains single-process, one shard
  // per step, unless ADEPT_RANKS resolves above 1. An explicit count
  // (clamped to [1, 8]) trains on that many ranks with shard_count(batch)
  // micro-shards per step, bit-identical at every rank count, 1 included.
  int ranks = 0;
};

struct TrainStats {
  std::vector<double> train_loss_per_epoch;
  std::vector<double> test_accuracy_per_epoch;
  double final_accuracy = 0.0;
};

TrainStats train_classifier(OnnModel& model, const data::SyntheticDataset& train_set,
                            const data::SyntheticDataset& test_set,
                            const TrainConfig& config);

// Accuracy over the full dataset. If noise_sigma > 0 the photonic layers see
// fresh Gaussian phase drift on every batch (Fig. 4 protocol).
double evaluate_accuracy(OnnModel& model, const data::SyntheticDataset& dataset,
                         int batch_size = 128, double noise_sigma = 0.0,
                         std::uint64_t noise_seed = 99);

// CNN proxy task for the ADEPT search (paper: 2-layer CNN on MNIST).
class OnnProxyTask : public core::ProxyTask {
 public:
  OnnProxyTask(const data::SyntheticDataset& train_set,
               const data::SyntheticDataset& val_set, int batch_size, int cnn_width,
               std::uint64_t seed);

  void bind(core::SuperMesh& mesh) override;
  std::vector<ag::Tensor> weights() override;
  double metric(core::SuperMesh& mesh) override;  // validation accuracy

  // Shard API: the shard items are the samples of the step's batch;
  // BatchNorm running stats go through the capture/gather/replay protocol
  // (stat row = [mean C | var C] per BN layer in module order).
  std::int64_t begin_step_items(bool validation) override;
  ag::Tensor loss_shard(core::SuperMesh& mesh, bool validation,
                        std::int64_t lo, std::int64_t hi,
                        std::int64_t items) override;
  std::int64_t stat_slots() const override;
  void capture_shard_stats(float* row) override;
  void apply_step_stats(const float* rows, int shards) override;

 private:
  data::Batch next_batch(bool validation);

  const data::SyntheticDataset& train_set_;
  const data::SyntheticDataset& val_set_;
  data::DataLoader train_loader_;
  data::DataLoader val_loader_;
  int batch_size_;
  int cnn_width_;
  adept::Rng rng_;
  int train_cursor_ = 0;
  int val_cursor_ = 0;
  OnnModel model_;
  bool bound_ = false;
  data::Batch step_batch_;               // pinned by begin_step_items
  std::vector<BatchNorm2d*> bn_layers_;  // collected at bind
};

}  // namespace adept::nn
