#include "nn/train.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>

#include "comm/sharded.h"
#include "nn/layers.h"
#include "nn/loss.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optim/optimizer.h"
#include "optim/schedule.h"
#include "runtime/checkpoint.h"

namespace adept::nn {

using ag::Tensor;

namespace {

// The cosine schedule must span the GLOBAL step count, derived from the
// dataset itself, so every rank of a data-parallel run anneals identically
// no matter how its local loader is shaped.
int global_steps_per_epoch(const data::SyntheticDataset& train_set,
                           const TrainConfig& config) {
  return (train_set.size() + config.batch_size - 1) / config.batch_size;
}

std::vector<BatchNorm2d*> collect_bn_layers(OnnModel& model) {
  std::vector<BatchNorm2d*> out;
  for (const auto& m : flatten_modules(model.net)) {
    if (auto* bn = dynamic_cast<BatchNorm2d*>(m.get())) out.push_back(bn);
  }
  return out;
}

// Stat-row layout shared by capture and replay: [mean C | var C] per
// BatchNorm layer, in module order.
std::int64_t bn_stat_cols(const std::vector<BatchNorm2d*>& bns) {
  std::int64_t cols = 0;
  for (auto* bn : bns) cols += 2 * bn->channels();
  return cols;
}

void capture_bn_row(const std::vector<BatchNorm2d*>& bns, float* row) {
  for (auto* bn : bns) {
    const auto c = static_cast<std::ptrdiff_t>(bn->channels());
    std::copy(bn->captured_mean().begin(), bn->captured_mean().end(), row);
    row += c;
    std::copy(bn->captured_var().begin(), bn->captured_var().end(), row);
    row += c;
  }
}

void replay_bn_rows(const std::vector<BatchNorm2d*>& bns, const float* rows,
                    int shards, std::int64_t cols) {
  for (int s = 0; s < shards; ++s) {
    const float* row = rows + static_cast<std::ptrdiff_t>(s) * cols;
    for (auto* bn : bns) {
      bn->update_running_stats(row, row + bn->channels());
      row += 2 * bn->channels();
    }
  }
}

// Variation-aware training noise is a pure function of (step, shard): each
// shard forward re-arms the drift streams, so the noise a sample sees never
// depends on how many forwards this rank ran before.
std::uint64_t shard_noise_seed(std::uint64_t seed, int step, int shard) {
  const std::uint64_t tag =
      static_cast<std::uint64_t>(step) * (comm::kMaxShards + 1) +
      static_cast<std::uint64_t>(shard) + 1;
  return (seed ^ 0xbeefULL) + 0x9e3779b97f4a7c15ULL * tag;
}

// Turns on BatchNorm stat capture for the loop and restores each layer's
// previous flag on every exit, a throw included, so a failed call never
// leaves the caller's model capturing.
class StatCaptureScope {
 public:
  explicit StatCaptureScope(const std::vector<BatchNorm2d*>& bns) : bns_(bns) {
    for (auto* bn : bns_) {
      was_.push_back(bn->stat_capture());
      bn->set_stat_capture(true);
    }
  }
  ~StatCaptureScope() {
    for (std::size_t i = 0; i < bns_.size(); ++i) {
      bns_[i]->set_stat_capture(was_[i]);
    }
  }
  StatCaptureScope(const StatCaptureScope&) = delete;
  StatCaptureScope& operator=(const StatCaptureScope&) = delete;

 private:
  std::vector<BatchNorm2d*> bns_;
  std::vector<bool> was_;
};

// The training loop every train_classifier call takes. `c` is this rank's
// communicator in a rank group; nullptr runs single-process, as world 1,
// rank 0 with one shard per step and no collective. Stats are filled on
// rank 0 only.
TrainStats train_loop(OnnModel& model, const data::SyntheticDataset& train_set,
                      const data::SyntheticDataset& test_set,
                      const TrainConfig& config, comm::Communicator* c) {
  const int rank = c != nullptr ? c->rank() : 0;
  const int world = c != nullptr ? c->world_size() : 1;
  const int total_steps =
      config.epochs * global_steps_per_epoch(train_set, config);
  std::vector<BatchNorm2d*> bns = collect_bn_layers(model);
  const std::int64_t stat_cols = bn_stat_cols(bns);
  StatCaptureScope capture(bns);

  adept::Rng rng(config.seed);  // shared seed -> identical shuffles
  data::DataLoader loader(train_set, config.batch_size);
  optim::Adam opt(model.parameters(), config.lr, 0.9, 0.999, 1e-8,
                  config.weight_decay);
  optim::CosineLr schedule(config.lr, total_steps);

  // Telemetry: histogram/counter/gauges on rank 0 only so the recorded
  // counts do not depend on the world size; spans on every rank so
  // per-rank skew shows up in the trace.
  obs::Histogram& h_epoch_us = obs::histogram("train.epoch_us");
  obs::Gauge& g_loss = obs::gauge("train.loss");
  obs::Gauge& g_acc = obs::gauge("train.accuracy");
  obs::Counter& epochs_total = obs::counter("train.epochs");
  static const obs::TraceId t_epoch = obs::intern_name("train.epoch");
  static const obs::TraceId t_step = obs::intern_name("train.step");
  static const obs::TraceId t_forward = obs::intern_name("train.forward");
  static const obs::TraceId t_backward = obs::intern_name("train.backward");
  static const obs::TraceId t_optimizer = obs::intern_name("train.optimizer");
  static const obs::TraceId t_evaluate = obs::intern_name("train.evaluate");

  TrainStats stats;
  int step = 0;
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    obs::TraceSpan epoch_span(t_epoch);
    obs::ScopedTimerUs epoch_timer(rank == 0 ? &h_epoch_us : nullptr);
    model.set_training(true);
    loader.shuffle(rng);
    double epoch_loss = 0.0;
    const int nb = loader.batches_per_epoch();
    for (int b = 0; b < nb; ++b) {
      obs::TraceSpan step_span(t_step);
      opt.set_lr(schedule.at(step));
      // Every rank assembles the full step batch (cheap, keeps the rng
      // streams identical) and computes only its owned shards.
      data::Batch batch = loader.batch(b);
      const auto n = static_cast<std::int64_t>(batch.labels.size());
      const int shards = comm::step_shard_count(n, c);
      comm::ShardedGradReducer reducer(opt.params(), /*scalar_slots=*/1);
      std::vector<float> stat_rows(
          static_cast<std::size_t>(shards) * static_cast<std::size_t>(stat_cols),
          0.0f);
      for (int s = 0; s < shards; ++s) {
        if (comm::shard_owner(s, shards, world) != rank) continue;
        Tensor loss;
        {
          obs::TraceSpan forward_span(t_forward);
          opt.zero_grad();
          if (config.train_phase_noise > 0.0) {
            model.set_phase_noise(config.train_phase_noise,
                                  shard_noise_seed(config.seed, step, s));
          }
          const auto r = comm::shard_range(n, s, shards);
          data::Batch sb = data::slice_batch(batch, r.lo, r.hi);
          Tensor logits = model.net->forward(sb.images);
          // Scale the shard mean so the shard losses of the step sum to the
          // full-batch mean loss.
          loss = ag::mul_scalar(
              cross_entropy_loss(logits, sb.labels),
              static_cast<float>(r.hi - r.lo) / static_cast<float>(n));
        }
        obs::TraceSpan backward_span(t_backward);
        loss.backward();
        reducer.add_shard({static_cast<double>(loss.item())});
        if (stat_cols > 0) {
          capture_bn_row(bns, stat_rows.data() +
                                  static_cast<std::size_t>(s) *
                                      static_cast<std::size_t>(stat_cols));
        }
      }
      std::vector<double> step_scalars;
      {
        obs::TraceSpan optimizer_span(t_optimizer);
        step_scalars = reducer.finish(c);  // grads + loss, across ranks
        opt.step();
        if (stat_cols > 0) {
          // Rows are zero except at their owner, so the sum IS the gather;
          // every rank replays the identical bits in shard order.
          if (c != nullptr) {
            c->allreduce_sum(stat_rows.data(),
                             static_cast<std::int64_t>(stat_rows.size()));
          }
          replay_bn_rows(bns, stat_rows.data(), shards, stat_cols);
        }
      }
      epoch_loss += step_scalars.empty() ? 0.0 : step_scalars[0];
      ++step;
    }
    stats.train_loss_per_epoch.push_back(epoch_loss / std::max(1, nb));
    if (rank == 0) {
      obs::TraceSpan evaluate_span(t_evaluate);
      stats.test_accuracy_per_epoch.push_back(
          evaluate_accuracy(model, test_set));
      epochs_total.inc();
      g_loss.set(stats.train_loss_per_epoch.back());
      g_acc.set(stats.test_accuracy_per_epoch.back());
    }
  }
  stats.final_accuracy = stats.test_accuracy_per_epoch.empty()
                             ? 0.0
                             : stats.test_accuracy_per_epoch.back();
  return stats;
}

}  // namespace

TrainStats train_classifier(OnnModel& model, const data::SyntheticDataset& train_set,
                            const data::SyntheticDataset& test_set,
                            const TrainConfig& config) {
  if (!comm::use_rank_group(config.ranks)) {
    return train_loop(model, train_set, test_set, config, nullptr);
  }
  const int world = comm::resolve_ranks(config.ranks);
  std::string bytes;
  if (world > 1) {
    try {
      bytes = runtime::encode_checkpoint(model);
    } catch (const std::exception& e) {
      throw std::runtime_error(
          std::string("train_classifier: multi-rank training replicates the "
                      "model via checkpoints, which this model does not "
                      "support (") +
          e.what() +
          "); freeze searched layers to a fixed PtcTopology first");
    }
  }
  TrainStats stats;
  comm::run_ranks(world, [&](comm::Communicator& c) {
    // Rank 0 trains the caller's model in place; the others train
    // checkpoint clones (bit-identical parameters by the round-trip
    // guarantee). Updates stay in lockstep, so the clones are discarded.
    std::optional<runtime::LoadedCheckpoint> clone;
    OnnModel* m = &model;
    if (c.rank() != 0) {
      clone = runtime::decode_checkpoint(bytes);
      m = &clone->model;
    }
    TrainStats local = train_loop(*m, train_set, test_set, config, &c);
    if (c.rank() == 0) stats = std::move(local);
  });
  return stats;
}

double evaluate_accuracy(OnnModel& model, const data::SyntheticDataset& dataset,
                         int batch_size, double noise_sigma, std::uint64_t noise_seed) {
  ag::NoGradGuard guard;
  // Evaluation must leave the model exactly as it found it: restore the
  // caller's training mode (not unconditionally `true`) and pop the full
  // phase-noise state (sigma AND drift stream) so a nominal eval in the
  // middle of variation-aware training neither resets nor advances the
  // training noise stream.
  const bool was_training = model.training();
  model.set_training(false);
  const auto saved_noise = model.save_phase_noise();
  if (noise_sigma > 0.0) {
    model.set_phase_noise(noise_sigma, noise_seed);
  } else {
    model.set_phase_noise_sigma(0.0);  // nominal eval, streams untouched
  }
  data::DataLoader loader(dataset, batch_size);
  double correct_weighted = 0.0;
  int total = 0;
  for (int b = 0; b < loader.batches_per_epoch(); ++b) {
    data::Batch batch = loader.batch(b);
    Tensor logits = model.net->forward(batch.images);
    correct_weighted +=
        accuracy(logits, batch.labels) * static_cast<double>(batch.labels.size());
    total += static_cast<int>(batch.labels.size());
  }
  model.restore_phase_noise(saved_noise);
  model.set_training(was_training);
  return total == 0 ? 0.0 : correct_weighted / total;
}

OnnProxyTask::OnnProxyTask(const data::SyntheticDataset& train_set,
                           const data::SyntheticDataset& val_set, int batch_size,
                           int cnn_width, std::uint64_t seed)
    : train_set_(train_set),
      val_set_(val_set),
      train_loader_(train_set, batch_size),
      val_loader_(val_set, batch_size),
      batch_size_(batch_size),
      cnn_width_(cnn_width),
      rng_(seed) {}

void OnnProxyTask::bind(core::SuperMesh& mesh) {
  PtcBinding binding = PtcBinding::searched(&mesh);
  model_ = make_proxy_cnn(train_set_.spec().channels, train_set_.spec().height,
                          train_set_.spec().classes, binding, rng_, cnn_width_);
  bn_layers_ = collect_bn_layers(model_);
  train_loader_.shuffle(rng_);
  val_loader_.shuffle(rng_);
  bound_ = true;
}

data::Batch OnnProxyTask::next_batch(bool validation) {
  data::DataLoader& loader = validation ? val_loader_ : train_loader_;
  int& cursor = validation ? val_cursor_ : train_cursor_;
  if (cursor >= loader.batches_per_epoch()) {
    cursor = 0;
    loader.shuffle(rng_);
  }
  return loader.batch(cursor++);
}

std::int64_t OnnProxyTask::begin_step_items(bool validation) {
  ag::check(bound_, "OnnProxyTask: bind() not called");
  // Sharded training forwards must not fold batch statistics into the
  // running stats on the spot — capture them for the gather/replay protocol.
  for (auto* bn : bn_layers_) bn->set_stat_capture(true);
  step_batch_ = next_batch(validation);
  // In a step the searcher opened, every layer's weight is built here, once,
  // in forward order; the shard forwards read the pinned leaves.
  for (auto* layer : model_.onn_layers) layer->weight().pin_step_weight();
  return static_cast<std::int64_t>(step_batch_.labels.size());
}

Tensor OnnProxyTask::loss_shard(core::SuperMesh& mesh, bool validation,
                                std::int64_t lo, std::int64_t hi,
                                std::int64_t items) {
  (void)mesh, (void)validation;  // batch pinned by begin_step_items
  data::Batch sb = data::slice_batch(step_batch_, lo, hi);
  Tensor logits = model_.net->forward(sb.images);
  return ag::mul_scalar(cross_entropy_loss(logits, sb.labels),
                        static_cast<float>(hi - lo) /
                            static_cast<float>(items));
}

std::int64_t OnnProxyTask::stat_slots() const {
  return bn_stat_cols(bn_layers_);
}

void OnnProxyTask::capture_shard_stats(float* row) {
  capture_bn_row(bn_layers_, row);
}

void OnnProxyTask::apply_step_stats(const float* rows, int shards) {
  replay_bn_rows(bn_layers_, rows, shards, bn_stat_cols(bn_layers_));
}

std::vector<Tensor> OnnProxyTask::weights() { return model_.parameters(); }

double OnnProxyTask::metric(core::SuperMesh& mesh) {
  ag::NoGradGuard guard;
  adept::Rng eval_rng(11);
  mesh.begin_step(/*tau=*/0.5, eval_rng, /*stochastic=*/false);
  return evaluate_accuracy(model_, val_set_, batch_size_);
}

}  // namespace adept::nn
