// Procedural image-classification datasets.
//
// The paper evaluates on MNIST / FashionMNIST / SVHN / CIFAR-10, none of
// which are available in this offline environment. These generators produce
// multi-class image tasks with the same tensor shapes and a graded
// difficulty ladder in the same order (MNIST easiest ... CIFAR-10 hardest),
// so every training/search code path the paper exercises runs unchanged.
// Each class has a fixed procedural prototype (a sum of randomly placed
// Gaussian blobs and sinusoidal gratings); samples are affine-jittered,
// cross-class-mixed (difficulty), and pixel-noised versions of it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"

namespace adept::data {

struct DatasetSpec {
  std::string name;
  int classes = 10;
  int channels = 1;
  int height = 28;
  int width = 28;
  double pixel_noise = 0.15;   // additive Gaussian std-dev
  double jitter_px = 2.0;      // max |translation| in pixels
  double class_mix = 0.0;      // blend weight of a random other class
  std::uint64_t seed = 1;      // prototype seed (fixed per dataset)

  static DatasetSpec mnist_like();
  static DatasetSpec fmnist_like();
  static DatasetSpec svhn_like();
  static DatasetSpec cifar10_like();
};

// A fully materialized, deterministic dataset split.
class SyntheticDataset {
 public:
  // `split_seed` decorrelates train/val/test splits of the same spec.
  SyntheticDataset(const DatasetSpec& spec, int num_samples,
                   std::uint64_t split_seed);

  const DatasetSpec& spec() const { return spec_; }
  int size() const { return static_cast<int>(labels_.size()); }
  int image_elems() const { return spec_.channels * spec_.height * spec_.width; }
  // Flat CHW pixels of sample i (normalized to roughly zero mean, unit std).
  const std::vector<float>& image(int i) const {
    return images_[static_cast<std::size_t>(i)];
  }
  int label(int i) const { return labels_[static_cast<std::size_t>(i)]; }

 private:
  std::vector<float> render_prototype(int cls, adept::Rng& proto_rng) const;

  DatasetSpec spec_;
  std::vector<std::vector<float>> prototypes_;  // one per class, flat CHW
  std::vector<std::vector<float>> images_;
  std::vector<int> labels_;
};

}  // namespace adept::data
