#include "data/loader.h"

#include <algorithm>
#include <numeric>

namespace adept::data {

DataLoader::DataLoader(const SyntheticDataset& dataset, int batch_size)
    : dataset_(dataset), batch_size_(batch_size) {
  order_.resize(static_cast<std::size_t>(dataset_.size()));
  std::iota(order_.begin(), order_.end(), 0);
}

int DataLoader::batches_per_epoch() const {
  return (dataset_.size() + batch_size_ - 1) / batch_size_;
}

void DataLoader::shuffle(adept::Rng& rng) { rng.shuffle(order_); }

Batch DataLoader::batch(int index) const {
  std::vector<int> indices;
  const int begin = index * batch_size_;
  const int end = std::min(begin + batch_size_, dataset_.size());
  for (int i = begin; i < end; ++i) {
    indices.push_back(order_[static_cast<std::size_t>(i)]);
  }
  return gather(indices);
}

Batch DataLoader::gather(const std::vector<int>& indices) const {
  const auto& spec = dataset_.spec();
  const auto elems = static_cast<std::size_t>(dataset_.image_elems());
  std::vector<float> data = ag::empty_buffer(indices.size() * elems);
  Batch out;
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const auto& img = dataset_.image(indices[i]);
    std::copy(img.begin(), img.end(), data.begin() + static_cast<std::ptrdiff_t>(i * elems));
    out.labels.push_back(dataset_.label(indices[i]));
  }
  out.images = ag::make_tensor(
      std::move(data),
      {static_cast<std::int64_t>(indices.size()), spec.channels, spec.height, spec.width},
      false);
  return out;
}

Batch slice_batch(const Batch& batch, std::int64_t lo, std::int64_t hi) {
  const std::int64_t n = batch.images.dim(0);
  const std::int64_t elems = n == 0 ? 0 : batch.images.numel() / n;
  const auto& src = batch.images.data();
  std::vector<float> data = ag::empty_buffer(static_cast<std::size_t>((hi - lo) * elems));
  std::copy(src.begin() + static_cast<std::ptrdiff_t>(lo * elems),
            src.begin() + static_cast<std::ptrdiff_t>(hi * elems), data.begin());
  Batch out;
  out.images = ag::make_tensor(
      std::move(data),
      {hi - lo, batch.images.dim(1), batch.images.dim(2), batch.images.dim(3)},
      false);
  out.labels.assign(batch.labels.begin() + static_cast<std::ptrdiff_t>(lo),
                    batch.labels.begin() + static_cast<std::ptrdiff_t>(hi));
  return out;
}

}  // namespace adept::data
