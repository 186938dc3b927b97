#include "comm/sharded.h"

#include <algorithm>
#include <cstring>

namespace adept::comm {

namespace {

// One fused allreduce buffer per this many elements (256 KiB of floats):
// large enough to amortize the two barriers per collective, small enough
// that the owner-chunk pass stays cache-friendly.
constexpr std::size_t kBucketElems = 1u << 16;

}  // namespace

int shard_count(std::int64_t items) {
  if (items <= 0) return 0;
  const std::int64_t cap = std::min<std::int64_t>(items, kMaxShards);
  int p = 1;
  while (p * 2 <= cap) p *= 2;
  return p;
}

ShardRange shard_range(std::int64_t items, int shard, int shards) {
  return {items * shard / shards, items * (shard + 1) / shards};
}

int shard_owner(int shard, int shards, int world) {
  return shard * world / shards;
}

int step_shard_count(std::int64_t items, const Communicator* comm) {
  const int shards = shard_count(items);
  return comm != nullptr ? shards : std::min(shards, 1);
}

ShardedGradReducer::ShardedGradReducer(std::vector<ag::Tensor> params,
                                       int scalar_slots)
    : params_(std::move(params)), scalar_slots_(scalar_slots) {
  std::size_t bucket = 0, fill = 0;
  for (const auto& p : params_) {
    const std::size_t n = static_cast<std::size_t>(p.numel());
    if (fill > 0 && fill + n > kBucketElems) {
      ++bucket;
      fill = 0;
    }
    bucket_of_.push_back(bucket);
    offset_of_.push_back(fill);
    fill += n;
    if (bucket_elems_.size() <= bucket) bucket_elems_.resize(bucket + 1, 0);
    bucket_elems_[bucket] = fill;
  }
}

ShardedGradReducer::Snapshot ShardedGradReducer::make_snapshot(
    const std::vector<double>& scalars, bool harvest) {
  Snapshot s;
  s.count = 1;
  s.buckets.resize(bucket_elems_.size());
  for (std::size_t b = 0; b < bucket_elems_.size(); ++b) {
    s.buckets[b].assign(bucket_elems_[b], 0.0f);
  }
  s.scalars.assign(static_cast<std::size_t>(scalar_slots_), 0.0);
  for (std::size_t k = 0; k < scalars.size() && k < s.scalars.size(); ++k) {
    s.scalars[k] = scalars[k];
  }
  if (!harvest) return s;
  for (std::size_t i = 0; i < params_.size(); ++i) {
    auto& p = params_[i];
    if (!p.has_grad()) continue;
    const auto& g = p.grad();
    std::memcpy(s.buckets[bucket_of_[i]].data() + offset_of_[i], g.data(),
                g.size() * sizeof(float));
  }
  return s;
}

void ShardedGradReducer::merge(Snapshot& left, const Snapshot& right) {
  for (std::size_t b = 0; b < left.buckets.size(); ++b) {
    float* l = left.buckets[b].data();
    const float* r = right.buckets[b].data();
    const std::size_t n = left.buckets[b].size();
    for (std::size_t i = 0; i < n; ++i) l[i] += r[i];
  }
  for (std::size_t k = 0; k < left.scalars.size(); ++k) {
    left.scalars[k] += right.scalars[k];
  }
  left.count += right.count;
}

void ShardedGradReducer::add_shard(const std::vector<double>& scalars) {
  stack_.push_back(make_snapshot(scalars));
  // Binary-counter merge: combining equal-sized neighbors realizes the fixed
  // balanced tree over ascending shard indices incrementally.
  while (stack_.size() >= 2 &&
         stack_[stack_.size() - 2].count == stack_.back().count) {
    merge(stack_[stack_.size() - 2], stack_.back());
    stack_.pop_back();
  }
}

std::vector<double> ShardedGradReducer::finish(Communicator* comm) {
  // Collapse the merge stack right-to-left (later shards fold into earlier
  // ones, completing the tree); a rank that owned no shards reduces zeros.
  while (stack_.size() >= 2) {
    merge(stack_[stack_.size() - 2], stack_.back());
    stack_.pop_back();
  }
  Snapshot total = stack_.empty() ? make_snapshot({}, /*harvest=*/false)
                                  : std::move(stack_.back());
  stack_.clear();

  if (comm != nullptr) {
    for (auto& bucket : total.buckets) {
      comm->allreduce_sum(bucket.data(),
                          static_cast<std::int64_t>(bucket.size()));
    }
    comm->allreduce_sum(total.scalars.data(),
                        static_cast<std::int64_t>(total.scalars.size()));
  }

  for (std::size_t i = 0; i < params_.size(); ++i) {
    auto& g = params_[i].grad();  // allocates zero-filled on first touch
    const float* src = total.buckets[bucket_of_[i]].data() + offset_of_[i];
    std::memcpy(g.data(), src, g.size() * sizeof(float));
  }
  return total.scalars;
}

void ShardedGradReducer::add_replicated(
    const std::vector<std::vector<float>>& replicated) {
  for (std::size_t i = 0; i < params_.size() && i < replicated.size(); ++i) {
    if (replicated[i].empty()) continue;
    auto& g = params_[i].grad();
    const float* add = replicated[i].data();
    for (std::size_t j = 0; j < g.size(); ++j) g[j] += add[j];
  }
}

std::vector<std::vector<float>> ShardedGradReducer::harvest_grads(
    std::vector<ag::Tensor>& params) {
  std::vector<std::vector<float>> out;
  out.reserve(params.size());
  for (auto& p : params) {
    if (p.has_grad()) {
      out.push_back(p.grad());
    } else {
      out.emplace_back(static_cast<std::size_t>(p.numel()), 0.0f);
    }
  }
  return out;
}

}  // namespace adept::comm
