#include "autograd/tensor.h"

#include <algorithm>
#include <atomic>
#include <unordered_map>
#include <unordered_set>

#include "backend/kernels.h"
#include "backend/parallel.h"
#include "obs/metrics.h"

#if defined(__SANITIZE_ADDRESS__)
#define ADEPT_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define ADEPT_ASAN 1
#endif
#endif
#ifdef ADEPT_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace adept::ag {

namespace {
// Grad mode is per-thread so concurrent no-grad evaluation (the serving
// worker pool, multi-threaded weight_expr readers) neither races on the flag
// nor accidentally disables tracking on another thread mid-training.
thread_local bool g_grad_enabled = true;
std::atomic<std::size_t> g_op_nodes{0};

// ---- tape storage ---------------------------------------------------------
// Cached buffers are poisoned under ASan, so a stale view into one still
// fails loudly.
void poison(std::vector<float>& v) {
#ifdef ADEPT_ASAN
  ASAN_POISON_MEMORY_REGION(v.data(), v.size() * sizeof(float));
#else
  (void)v;
#endif
}

void unpoison(std::vector<float>& v) {
#ifdef ADEPT_ASAN
  ASAN_UNPOISON_MEMORY_REGION(v.data(), v.size() * sizeof(float));
#else
  (void)v;
#endif
}

std::atomic<std::size_t> g_cached_bytes{0};

// Resolved on first use, on slow paths only (a miss or a zero fill).
struct StorageCounters {
  obs::Counter& alloc_calls = obs::counter("ag.alloc_calls");
  obs::Counter& alloc_bytes = obs::counter("ag.alloc_bytes");
  obs::Counter& zero_fill_bytes = obs::counter("ag.zero_fill_bytes");
};

StorageCounters& storage_counters() {
  static StorageCounters c;
  return c;
}

// Large gradient buffers fan the fill out over the kernel pool.
void zero_fill(std::vector<float>& v) {
  if (v.size() >= kStorageFloor) {
    storage_counters().zero_fill_bytes.inc(v.size() * sizeof(float));
  }
  float* p = v.data();
  backend::parallel_for(static_cast<std::int64_t>(v.size()), backend::detail::kElemGrain,
                        [=](std::int64_t lo, std::int64_t hi) {
                          std::fill(p + lo, p + hi, 0.0f);
                        });
}

// One thread's buffers of one exact size.
struct SizeClass {
  std::vector<std::vector<float>> free;  // poisoned under ASan
  std::size_t in_use = 0;  // taken on this thread, not yet given back here
  std::size_t peak = 0;    // most ever in use at once: bounds free + in_use
};

struct FreeLists;

// The calling thread's lists. Both are trivially destructible, so a
// TensorImpl destroyed by a later thread_local destructor still reads them
// safely: `t_lists` is nullptr once the lists are gone.
thread_local FreeLists* t_lists = nullptr;
thread_local bool t_lists_released = false;

struct FreeLists {
  std::unordered_map<std::size_t, SizeClass> classes;

  FreeLists() { t_lists = this; }
  FreeLists(const FreeLists&) = delete;
  FreeLists& operator=(const FreeLists&) = delete;
  ~FreeLists() {
    t_lists = nullptr;
    t_lists_released = true;
    for (auto& [n, sc] : classes) {
      for (auto& v : sc.free) unpoison(v);
      g_cached_bytes.fetch_sub(sc.free.size() * n * sizeof(float),
                               std::memory_order_relaxed);
    }
  }
};

// Creates the calling thread's lists on first use; nullptr after its exit
// released them.
FreeLists* own_lists() {
  if (t_lists == nullptr && !t_lists_released) {
    static thread_local FreeLists lists;
  }
  return t_lists;
}

std::vector<float> take_buffer(std::size_t n, bool zeroed) {
  if (n >= kStorageFloor) {
    if (FreeLists* lists = own_lists()) {
      SizeClass& sc = lists->classes[n];
      sc.peak = std::max(sc.peak, ++sc.in_use);
      if (!sc.free.empty()) {
        std::vector<float> v = std::move(sc.free.back());
        sc.free.pop_back();
        g_cached_bytes.fetch_sub(n * sizeof(float), std::memory_order_relaxed);
        unpoison(v);
        if (zeroed) zero_fill(v);
        return v;
      }
    }
    StorageCounters& c = storage_counters();
    c.alloc_calls.inc();
    c.alloc_bytes.inc(n * sizeof(float));
    c.zero_fill_bytes.inc(n * sizeof(float));  // std::vector value-initializes
  }
  return std::vector<float>(n);
}

// Moves `v` into the calling thread's list for its size when the thread has
// taken that size before and the list is below its bound; otherwise leaves
// it for its destructor to free.
void recycle(std::vector<float>& v) {
  const std::size_t n = v.size();
  if (n < kStorageFloor || t_lists == nullptr) return;
  const auto it = t_lists->classes.find(n);
  if (it == t_lists->classes.end()) return;
  SizeClass& sc = it->second;
  if (sc.in_use > 0) --sc.in_use;
  if (sc.free.size() + sc.in_use >= sc.peak) return;
  sc.free.push_back(std::move(v));
  poison(sc.free.back());
  g_cached_bytes.fetch_add(n * sizeof(float), std::memory_order_relaxed);
}

}  // namespace

std::vector<float> empty_buffer(std::size_t n) { return take_buffer(n, false); }
std::vector<float> zeros_buffer(std::size_t n) { return take_buffer(n, true); }

TensorImpl::~TensorImpl() {
  recycle(data);
  recycle(grad);
}

namespace debug {
std::size_t op_nodes_created() {
  return g_op_nodes.load(std::memory_order_relaxed);
}

std::size_t cached_bytes() {
  return g_cached_bytes.load(std::memory_order_relaxed);
}

std::size_t fill_free_lists(float value) {
  std::size_t count = 0;
  if (t_lists == nullptr) return count;
  for (auto& [n, sc] : t_lists->classes) {
    for (auto& v : sc.free) {
      unpoison(v);
      std::fill(v.begin(), v.end(), value);
      poison(v);
      ++count;
    }
  }
  return count;
}
}  // namespace debug

bool GradMode::enabled() { return g_grad_enabled; }
void GradMode::set_enabled(bool on) { g_grad_enabled = on; }

NoGradGuard::NoGradGuard() : prev_(GradMode::enabled()) {
  GradMode::set_enabled(false);
}
NoGradGuard::~NoGradGuard() { GradMode::set_enabled(prev_); }

void check(bool cond, const std::string& msg) {
  if (!cond) throw std::invalid_argument(msg);
}

Tensor Tensor::zeros(std::vector<std::int64_t> shape, bool requires_grad) {
  std::int64_t n = 1;
  for (auto d : shape) n *= d;
  return make_tensor(zeros_buffer(static_cast<std::size_t>(n)), std::move(shape),
                     requires_grad);
}

Tensor Tensor::full(std::vector<std::int64_t> shape, float value, bool requires_grad) {
  std::int64_t n = 1;
  for (auto d : shape) n *= d;
  std::vector<float> data = empty_buffer(static_cast<std::size_t>(n));
  std::fill(data.begin(), data.end(), value);
  return make_tensor(std::move(data), std::move(shape), requires_grad);
}

Tensor Tensor::from_data(std::vector<std::int64_t> shape, std::vector<float> data,
                         bool requires_grad) {
  std::int64_t n = 1;
  for (auto d : shape) n *= d;
  check(static_cast<std::size_t>(n) == data.size(), "from_data: size mismatch");
  return make_tensor(std::move(data), std::move(shape), requires_grad);
}

Tensor Tensor::scalar(float value, bool requires_grad) {
  return make_tensor({value}, {1}, requires_grad);
}

Tensor Tensor::eye(std::int64_t n, bool requires_grad) {
  std::vector<float> d = zeros_buffer(static_cast<std::size_t>(n * n));
  for (std::int64_t i = 0; i < n; ++i) d[static_cast<std::size_t>(i * n + i)] = 1.0f;
  return make_tensor(std::move(d), {n, n}, requires_grad);
}

const std::vector<std::int64_t>& Tensor::shape() const { return impl_->shape; }
std::int64_t Tensor::numel() const { return impl_->numel(); }
std::int64_t Tensor::dim(std::size_t i) const { return impl_->shape.at(i); }
std::size_t Tensor::ndim() const { return impl_->shape.size(); }
bool Tensor::requires_grad() const { return impl_ && impl_->requires_grad; }
void Tensor::set_requires_grad(bool rg) { impl_->requires_grad = rg; }

std::vector<float>& Tensor::data() { return impl_->data; }
const std::vector<float>& Tensor::data() const { return impl_->data; }

std::vector<float>& Tensor::grad() {
  impl_->ensure_grad();
  return impl_->grad;
}
bool Tensor::has_grad() const { return impl_ && !impl_->grad.empty(); }
void Tensor::zero_grad() {
  if (impl_) zero_fill(impl_->grad);
}

float Tensor::item() const {
  check(impl_->numel() == 1, "item: tensor is not a scalar");
  return impl_->data[0];
}

float Tensor::at(std::int64_t r, std::int64_t c) const {
  check(impl_->shape.size() == 2, "at: tensor is not 2-D");
  return impl_->data[static_cast<std::size_t>(r * impl_->shape[1] + c)];
}

void Tensor::set_at(std::int64_t r, std::int64_t c, float v) {
  check(impl_->shape.size() == 2, "set_at: tensor is not 2-D");
  impl_->data[static_cast<std::size_t>(r * impl_->shape[1] + c)] = v;
}

namespace {

// Iterative post-order topological sort of the union of the roots' graphs,
// the roots taken in order with one shared visited set (avoids recursion
// depth limits on long SuperMesh chains).
void topo_sort(const std::vector<TensorImpl*>& roots,
               std::vector<TensorImpl*>& order) {
  std::unordered_set<TensorImpl*> visited;
  std::vector<std::pair<TensorImpl*, std::size_t>> stack;
  for (TensorImpl* root : roots) {
    if (!visited.insert(root).second) continue;  // reached from an earlier root
    stack.emplace_back(root, 0);
    while (!stack.empty()) {
      auto& [node, next_child] = stack.back();
      if (next_child < node->parents.size()) {
        TensorImpl* child = node->parents[next_child].impl();
        ++next_child;
        if (child != nullptr && visited.insert(child).second) {
          stack.emplace_back(child, 0);
        }
      } else {
        order.push_back(node);
        stack.pop_back();
      }
    }
  }
}

}  // namespace

void Tensor::backward(const std::vector<float>* seed_grad) const {
  ag::backward({*this}, {seed_grad});
}

void backward(const std::vector<Tensor>& roots,
              const std::vector<const std::vector<float>*>& seeds) {
  check(seeds.size() == roots.size(), "backward: need one seed per root");
  std::vector<TensorImpl*> root_impls;
  root_impls.reserve(roots.size());
  for (std::size_t i = 0; i < roots.size(); ++i) {
    TensorImpl* root = roots[i].impl();
    check(root != nullptr, "backward: empty tensor");
    check(std::find(root_impls.begin(), root_impls.end(), root) == root_impls.end(),
          "backward: roots must be distinct");
    root->ensure_grad();
    if (seeds[i] != nullptr) {
      check(seeds[i]->size() == root->data.size(), "backward: bad seed size");
      root->grad = *seeds[i];
    } else {
      check(root->numel() == 1, "backward: non-scalar root needs a seed grad");
      root->grad[0] = 1.0f;
    }
    root_impls.push_back(root);
  }
  std::vector<TensorImpl*> order;
  topo_sort(root_impls, order);
  const auto is_root = [&](TensorImpl* node) {
    return std::find(root_impls.begin(), root_impls.end(), node) != root_impls.end();
  };
  // Op nodes keep no gradient state across backward calls: when several
  // losses share subexpressions (the SuperMesh step state is reused by the
  // penalty pass and the step's weight graphs), a stale intermediate grad
  // from an earlier backward would be re-propagated into the leaves. Leaves
  // are NOT cleared — they accumulate until the caller zeroes them.
  for (TensorImpl* node : order) {
    if (node->backward_fn && !node->grad.empty() && !is_root(node)) {
      zero_fill(node->grad);
    }
  }
  // Post-order puts every node after its inputs; walk it in reverse, so a
  // node runs once, after all of its consumers (and every root) have added
  // to its grad.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    TensorImpl* node = *it;
    if (node->backward_fn && !node->grad.empty()) {
      node->backward_fn(*node);
    }
  }
}

void Tensor::detach_() {
  impl_->parents.clear();
  impl_->backward_fn = nullptr;
}

Tensor make_tensor(std::vector<float> data, std::vector<std::int64_t> shape,
                   bool requires_grad) {
  auto impl = std::make_shared<TensorImpl>();
  impl->data = std::move(data);
  impl->shape = std::move(shape);
  impl->requires_grad = requires_grad;
  return Tensor(std::move(impl));
}

Tensor make_op(std::vector<float> data, std::vector<std::int64_t> shape,
               std::vector<Tensor> parents,
               std::function<void(TensorImpl&)> backward) {
  g_op_nodes.fetch_add(1, std::memory_order_relaxed);
  auto impl = std::make_shared<TensorImpl>();
  impl->data = std::move(data);
  impl->shape = std::move(shape);
  bool any_grad = false;
  for (const auto& p : parents) any_grad = any_grad || p.requires_grad();
  if (any_grad && GradMode::enabled()) {
    impl->requires_grad = true;
    impl->parents = std::move(parents);
    impl->backward_fn = std::move(backward);
  }
  return Tensor(std::move(impl));
}

}  // namespace adept::ag
