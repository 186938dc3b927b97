// Tape-based reverse-mode automatic differentiation over dense float tensors.
//
// This is the numerical engine underneath every trainable component in the
// repository: NN layers, the ADEPT SuperMesh, the ALM permutation search, and
// the footprint penalty. The design is a classic define-by-run tape:
//
//   * A Tensor is a shared handle to a TensorImpl holding contiguous float
//     data, an optional gradient buffer, the parent tensors it was computed
//     from, and a backward closure that scatters the output gradient into the
//     parents' gradient buffers.
//   * Operators (see ops.h) build the graph eagerly. ag::backward() runs one
//     topological sort from its roots and invokes each backward closure once;
//     Tensor::backward() is its one-root case.
//   * GradMode/NoGradGuard disable graph construction during evaluation.
//   * Buffers outlive the step: every step of a training or search loop
//     builds the same graph with the same shapes, so a dying TensorImpl
//     hands its large buffers back to a per-thread free list and the ops
//     take their outputs from it (empty_buffer / zeros_buffer below).
//
// Gradients accumulate (+=) so shared subexpressions are handled naturally;
// call zero_grad() (or Optimizer::zero_grad) between steps.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace adept::ag {

struct TensorImpl;

// Per-thread switch for graph construction (mirrors torch.no_grad()). Each
// thread starts with tracking enabled; NoGradGuard only affects its own
// thread, so concurrent no-grad readers never disable tracking elsewhere.
struct GradMode {
  static bool enabled();
  static void set_enabled(bool on);
};

// ---- tape storage ---------------------------------------------------------
// A dying TensorImpl hands its data and grad buffers of at least
// kStorageFloor floats to its thread's free list, keyed by exact element
// count. A list never holds more buffers than its thread once had of that
// size in use at once. A buffer freed on a thread that never took its size,
// or after that thread's lists were released at its exit, goes back to
// malloc, as does every buffer below the floor. Pool misses and zero fills
// of pooled sizes are counted (ag.alloc_calls, ag.alloc_bytes,
// ag.zero_fill_bytes); a hit that needs no zeros touches no counter.
// The floor was chosen by measurement (docs/architecture.md).
inline constexpr std::size_t kStorageFloor = 4096;

// `n` floats of unspecified value: a recycled buffer keeps what it last held.
// For outputs the caller overwrites in full.
std::vector<float> empty_buffer(std::size_t n);
// `n` zeros: for buffers the caller accumulates into.
std::vector<float> zeros_buffer(std::size_t n);

// RAII guard that disables gradient tracking in its scope.
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool prev_;
};

// Shared-ownership handle to a node in the autodiff graph.
class Tensor {
 public:
  Tensor() = default;  // empty handle; defined() is false

  // ---- factories -------------------------------------------------------
  static Tensor zeros(std::vector<std::int64_t> shape, bool requires_grad = false);
  static Tensor full(std::vector<std::int64_t> shape, float value,
                     bool requires_grad = false);
  static Tensor from_data(std::vector<std::int64_t> shape, std::vector<float> data,
                          bool requires_grad = false);
  static Tensor scalar(float value, bool requires_grad = false);
  // Identity matrix [n, n].
  static Tensor eye(std::int64_t n, bool requires_grad = false);

  // ---- structure -------------------------------------------------------
  bool defined() const { return impl_ != nullptr; }
  const std::vector<std::int64_t>& shape() const;
  std::int64_t numel() const;
  std::int64_t dim(std::size_t i) const;
  std::size_t ndim() const;
  bool requires_grad() const;
  void set_requires_grad(bool rg);

  // ---- data access -----------------------------------------------------
  std::vector<float>& data();
  const std::vector<float>& data() const;
  // Gradient buffer; allocated (zero-filled) on first access.
  std::vector<float>& grad();
  bool has_grad() const;
  void zero_grad();
  // Value of a single-element tensor.
  float item() const;
  // 2-D element accessors (row-major).
  float at(std::int64_t r, std::int64_t c) const;
  void set_at(std::int64_t r, std::int64_t c, float v);

  // ---- autodiff --------------------------------------------------------
  // Backpropagate from this tensor: the one-root case of ag::backward. If it
  // is not a scalar, seed_grad must be supplied with numel() entries.
  void backward(const std::vector<float>* seed_grad = nullptr) const;
  // Drop graph edges (parents + backward fn), keeping data. Used by
  // optimizers to make parameters leaves again after in-place updates.
  void detach_();

  TensorImpl* impl() const { return impl_.get(); }
  std::shared_ptr<TensorImpl> impl_ptr() const { return impl_; }
  explicit Tensor(std::shared_ptr<TensorImpl> impl) : impl_(std::move(impl)) {}

 private:
  std::shared_ptr<TensorImpl> impl_;
};

// The node payload. Public because ops.h / custom ops construct these.
struct TensorImpl {
  ~TensorImpl();  // recycles data and grad (see empty_buffer)

  std::vector<float> data;
  std::vector<float> grad;           // empty until touched
  std::vector<std::int64_t> shape;
  bool requires_grad = false;
  std::vector<Tensor> parents;       // graph edges (empty for leaves)
  // Scatters this->grad into the parents' grads. May be empty for leaves.
  std::function<void(TensorImpl&)> backward_fn;

  std::int64_t numel() const {
    std::int64_t n = 1;
    for (auto d : shape) n *= d;
    return n;
  }
  void ensure_grad() {
    if (grad.empty()) grad = zeros_buffer(data.size());
  }
};

// Backpropagate from several roots in one pass. roots[i]'s grad is set to
// *seeds[i] (numel() entries), or to 1 for a scalar root whose seed is
// nullptr. One topological sort covers the union of the roots' graphs, the
// roots taken in order, so a node they share runs its backward closure once,
// after every root has added to its grad. Roots must be distinct.
void backward(const std::vector<Tensor>& roots,
              const std::vector<const std::vector<float>*>& seeds);

// Construct a leaf tensor.
Tensor make_tensor(std::vector<float> data, std::vector<std::int64_t> shape,
                   bool requires_grad);

// Construct an op-result node. `backward` receives the result impl (whose
// .grad is populated) and must accumulate into the parents' grads; it is only
// attached when gradients are being tracked and some parent requires grad.
Tensor make_op(std::vector<float> data, std::vector<std::int64_t> shape,
               std::vector<Tensor> parents,
               std::function<void(TensorImpl&)> backward);

// Throws std::invalid_argument with `msg` when `cond` is false. Used by ops
// for shape validation (catch errors early per CppCoreGuidelines P.7).
void check(bool cond, const std::string& msg);

namespace debug {
// Monotonic count of op nodes constructed by make_op since process start.
// Tests diff it across a call to assert how many tape nodes an operator
// creates (e.g. bcmatmul: 1 compute node + 2 plane views).
std::size_t op_nodes_created();
// Bytes held by the free lists of every thread right now.
std::size_t cached_bytes();
// Overwrites every buffer in the calling thread's free lists with `value`
// and returns how many there are. Tests fill them with NaN to show that no
// op reads a recycled buffer before writing it.
std::size_t fill_free_lists(float value);
}  // namespace debug

}  // namespace adept::ag
