#include "nn/infer.h"

#include <utility>

#include "common/check.h"

namespace deepcsi::nn {
namespace {

// Slices start on 16-float (64-byte) boundaries: one cache line, and
// vector-width aligned for every ISA the kernels target.
std::size_t aligned(std::size_t numel) { return (numel + 15) & ~std::size_t{15}; }

std::size_t scratch_floats(const InferencePlan& plan) {
  std::size_t total = 0;
  for (std::size_t n : plan.scratch_numel) total += aligned(n);
  for (const InferencePlan& child : plan.children)
    total += scratch_floats(child);
  return total;
}

void resolve_scratch(InferencePlan& plan, float* base, std::size_t& offset) {
  plan.scratch.clear();
  plan.scratch.reserve(plan.scratch_numel.size());
  for (std::size_t n : plan.scratch_numel) {
    plan.scratch.push_back(base + offset);
    offset += aligned(n);
  }
  for (InferencePlan& child : plan.children)
    resolve_scratch(child, base, offset);
}

}  // namespace

InferenceContext::InferenceContext(const Sequential& graph,
                                   tensor::StaticShape sample_shape,
                                   std::size_t max_batch)
    : graph_(graph), max_batch_(max_batch) {
  DEEPCSI_CHECK(max_batch_ >= 1);
  DEEPCSI_CHECK(sample_shape.rank >= 1 &&
                sample_shape.rank < tensor::kMaxViewRank);

  // Batch-major input shape: [max_batch, sample...].
  in_shape_.rank = sample_shape.rank + 1;
  in_shape_.dims[0] = max_batch_;
  for (std::size_t i = 0; i < sample_shape.rank; ++i)
    in_shape_.dims[i + 1] = sample_shape.dims[i];

  // One walk over the layer graph: every intermediate shape and scratch
  // requirement is known before a single float is allocated.
  const std::size_t n_layers = graph_.num_layers();
  steps_.reserve(n_layers);
  tensor::StaticShape shape = in_shape_;
  std::size_t max_activation = shape.numel();
  std::size_t total_scratch = 0;
  for (std::size_t i = 0; i < n_layers; ++i) {
    InferencePlan plan;
    plan.in_shape = shape;
    graph_.layer(i).plan_inference(plan);
    shape = plan.out_shape;
    if (shape.numel() > max_activation) max_activation = shape.numel();
    total_scratch += scratch_floats(plan);
    steps_.push_back(std::move(plan));
  }

  // Fuse conv -> selu pairs: the conv applies SELU as its GEMM row
  // epilogue (cache-hot, one arena traversal) and the Selu step is
  // skipped. The SELU kernel is a position-independent elementwise
  // function, so the fused activations are bitwise identical to the
  // two-step path.
  fused_away_.assign(n_layers, 0);
  for (std::size_t i = 0; i + 1 < n_layers; ++i) {
    if (graph_.layer(i).name() == "conv2d" &&
        graph_.layer(i + 1).name() == "selu") {
      steps_[i].fuse_selu = true;
      fused_away_[i + 1] = 1;
    }
  }

  // Arena layout: [input | act A | act B | per-layer scratch...].
  const std::size_t input_floats = aligned(in_shape_.numel());
  const std::size_t act_floats = aligned(max_activation);
  arena_.assign(input_floats + 2 * act_floats + total_scratch, 0.0f);
  input_ = arena_.data();
  act_[0] = input_ + input_floats;
  act_[1] = act_[0] + act_floats;
  std::size_t offset = input_floats + 2 * act_floats;
  for (InferencePlan& plan : steps_)
    resolve_scratch(plan, arena_.data(), offset);
  DEEPCSI_CHECK(offset == arena_.size());
}

tensor::ConstTensorView InferenceContext::run(std::size_t n,
                                              const InputObserver* observe) {
  DEEPCSI_CHECK(n >= 1 && n <= max_batch_);
  tensor::ConstTensorView x(input_, in_shape_.with_dim0(n));
  std::size_t slot = 0;
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    if (fused_away_[i]) continue;  // selu applied by the previous conv
    if (observe != nullptr) (*observe)(i, x);
    const InferencePlan& plan = steps_[i];
    tensor::TensorView y(act_[slot], plan.out_shape.with_dim0(n));
    graph_.layer(i).forward_into({x, y, plan});
    x = tensor::ConstTensorView(y.data(), y.shape());
    slot ^= 1;
  }
  return x;
}

ContextPool::ContextPool(const SharedModel& model,
                         tensor::StaticShape sample_shape,
                         std::size_t max_batch)
    : model_(model), sample_shape_(sample_shape), max_batch_(max_batch) {
  DEEPCSI_CHECK(max_batch_ >= 1);
}

ContextPool::Lease ContextPool::acquire() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!free_.empty()) {
      InferenceContext* ctx = free_.back();
      free_.pop_back();
      return Lease(this, ctx);
    }
  }
  // Cold path: plan and allocate the arena OUTSIDE the lock, so N lanes
  // warming up concurrently build their contexts in parallel instead of
  // serializing a multi-megabyte zero-fill behind a freelist mutex.
  auto built =
      std::make_unique<InferenceContext>(model_, sample_shape_, max_batch_);
  InferenceContext* ctx = built.get();
  std::lock_guard<std::mutex> lock(mu_);
  all_.push_back(std::move(built));
  // Pre-size the freelist so release() never allocates.
  free_.reserve(all_.size());
  return Lease(this, ctx);
}

void ContextPool::release(InferenceContext* ctx) {
  std::lock_guard<std::mutex> lock(mu_);
  free_.push_back(ctx);
}

}  // namespace deepcsi::nn
