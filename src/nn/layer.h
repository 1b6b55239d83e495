// Layer interface for the from-scratch NN stack.
//
// Every layer exposes two forward paths:
//
//   * The stateful train path — forward(x) caches whatever the backward
//     pass needs (inputs, im2col columns, pool argmaxes, dropout masks),
//     then backward() consumes it. Owned by the Trainer; used for nothing
//     but training.
//   * The const inference path — plan_inference() describes, for a fixed
//     max batch, every intermediate shape and scratch buffer the layer
//     needs, and forward_into() executes against pre-resolved arena
//     slices without mutating the layer. Serving, nn::evaluate and int8
//     calibration all run here, through InferenceContext (nn/infer.h).
//     Dropout is the identity; every other layer reuses the train kernels.
//
// The training loop is strictly: forward(batch) through all layers, loss
// head, backward in reverse order, optimizer step on the collected Params.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"
#include "tensor/view.h"

namespace deepcsi::nn {

using tensor::Tensor;

struct Param {
  Tensor value;
  Tensor grad;

  explicit Param(Tensor v) : value(std::move(v)), grad(Tensor::zeros_like(value)) {}
  std::size_t numel() const { return value.numel(); }
};

// One layer's slot in an inference plan. Built once per InferenceContext
// (heap use is fine there); immutable during forward_into.
struct InferencePlan {
  tensor::StaticShape in_shape;   // dim0 = the plan's max batch
  tensor::StaticShape out_shape;  // filled by plan_inference
  // Scratch slices the layer needs, as float counts at planned max batch;
  // the context carves them from the arena and resolves the pointers.
  std::vector<std::size_t> scratch_numel;
  std::vector<float*> scratch;
  // Set by InferenceContext when this layer is a Conv2d immediately
  // followed by a Selu: the conv applies the activation as a fused
  // row epilogue inside its GEMM chunks (the rows are still cache-hot)
  // and the context skips the Selu step, so the activation never
  // re-traverses the arena. The SELU kernel is elementwise and
  // position-independent, so fused output is bitwise identical to the
  // unfused two-step path.
  bool fuse_selu = false;
  // Plans for nested layers (e.g. the conv inside SpatialAttention),
  // planned recursively and resolved like any other slice.
  std::vector<InferencePlan> children;
};

// Arguments of one const forward step. x/y are arena slices re-batched to
// the actual n (= x.dim(0)) <= plan.in_shape.dim(0); all other dims match
// the plan.
struct InferArgs {
  tensor::ConstTensorView x;
  tensor::TensorView y;
  const InferencePlan& plan;
};

class Layer {
 public:
  virtual ~Layer() = default;

  // Train-mode forward: caches what backward() needs.
  virtual Tensor forward(const Tensor& x) = 0;

  // grad w.r.t. this layer's output -> grad w.r.t. its input; parameter
  // gradients are accumulated into params()[i]->grad.
  virtual Tensor backward(const Tensor& grad_out) = 0;

  // Given plan.in_shape, fill out_shape / scratch_numel / children. Must
  // be pure: no layer state may change, so any number of contexts can be
  // planned from one shared model.
  virtual void plan_inference(InferencePlan& plan) const = 0;

  // Const inference forward: read args.x, write args.y, using only the
  // pre-planned scratch in args.plan. Never allocates, never mutates.
  virtual void forward_into(const InferArgs& args) const = 0;

  virtual std::vector<Param*> params() { return {}; }
  virtual std::vector<const Param*> params() const { return {}; }
  virtual std::string name() const = 0;

  std::size_t num_trainable() const {
    std::size_t n = 0;
    for (const Param* p : params()) n += p->numel();
    return n;
  }
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace deepcsi::nn
