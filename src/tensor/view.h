// Borrowed-storage tensor views for the arena-planned inference path.
//
// A TensorView is a (pointer, shape) pair over memory someone else owns —
// an InferenceContext arena slice, or an owning Tensor's buffer. Unlike
// Tensor, the shape is a fixed-capacity value type (no heap), so views
// can be built, copied and re-batched inside the zero-allocation forward
// pass. Views never manage lifetime: the arena (or Tensor) must outlive
// every view into it.
#pragma once

#include <array>
#include <cstddef>
#include <initializer_list>
#include <vector>

#include "common/check.h"
#include "tensor/tensor.h"

namespace deepcsi::tensor {

inline constexpr std::size_t kMaxViewRank = 4;

// Fixed-capacity shape (rank 1..kMaxViewRank). Dims beyond rank stay
// zero, so defaulted equality works across ranks.
struct StaticShape {
  std::array<std::size_t, kMaxViewRank> dims{};
  std::size_t rank = 0;

  StaticShape() = default;
  StaticShape(std::initializer_list<std::size_t> d) {
    DEEPCSI_CHECK(d.size() >= 1 && d.size() <= kMaxViewRank);
    rank = d.size();
    std::size_t i = 0;
    for (std::size_t v : d) dims[i++] = v;
  }

  static StaticShape from(const std::vector<std::size_t>& d) {
    DEEPCSI_CHECK(!d.empty() && d.size() <= kMaxViewRank);
    StaticShape s;
    s.rank = d.size();
    for (std::size_t i = 0; i < d.size(); ++i) s.dims[i] = d[i];
    return s;
  }

  std::size_t dim(std::size_t i) const {
    DEEPCSI_DCHECK(i < rank);
    return dims[i];
  }

  std::size_t numel() const {
    if (rank == 0) return 0;
    std::size_t n = 1;
    for (std::size_t i = 0; i < rank; ++i) n *= dims[i];
    return n;
  }

  // Elements per row of the leading (batch) dimension.
  std::size_t sample_numel() const {
    DEEPCSI_DCHECK(rank >= 1);
    std::size_t n = 1;
    for (std::size_t i = 1; i < rank; ++i) n *= dims[i];
    return n;
  }

  // Same geometry with the batch dimension resized (n <= dims[0] in every
  // inference-path use; not enforced here, the context checks it once).
  StaticShape with_dim0(std::size_t n) const {
    StaticShape s = *this;
    s.dims[0] = n;
    return s;
  }

  bool operator==(const StaticShape&) const = default;
};

// Mutable borrowed view.
class TensorView {
 public:
  TensorView() = default;
  TensorView(float* data, StaticShape shape) : data_(data), shape_(shape) {}
  // View over an owning tensor (rank must fit kMaxViewRank).
  explicit TensorView(Tensor& t)
      : data_(t.data()), shape_(StaticShape::from(t.shape())) {}

  float* data() const { return data_; }
  const StaticShape& shape() const { return shape_; }
  std::size_t dim(std::size_t i) const { return shape_.dim(i); }
  std::size_t rank() const { return shape_.rank; }
  std::size_t numel() const { return shape_.numel(); }

 private:
  float* data_ = nullptr;
  StaticShape shape_;
};

// Read-only borrowed view; implicitly convertible from TensorView.
class ConstTensorView {
 public:
  ConstTensorView() = default;
  ConstTensorView(const float* data, StaticShape shape)
      : data_(data), shape_(shape) {}
  ConstTensorView(const TensorView& v)  // NOLINT(google-explicit-constructor)
      : data_(v.data()), shape_(v.shape()) {}
  explicit ConstTensorView(const Tensor& t)
      : data_(t.data()), shape_(StaticShape::from(t.shape())) {}

  const float* data() const { return data_; }
  const StaticShape& shape() const { return shape_; }
  std::size_t dim(std::size_t i) const { return shape_.dim(i); }
  std::size_t rank() const { return shape_.rank; }
  std::size_t numel() const { return shape_.numel(); }

 private:
  const float* data_ = nullptr;
  StaticShape shape_;
};

}  // namespace deepcsi::tensor
