#include "src/comm/dist_field_batch.hpp"

#include <cstring>

#include "src/comm/dist_field.hpp"
#include "src/util/error.hpp"

namespace minipop::comm {

template <typename T>
DistFieldBatchT<T>::DistFieldBatchT(const grid::Decomposition& decomp,
                                    int rank, int nb, int halo)
    : decomp_(&decomp), rank_(rank), halo_(halo), nb_(nb) {
  MINIPOP_REQUIRE(halo >= 1, "halo=" << halo);
  MINIPOP_REQUIRE(nb >= 1, "nb=" << nb);
  MINIPOP_REQUIRE(rank >= 0 && rank < decomp.nranks(), "rank=" << rank);
  // Same global width check as the scalar field: all active blocks bound
  // the usable halo, not just locally owned ones.
  decomp.validate_halo(halo);
  block_ids_ = decomp.blocks_of_rank(rank);
  data_.reserve(block_ids_.size());
  for (std::size_t lb = 0; lb < block_ids_.size(); ++lb) {
    const auto& b = decomp.block(block_ids_[lb]);
    data_.emplace_back((b.nx + 2 * halo) * nb, b.ny + 2 * halo, T(0));
  }
}

template <typename T>
const grid::BlockInfo& DistFieldBatchT<T>::info(int lb) const {
  return decomp_->block(block_ids_.at(lb));
}

template <typename T>
void DistFieldBatchT<T>::fill(T v) {
  for (auto& f : data_) f.fill(v);
}

template <typename T>
bool DistFieldBatchT<T>::member_compatible(const DistFieldT<T>& f) const {
  if (f.halo() != halo_ ||
      f.num_local_blocks() != num_local_blocks())
    return false;
  for (int lb = 0; lb < num_local_blocks(); ++lb) {
    const auto& a = info(lb);
    const auto& b = f.info(lb);
    if (a.id != b.id || a.i0 != b.i0 || a.j0 != b.j0 || a.nx != b.nx ||
        a.ny != b.ny)
      return false;
  }
  return true;
}

template <typename T>
void DistFieldBatchT<T>::load_member(int m, const DistFieldT<T>& f) {
  MINIPOP_REQUIRE(m >= 0 && m < nb_, "member " << m << " of " << nb_);
  MINIPOP_REQUIRE(member_compatible(f), "incompatible member field");
  for (int lb = 0; lb < num_local_blocks(); ++lb) {
    util::Array2D<T>& dst = data_[lb];
    const util::Array2D<T>& src = f.data(lb);
    for (int j = 0; j < src.ny(); ++j)
      for (int i = 0; i < src.nx(); ++i) dst(i * nb_ + m, j) = src(i, j);
  }
}

template <typename T>
void DistFieldBatchT<T>::store_member(int m, DistFieldT<T>& f) const {
  MINIPOP_REQUIRE(m >= 0 && m < nb_, "member " << m << " of " << nb_);
  MINIPOP_REQUIRE(member_compatible(f), "incompatible member field");
  for (int lb = 0; lb < num_local_blocks(); ++lb) {
    const util::Array2D<T>& src = data_[lb];
    util::Array2D<T>& dst = f.data(lb);
    for (int j = 0; j < dst.ny(); ++j)
      for (int i = 0; i < dst.nx(); ++i) dst(i, j) = src(i * nb_ + m, j);
  }
}

template class DistFieldBatchT<double>;
template class DistFieldBatchT<float>;

}  // namespace minipop::comm
