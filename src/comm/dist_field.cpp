#include "src/comm/dist_field.hpp"

#include <algorithm>

#include "src/util/error.hpp"

namespace minipop::comm {

template <typename T>
DistFieldT<T>::DistFieldT(const grid::Decomposition& decomp, int rank,
                          int halo)
    : decomp_(&decomp), rank_(rank), halo_(halo) {
  MINIPOP_REQUIRE(halo >= 1, "halo=" << halo);
  MINIPOP_REQUIRE(rank >= 0 && rank < decomp.nranks(), "rank=" << rank);
  // Every active block bounds the usable width, not just locally owned
  // ones: the exchange reads full-width rims of all neighbours.
  decomp.validate_halo(halo);
  block_ids_ = decomp.blocks_of_rank(rank);
  data_.reserve(block_ids_.size());
  for (std::size_t lb = 0; lb < block_ids_.size(); ++lb) {
    const auto& b = decomp.block(block_ids_[lb]);
    data_.emplace_back(b.nx + 2 * halo, b.ny + 2 * halo, T(0));
  }
}

template <typename T>
const grid::BlockInfo& DistFieldT<T>::info(int lb) const {
  return decomp_->block(block_ids_.at(lb));
}

template <typename T>
int DistFieldT<T>::local_index(int global_block_id) const {
  const auto it =
      std::find(block_ids_.begin(), block_ids_.end(), global_block_id);
  return it == block_ids_.end() ? -1
                                : static_cast<int>(it - block_ids_.begin());
}

template <typename T>
void DistFieldT<T>::fill(T v) {
  for (auto& f : data_) f.fill(v);
}

template <typename T>
void DistFieldT<T>::load_global(const util::Field& global) {
  MINIPOP_REQUIRE(global.nx() == decomp_->nx_global() &&
                      global.ny() == decomp_->ny_global(),
                  "global field shape mismatch");
  for (int lb = 0; lb < num_local_blocks(); ++lb) {
    const auto& b = info(lb);
    for (int j = 0; j < b.ny; ++j)
      for (int i = 0; i < b.nx; ++i)
        at(lb, i, j) = static_cast<T>(global(b.i0 + i, b.j0 + j));
  }
}

template <typename T>
void DistFieldT<T>::store_global(util::Field& global) const {
  MINIPOP_REQUIRE(global.nx() == decomp_->nx_global() &&
                      global.ny() == decomp_->ny_global(),
                  "global field shape mismatch");
  for (int lb = 0; lb < num_local_blocks(); ++lb) {
    const auto& b = info(lb);
    for (int j = 0; j < b.ny; ++j)
      for (int i = 0; i < b.nx; ++i)
        global(b.i0 + i, b.j0 + j) = at(lb, i, j);
  }
}

template class DistFieldT<double>;
template class DistFieldT<float>;

}  // namespace minipop::comm
