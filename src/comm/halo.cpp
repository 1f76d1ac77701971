#include "src/comm/halo.hpp"

#include <algorithm>
#include <cstring>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/fault/fault_injector.hpp"
#include "src/util/crc32c.hpp"
#include "src/util/error.hpp"

namespace minipop::comm {

namespace {

using grid::Dir;
using detail::HaloRegion;

Dir opposite(Dir d) {
  switch (d) {
    case Dir::kEast: return Dir::kWest;
    case Dir::kWest: return Dir::kEast;
    case Dir::kNorth: return Dir::kSouth;
    case Dir::kSouth: return Dir::kNorth;
    case Dir::kNorthEast: return Dir::kSouthWest;
    case Dir::kNorthWest: return Dir::kSouthEast;
    case Dir::kSouthEast: return Dir::kNorthWest;
    case Dir::kSouthWest: return Dir::kNorthEast;
    case Dir::kCenter: return Dir::kCenter;
  }
  return Dir::kCenter;
}

constexpr Dir kExchangeDirs[8] = {
    Dir::kEast,      Dir::kWest,      Dir::kNorth,     Dir::kSouth,
    Dir::kNorthEast, Dir::kNorthWest, Dir::kSouthEast, Dir::kSouthWest};

/// Interior strip of (bnx x bny) sent toward direction d.
HaloRegion send_region(Dir d, int bnx, int bny, int h) {
  switch (d) {
    case Dir::kEast: return {bnx - h, 0, h, bny};
    case Dir::kWest: return {0, 0, h, bny};
    case Dir::kNorth: return {0, bny - h, bnx, h};
    case Dir::kSouth: return {0, 0, bnx, h};
    case Dir::kNorthEast: return {bnx - h, bny - h, h, h};
    case Dir::kNorthWest: return {0, bny - h, h, h};
    case Dir::kSouthEast: return {bnx - h, 0, h, h};
    case Dir::kSouthWest: return {0, 0, h, h};
    case Dir::kCenter: break;
  }
  MINIPOP_REQUIRE(false, "send_region(center)");
  return {};
}

/// Halo region (in interior coordinates, so indices may be negative or
/// >= bnx) filled from the neighbor in direction d.
HaloRegion halo_region(Dir d, int bnx, int bny, int h) {
  switch (d) {
    case Dir::kEast: return {bnx, 0, h, bny};
    case Dir::kWest: return {-h, 0, h, bny};
    case Dir::kNorth: return {0, bny, bnx, h};
    case Dir::kSouth: return {0, -h, bnx, h};
    case Dir::kNorthEast: return {bnx, bny, h, h};
    case Dir::kNorthWest: return {-h, bny, h, h};
    case Dir::kSouthEast: return {bnx, -h, h, h};
    case Dir::kSouthWest: return {-h, -h, h, h};
    case Dir::kCenter: break;
  }
  MINIPOP_REQUIRE(false, "halo_region(center)");
  return {};
}

/// Per-exchange message tag: the epoch selects a disjoint tag sub-space
/// so concurrently outstanding exchanges cannot match each other's
/// messages; within an epoch the (source block, direction) pair is
/// unique per exchange (the constructor checks that every block id
/// fits the stride).
int message_tag(int epoch, int src_block_id, Dir d) {
  return epoch * Communicator::kTagEpochStride + src_block_id * 9 +
         static_cast<int>(d);
}

// Pack/unpack/copy move whole region rows at once: region coordinates
// have i fast, so row j of a width-w region is `ni * w` contiguous
// elements in the padded array (cell column i of a w-member plane
// starts at element i * w; w == 1 is the classic scalar plane). Full-
// width N/S strips (the big messages) move as `nj` memcpys of `ni * w`
// elements each; E/W strips and corners degenerate to short rows.

/// First element of region `r` inside the padded array; its rows are
/// padded.nx() elements apart.
template <typename T>
T* region_start(util::Array2D<T>& padded, int h, int w,
                const HaloRegion& r) {
  return padded.data() +
         static_cast<std::ptrdiff_t>(r.j0 + h) * padded.nx() +
         static_cast<std::ptrdiff_t>(r.i0 + h) * w;
}

/// Copy `nj` rows of `n` elements from `s` to `d`, whose rows start `ss`
/// and `ds` elements apart (a packed message segment has stride n).
template <typename T>
void copy_rows(T* d, std::ptrdiff_t ds, const T* s, std::ptrdiff_t ss,
               std::size_t n, int nj) {
  for (int j = 0; j < nj; ++j, d += ds, s += ss)
    std::memcpy(d, s, n * sizeof(T));
}

/// Append region `r` of `padded` to `out` — a group message concatenates
/// every set's rim back to back.
template <typename T>
void pack_append_w(util::Array2D<T>& padded, int h, int w,
                   const HaloRegion& r, std::vector<T>& out) {
  const std::size_t row = static_cast<std::size_t>(r.ni) * w;
  const std::size_t base = out.size();
  out.resize(base + row * r.nj);
  copy_rows(out.data() + base, static_cast<std::ptrdiff_t>(row),
            region_start(padded, h, w, r), padded.nx(), row, r.nj);
}

template <typename T>
void unpack_w(util::Array2D<T>& padded, int h, int w, const HaloRegion& r,
              std::span<const T> in) {
  const std::size_t row = static_cast<std::size_t>(r.ni) * w;
  MINIPOP_REQUIRE(in.size() == row * r.nj, "halo unpack size mismatch");
  copy_rows(region_start(padded, h, w, r), padded.nx(), in.data(),
            static_cast<std::ptrdiff_t>(row), row, r.nj);
}

/// Local neighbour: copy its interior region `sr` straight into halo
/// region `dr` of `dst`, with no staging buffer. The two regions never
/// overlap (interior vs halo), also when a periodic block wraps onto
/// itself.
template <typename T>
void copy_region_w(util::Array2D<T>& src, const HaloRegion& sr,
                   util::Array2D<T>& dst, const HaloRegion& dr, int h,
                   int w) {
  MINIPOP_ASSERT(sr.ni == dr.ni && sr.nj == dr.nj);
  copy_rows(region_start(dst, h, w, dr), dst.nx(),
            region_start(src, h, w, sr), src.nx(),
            static_cast<std::size_t>(dr.ni) * w, dr.nj);
}

template <typename T>
void zero_region_w(util::Array2D<T>& padded, int h, int w,
                   const HaloRegion& r) {
  const std::size_t row = static_cast<std::size_t>(r.ni) * w;
  T* p = region_start(padded, h, w, r);
  for (int j = 0; j < r.nj; ++j, p += padded.nx())
    std::fill(p, p + row, T(0));
}

// CRC trailer: one extra element of T per remote message, carrying the
// CRC32C of the payload bytes in its low four bytes (the rest zero).
// Encoding the checksum as a T keeps the wire format element-typed —
// receivers size buffers in elements — at the cost of four wasted bytes
// per fp64 message.

template <typename T>
T encode_crc(std::uint32_t crc) {
  static_assert(sizeof(T) >= sizeof(std::uint32_t));
  T out{};
  std::memcpy(&out, &crc, sizeof(crc));
  return out;
}

template <typename T>
std::uint32_t decode_crc(const T& trailer) {
  std::uint32_t crc;
  std::memcpy(&crc, &trailer, sizeof(crc));
  return crc;
}

}  // namespace

template <typename T>
HaloHandleT<T>::~HaloHandleT() {
  if (!active()) return;
  try {
    finish();
  } catch (...) {
    // Safety-net finish during unwinding (e.g. a poisoned team): drop
    // whatever could not complete. Requests abandon non-blocking.
  }
}

template <typename T>
void HaloHandleT<T>::finish() {
  if (!active()) return;
  // Take the in-flight state out of the handle first: if a wait or a CRC
  // check throws, the destructor does not retry, and the unfinished
  // requests below are abandoned as they unwind.
  Communicator& comm = *std::exchange(comm_, nullptr);
  const std::vector<FieldSetT<T>> sets = std::move(sets_);
  std::vector<PendingRecv> recvs = std::move(recvs_);
  const int h = sets.front().halo();
  const int w = sets.front().nb();
  // Complete in post order — the same receive order as the blocking
  // exchange, so the unpacked halos are bitwise identical to it.
  for (PendingRecv& p : recvs) {
    p.request.wait();
    std::span<const T> payload(p.buf);
    if (crc_) {
      // Strip and verify the one-element CRC trailer before the payload
      // touches field memory.
      payload = payload.first(payload.size() - 1);
      const std::uint32_t want = decode_crc<T>(p.buf.back());
      const std::uint32_t got =
          util::crc32c(payload.data(), payload.size_bytes());
      comm.costs().add_integrity_check(got != want);
      if (got != want) {
        // Wake peers blocked on this rank before unwinding, then let
        // the recovery layer resync the team and restart the solve.
        comm.declare_desync();
        throw CorruptPayloadError(
            "halo payload failed CRC32C verification (silent wire "
            "corruption detected)");
      }
    }
    const std::size_t seg =
        static_cast<std::size_t>(p.dst.ni) * w * p.dst.nj;
    for (std::size_t s = 0; s < sets.size(); ++s)
      unpack_w<T>(sets[s].data(p.lb), h, w, p.dst,
                  payload.subspan(s * seg, seg));
  }
  // One round, refreshing every set's planes: halo latency is paid once
  // for the whole group — the counter the comm-avoiding audits watch.
  comm.costs().add_halo_exchange(w * static_cast<int>(sets.size()));
}

HaloExchanger::HaloExchanger(const grid::Decomposition& decomp)
    : decomp_(&decomp) {
  MINIPOP_REQUIRE(decomp.num_active_blocks() * 9 <=
                      Communicator::kTagEpochStride,
                  "tag overflow for " << decomp.num_active_blocks()
                                      << " blocks");
  // Owner-local index of every active block: one table, no search.
  std::vector<int> local_of(decomp.num_active_blocks(), -1);
  for (int r = 0; r < decomp.nranks(); ++r) {
    const std::vector<int>& ids = decomp.blocks_of_rank(r);
    for (std::size_t lb = 0; lb < ids.size(); ++lb)
      local_of[ids[lb]] = static_cast<int>(lb);
  }
  links_.resize(8 * static_cast<std::size_t>(decomp.num_active_blocks()));
  for (int id = 0; id < decomp.num_active_blocks(); ++id) {
    const int owner = decomp.block(id).owner;
    Link* link = links_.data() + 8 * static_cast<std::size_t>(id);
    for (int k = 0; k < 8; ++k) {
      const int nid = decomp.neighbor(id, kExchangeDirs[k]);
      if (nid < 0) continue;  // zero fill
      const int nowner = decomp.block(nid).owner;
      link[k].nid = nid;
      if (nowner == owner) {
        link[k].kind = Link::Kind::kLocal;
        link[k].peer = local_of[nid];
      } else {
        link[k].kind = Link::Kind::kRemote;
        link[k].peer = nowner;
      }
    }
  }
}

template <typename T>
HaloHandleT<T> HaloExchanger::begin_group(
    Communicator& comm, std::span<const FieldSetT<T>> sets) const {
  MINIPOP_REQUIRE(!sets.empty(), "halo exchange of an empty group");
  const FieldSetT<T>& fs0 = sets.front();
  for (const FieldSetT<T>& fs : sets) {
    MINIPOP_REQUIRE(fs.valid(), "halo exchange of an empty FieldSet");
    MINIPOP_REQUIRE(&fs.decomposition() == decomp_,
                    "field belongs to a different decomposition");
    MINIPOP_REQUIRE(fs.rank() == fs0.rank() && fs.halo() == fs0.halo() &&
                        fs.nb() == fs0.nb(),
                    "group members must share decomposition, rank, halo "
                    "width and batch width");
  }
  const int h = fs0.halo();
  const int w = fs0.nb();
  const int my_rank = fs0.rank();
  const int nblocks = fs0.num_local_blocks();
  const int epoch = comm.next_tag_epoch();

  HaloHandleT<T> handle;
  handle.comm_ = &comm;
  handle.sets_.assign(sets.begin(), sets.end());
  handle.crc_ = crc_enabled_;

  // Phase 1: post all remote sends (eager, complete at post time) —
  // ONE message per (block, direction) carrying every set's rim back
  // to back (set order = caller order).
  std::vector<T> buf;
  for (int lb = 0; lb < nblocks; ++lb) {
    const grid::BlockInfo& b = fs0.info(lb);
    const Link* link = links(b.id);
    for (int k = 0; k < 8; ++k) {
      if (link[k].kind != Link::Kind::kRemote) continue;
      const Dir d = kExchangeDirs[k];
      const HaloRegion src = send_region(d, b.nx, b.ny, h);
      buf.clear();
      for (const FieldSetT<T>& fs : sets)
        pack_append_w<T>(fs.data(lb), h, w, src, buf);
      // The fault site arms on one-member fp64 sets — every scalar
      // solve, whatever its backing (DESIGN.md §8): the fp32 mirror path
      // is exercised under the fp64 refinement guard, and wider batches
      // recover through per-member sub-batches rather than through
      // injected wire corruption.
      if constexpr (std::is_same_v<T, double>) {
        if (w == 1) fault::hook_halo_payload(my_rank, buf.data(), buf.size());
      }
      if (crc_enabled_) {
        // The CRC is taken AFTER hook_halo_payload: that site models
        // memory corruption at pack time, which a wire checksum cannot
        // (and should not) catch. hook_halo_bitflip then fires on the
        // checksummed bytes — wire corruption the verifier must detect.
        const std::size_t payload = buf.size();
        buf.push_back(encode_crc<T>(
            util::crc32c(buf.data(), payload * sizeof(T))));
        fault::hook_halo_bitflip(
            my_rank, reinterpret_cast<unsigned char*>(buf.data()),
            payload * sizeof(T));
      }
      comm.isend(link[k].peer, message_tag(epoch, b.id, d),
                 std::span<const T>(buf));
    }
  }

  // Phase 2: post all remote receives, sized for every set; finish()
  // completes and unpacks them in this order.
  for (int lb = 0; lb < nblocks; ++lb) {
    const grid::BlockInfo& b = fs0.info(lb);
    const Link* link = links(b.id);
    for (int k = 0; k < 8; ++k) {
      if (link[k].kind != Link::Kind::kRemote) continue;
      const Dir d = kExchangeDirs[k];
      const HaloRegion dst = halo_region(d, b.nx, b.ny, h);
      typename HaloHandleT<T>::PendingRecv& p = handle.recvs_.emplace_back();
      p.buf.resize(static_cast<std::size_t>(dst.ni) * w * dst.nj *
                       sets.size() +
                   (crc_enabled_ ? 1 : 0));
      p.lb = lb;
      p.dst = dst;
      p.request = comm.irecv(link[k].peer,
                             message_tag(epoch, link[k].nid, opposite(d)),
                             std::span<T>(p.buf));
    }
  }

  // Phase 3: local copies and zero fills (no communication).
  for (int lb = 0; lb < nblocks; ++lb) {
    const grid::BlockInfo& b = fs0.info(lb);
    const Link* link = links(b.id);
    for (int k = 0; k < 8; ++k) {
      if (link[k].kind == Link::Kind::kRemote) continue;
      const Dir d = kExchangeDirs[k];
      const HaloRegion dst = halo_region(d, b.nx, b.ny, h);
      if (link[k].kind == Link::Kind::kZero) {
        for (const FieldSetT<T>& fs : sets)
          zero_region_w<T>(fs.data(lb), h, w, dst);
        continue;
      }
      const int nlb = link[k].peer;
      const grid::BlockInfo& nbk = fs0.info(nlb);
      MINIPOP_ASSERT(nbk.id == link[k].nid);
      const HaloRegion src = send_region(opposite(d), nbk.nx, nbk.ny, h);
      for (const FieldSetT<T>& fs : sets)
        copy_region_w<T>(fs.data(nlb), src, fs.data(lb), dst, h, w);
    }
  }

  return handle;
}

std::uint64_t HaloExchanger::bytes_sent(const grid::Decomposition& decomp,
                                        int rank, int halo, int nb,
                                        std::size_t elem_bytes) const {
  MINIPOP_REQUIRE(&decomp == decomp_,
                  "field belongs to a different decomposition");
  std::uint64_t bytes = 0;
  for (int id : decomp_->blocks_of_rank(rank)) {
    const grid::BlockInfo& b = decomp_->block(id);
    const Link* link = links(id);
    for (int k = 0; k < 8; ++k) {
      if (link[k].kind != Link::Kind::kRemote) continue;
      const HaloRegion r = send_region(kExchangeDirs[k], b.nx, b.ny, halo);
      bytes += static_cast<std::uint64_t>(r.ni) * nb * r.nj * elem_bytes;
      if (crc_enabled_) bytes += elem_bytes;  // CRC trailer element
    }
  }
  return bytes;
}

template class HaloHandleT<double>;
template class HaloHandleT<float>;

template HaloHandleT<double> HaloExchanger::begin_group<double>(
    Communicator&, std::span<const FieldSetT<double>>) const;
template HaloHandleT<float> HaloExchanger::begin_group<float>(
    Communicator&, std::span<const FieldSetT<float>>) const;

}  // namespace minipop::comm
