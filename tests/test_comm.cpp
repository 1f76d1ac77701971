#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <tuple>
#include <vector>

#include "src/comm/dist_field.hpp"
#include "src/comm/dist_field_batch.hpp"
#include "src/comm/field_set.hpp"
#include "src/comm/halo.hpp"
#include "src/comm/serial_comm.hpp"
#include "src/comm/thread_comm.hpp"
#include "src/grid/bathymetry.hpp"
#include "src/util/error.hpp"

namespace mc = minipop::comm;
namespace mg = minipop::grid;
namespace mu = minipop::util;

TEST(SerialComm, AllreduceIsIdentityButCounted) {
  mc::SerialComm comm;
  double v[2] = {3.0, 4.0};
  comm.allreduce(std::span<double>(v, 2), mc::ReduceOp::kSum);
  EXPECT_EQ(v[0], 3.0);
  EXPECT_EQ(v[1], 4.0);
  EXPECT_EQ(comm.costs().counters().allreduces, 1u);
  EXPECT_EQ(comm.costs().counters().allreduce_doubles, 2u);
}

TEST(SerialComm, SendRecvThrow) {
  mc::SerialComm comm;
  double v = 0;
  EXPECT_THROW(comm.send(0, 0, std::span<const double>(&v, 1)), mu::Error);
  EXPECT_THROW(comm.recv(0, 0, std::span<double>(&v, 1)), mu::Error);
}

TEST(ThreadTeam, AllreduceSumAcrossRanks) {
  const int p = 6;
  mc::ThreadTeam team(p);
  std::vector<double> results(p);
  team.run([&](mc::Communicator& comm) {
    double v = comm.rank() + 1.0;
    comm.allreduce(std::span<double>(&v, 1), mc::ReduceOp::kSum);
    results[comm.rank()] = v;
  });
  for (int r = 0; r < p; ++r) EXPECT_DOUBLE_EQ(results[r], 21.0);
}

TEST(ThreadTeam, AllreduceMaxMin) {
  const int p = 4;
  mc::ThreadTeam team(p);
  std::vector<double> mx(p), mn(p);
  team.run([&](mc::Communicator& comm) {
    double v[2] = {static_cast<double>(comm.rank()),
                   static_cast<double>(-comm.rank())};
    comm.allreduce(std::span<double>(v, 1), mc::ReduceOp::kMax);
    comm.allreduce(std::span<double>(v + 1, 1), mc::ReduceOp::kMin);
    mx[comm.rank()] = v[0];
    mn[comm.rank()] = v[1];
  });
  for (int r = 0; r < p; ++r) {
    EXPECT_DOUBLE_EQ(mx[r], 3.0);
    EXPECT_DOUBLE_EQ(mn[r], -3.0);
  }
}

TEST(ThreadTeam, AllreduceDeterministicUnderArrivalJitter) {
  // Values chosen so floating-point summation order matters.
  const int p = 5;
  std::vector<double> vals = {1e16, 1.0, -1e16, 3.0, 7.0};
  double reference = 0;
  {
    mc::ThreadTeam team(p);
    std::vector<double> out(p);
    team.run([&](mc::Communicator& comm) {
      double v = vals[comm.rank()];
      comm.allreduce(std::span<double>(&v, 1), mc::ReduceOp::kSum);
      out[comm.rank()] = v;
    });
    reference = out[0];
  }
  for (int trial = 0; trial < 5; ++trial) {
    mc::ThreadTeam team(p);
    std::vector<double> out(p);
    team.run([&](mc::Communicator& comm) {
      // Randomize arrival order.
      std::this_thread::sleep_for(
          std::chrono::microseconds((comm.rank() * 7919 + trial * 104729) %
                                    500));
      double v = vals[comm.rank()];
      comm.allreduce(std::span<double>(&v, 1), mc::ReduceOp::kSum);
      out[comm.rank()] = v;
    });
    for (int r = 0; r < p; ++r)
      EXPECT_EQ(out[r], reference) << "trial " << trial << " rank " << r;
  }
}

TEST(ThreadTeam, SendRecvPointToPoint) {
  mc::ThreadTeam team(3);
  std::vector<double> got(3, -1);
  team.run([&](mc::Communicator& comm) {
    const int r = comm.rank();
    double out = 100.0 + r;
    comm.send((r + 1) % 3, 5, std::span<const double>(&out, 1));
    double in = 0;
    comm.recv((r + 2) % 3, 5, std::span<double>(&in, 1));
    got[r] = in;
  });
  EXPECT_DOUBLE_EQ(got[0], 102.0);
  EXPECT_DOUBLE_EQ(got[1], 100.0);
  EXPECT_DOUBLE_EQ(got[2], 101.0);
}

TEST(ThreadTeam, MultipleMessagesSameChannelPreserveOrder) {
  mc::ThreadTeam team(2);
  std::vector<double> got;
  team.run([&](mc::Communicator& comm) {
    if (comm.rank() == 0) {
      for (int k = 0; k < 4; ++k) {
        double v = k;
        comm.send(1, 9, std::span<const double>(&v, 1));
      }
    } else {
      got.resize(4);
      for (int k = 0; k < 4; ++k)
        comm.recv(0, 9, std::span<double>(&got[k], 1));
    }
  });
  for (int k = 0; k < 4; ++k) EXPECT_DOUBLE_EQ(got[k], k);
}

TEST(ThreadTeam, BarrierSynchronizes) {
  const int p = 4;
  mc::ThreadTeam team(p);
  std::atomic<int> before{0};
  std::vector<int> seen(p, -1);
  team.run([&](mc::Communicator& comm) {
    before.fetch_add(1);
    comm.barrier();
    seen[comm.rank()] = before.load();
  });
  for (int r = 0; r < p; ++r) EXPECT_EQ(seen[r], p);
}

TEST(ThreadTeam, ExceptionPropagatesToCaller) {
  mc::ThreadTeam team(2);
  EXPECT_THROW(team.run([&](mc::Communicator& comm) {
    if (comm.rank() == 1) MINIPOP_REQUIRE(false, "boom");
  }),
               mu::Error);
}

TEST(ThreadTeam, FailingRankPoisonsBlockedPeersInsteadOfDeadlocking) {
  // Rank 1 throws while the others sit in collectives that can never
  // complete; run() must return promptly with the ORIGINAL error.
  mc::ThreadTeam team(3);
  try {
    team.run([&](mc::Communicator& comm) {
      if (comm.rank() == 1) MINIPOP_REQUIRE(false, "original failure");
      double v = 1.0;
      comm.allreduce(std::span<double>(&v, 1), mc::ReduceOp::kSum);
    });
    FAIL() << "should have thrown";
  } catch (const mu::Error& e) {
    EXPECT_NE(std::string(e.what()).find("original failure"),
              std::string::npos)
        << "got secondary error instead: " << e.what();
  }
  // Blocked receives abort the same way.
  mc::ThreadTeam team2(2);
  EXPECT_THROW(team2.run([&](mc::Communicator& comm) {
    if (comm.rank() == 1) MINIPOP_REQUIRE(false, "recv poison");
    double v;
    comm.recv(1, 0, std::span<double>(&v, 1));  // never sent
  }),
               mu::Error);
  // And the team is reusable after a poisoned run.
  std::vector<double> out(2);
  team2.run([&](mc::Communicator& comm) {
    double v = comm.rank() + 1.0;
    comm.allreduce(std::span<double>(&v, 1), mc::ReduceOp::kSum);
    out[comm.rank()] = v;
  });
  EXPECT_DOUBLE_EQ(out[0], 3.0);
}

TEST(ThreadTeam, CostCountersPerRank) {
  mc::ThreadTeam team(2);
  team.run([&](mc::Communicator& comm) {
    double v = 1;
    comm.allreduce(std::span<double>(&v, 1), mc::ReduceOp::kSum);
    if (comm.rank() == 0) {
      double d[3] = {1, 2, 3};
      comm.send(1, 0, std::span<const double>(d, 3));
    } else {
      double d[3];
      comm.recv(0, 0, std::span<double>(d, 3));
    }
    comm.costs().add_flops(10);
  });
  EXPECT_EQ(team.costs(0).allreduces, 1u);
  EXPECT_EQ(team.costs(0).p2p_messages, 1u);
  EXPECT_EQ(team.costs(0).p2p_bytes, 24u);
  EXPECT_EQ(team.costs(1).p2p_messages, 0u);
  EXPECT_EQ(team.total_costs().flops, 20u);
}

// --- DistField / halo exchange ------------------------------------------

namespace {

/// Global test pattern with unique values (exact in fp32 too).
double pattern(int i, int j) { return 1 + i + 1000.0 * j; }

/// Member m's pattern: distinct per member, still exact in fp32.
double member_pattern(int i, int j, int m) {
  return pattern(i, j) + 100000.0 * m;
}

/// Validate every halo cell of every member of every local block of
/// `fs` against the global pattern (0 where the halo leaves the domain
/// or enters an eliminated block).
template <typename T>
void check_halos(const mg::Decomposition& d, const mc::FieldSetT<T>& fs) {
  const int h = fs.halo();
  for (int lb = 0; lb < fs.num_local_blocks(); ++lb) {
    const auto& b = fs.info(lb);
    for (int j = -h; j < b.ny + h; ++j) {
      for (int i = -h; i < b.nx + h; ++i) {
        const bool interior =
            (i >= 0 && i < b.nx && j >= 0 && j < b.ny);
        if (interior) continue;
        int gi = b.i0 + i;
        const int gj = b.j0 + j;
        bool ocean = false;
        if (gj >= 0 && gj < d.ny_global()) {
          if (d.periodic_x())
            gi = (gi % d.nx_global() + d.nx_global()) % d.nx_global();
          if (gi >= 0 && gi < d.nx_global()) {
            const int nbi = gi / d.block_nx();
            const int nbj = gj / d.block_ny();
            ocean = d.block_id_at(nbi, nbj) >= 0;
          }
        }
        for (int m = 0; m < fs.nb(); ++m) {
          const T expected =
              ocean ? static_cast<T>(member_pattern(gi, gj, m)) : T(0);
          ASSERT_EQ(fs.at(lb, i, j, m), expected)
              << "block (" << b.bi << "," << b.bj << ") halo cell (" << i
              << "," << j << ") member " << m << " of " << fs.nb();
        }
      }
    }
  }
}

/// Exchange one rank's field of element type T and width nb (nb == 0:
/// a scalar DistFieldT; else a DistFieldBatchT of nb members) loaded
/// from the member patterns, with halos poisoned first, and check them.
template <typename T>
void exchange_and_check(const mg::Decomposition& d,
                        const mc::HaloExchanger& hx, mc::Communicator& comm,
                        int halo, int nb) {
  const int nm = std::max(nb, 1);
  std::vector<mc::DistFieldT<T>> members;
  for (int m = 0; m < nm; ++m) {
    mu::Field global(d.nx_global(), d.ny_global());
    for (int j = 0; j < d.ny_global(); ++j)
      for (int i = 0; i < d.nx_global(); ++i)
        global(i, j) = member_pattern(i, j, m);
    members.emplace_back(d, comm.rank(), halo);
    members.back().fill(T(-7));
    members.back().load_global(global);
  }
  if (nb == 0) {
    hx.exchange(comm, members[0]);
    check_halos<T>(d, members[0]);
    return;
  }
  mc::DistFieldBatchT<T> batch(d, comm.rank(), nb, halo);
  for (int m = 0; m < nb; ++m) batch.load_member(m, members[m]);
  hx.exchange(comm, batch);
  check_halos<T>(d, batch);
}

/// The halo cases run for fp64 and fp32, on a scalar field and on
/// batches of width 1 and 3.
void run_halo_case(int nx, int ny, bool periodic, int bnx, int bny,
                   int nranks, int halo,
                   const mu::MaskArray* mask_in = nullptr) {
  mu::MaskArray mask = mask_in ? *mask_in : mu::MaskArray(nx, ny, 1);
  mg::Decomposition d(nx, ny, periodic, mask, bnx, bny, nranks);
  mc::HaloExchanger hx(d);
  auto body = [&](mc::Communicator& comm) {
    for (int nb : {0, 1, 3}) {
      SCOPED_TRACE(testing::Message() << "nb " << nb);
      exchange_and_check<double>(d, hx, comm, halo, nb);
      exchange_and_check<float>(d, hx, comm, halo, nb);
    }
  };
  if (nranks == 1) {
    mc::SerialComm comm;
    body(comm);
  } else {
    mc::ThreadTeam team(nranks);
    team.run(body);
  }
}

}  // namespace

TEST(DistField, LoadStoreRoundTrip) {
  mu::MaskArray mask(12, 8, 1);
  mg::Decomposition d(12, 8, false, mask, 4, 4, 2);
  mu::Field global(12, 8);
  for (int j = 0; j < 8; ++j)
    for (int i = 0; i < 12; ++i) global(i, j) = pattern(i, j);
  mu::Field out(12, 8, -1.0);
  for (int r = 0; r < 2; ++r) {
    mc::DistField f(d, r, 2);
    f.load_global(global);
    f.store_global(out);
  }
  for (int j = 0; j < 8; ++j)
    for (int i = 0; i < 12; ++i) EXPECT_DOUBLE_EQ(out(i, j), pattern(i, j));
}

TEST(DistField, LocalIndexLookup) {
  mu::MaskArray mask(8, 8, 1);
  mg::Decomposition d(8, 8, false, mask, 4, 4, 2);
  mc::DistField f(d, 0, 1);
  int found = 0;
  for (int id = 0; id < d.num_active_blocks(); ++id) {
    int lb = f.local_index(id);
    if (d.block(id).owner == 0) {
      EXPECT_GE(lb, 0);
      EXPECT_EQ(f.info(lb).id, id);
      ++found;
    } else {
      EXPECT_EQ(lb, -1);
    }
  }
  EXPECT_EQ(found, f.num_local_blocks());
}

TEST(Halo, SerialSingleRankClosedDomain) {
  run_halo_case(12, 9, false, 4, 3, 1, 2);
}

TEST(Halo, SerialPeriodicWrap) { run_halo_case(12, 9, true, 4, 3, 1, 2); }

TEST(Halo, SinglePeriodicBlockWrapsOntoItself) {
  run_halo_case(10, 6, true, 10, 6, 1, 2);
}

TEST(Halo, MultiRankClosed) { run_halo_case(16, 12, false, 4, 4, 4, 2); }

TEST(Halo, MultiRankPeriodic) { run_halo_case(16, 12, true, 4, 4, 5, 2); }

TEST(Halo, HaloWidthOne) { run_halo_case(16, 12, true, 4, 4, 3, 1); }

TEST(Halo, RaggedBlocks) { run_halo_case(14, 10, true, 4, 4, 3, 2); }

// Round-trips for the row-wise memcpy pack/unpack. Full-domain-width
// blocks make the N/S regions whole padded-row strips (the widest
// contiguous copies); the multi-rank periodic cases cover wrap seams and
// corner regions at both supported halo widths.
TEST(Halo, FullWidthRowStripsSerial) {
  run_halo_case(24, 12, false, 24, 3, 1, 2);
}

TEST(Halo, FullWidthRowStripsMultiRank) {
  run_halo_case(24, 12, false, 24, 3, 4, 2);
}

TEST(Halo, FullWidthRowStripsPeriodicHaloOne) {
  run_halo_case(24, 12, true, 24, 3, 4, 1);
}

TEST(Halo, OddBlocksMultiRankPeriodicHaloOne) {
  run_halo_case(21, 11, true, 7, 4, 3, 1);
}

TEST(Halo, OddBlocksMaskedMultiRankPeriodic) {
  mu::MaskArray mask(21, 11, 1);
  for (int j = 0; j < 11; ++j)
    for (int i = 0; i < 21; ++i)
      if ((i * 7 + j * 3) % 5 == 0) mask(i, j) = 0;
  run_halo_case(21, 11, true, 7, 4, 3, 2, &mask);
}

TEST(Halo, EliminatedLandBlockZeroFills) {
  mu::MaskArray mask(12, 12, 1);
  for (int j = 4; j < 8; ++j)
    for (int i = 4; i < 8; ++i) mask(i, j) = 0;  // center block all land
  run_halo_case(12, 12, false, 4, 4, 4, 2, &mask);
}

TEST(Halo, BytesSentAccounting) {
  mu::MaskArray mask(8, 8, 1);
  mg::Decomposition d(8, 8, false, mask, 4, 4, 2);
  mc::HaloExchanger hx(d);
  mc::ThreadTeam team(2);
  std::vector<std::uint64_t> predicted(2);
  team.run([&](mc::Communicator& comm) {
    mc::DistField f(d, comm.rank(), 2);
    predicted[comm.rank()] = hx.bytes_sent_per_exchange(f);
    hx.exchange(comm, f);
  });
  EXPECT_EQ(team.costs(0).p2p_bytes, predicted[0]);
  EXPECT_EQ(team.costs(1).p2p_bytes, predicted[1]);
  EXPECT_GT(predicted[0], 0u);
  EXPECT_EQ(team.costs(0).halo_exchanges, 1u);
}

namespace {

/// Fill every padded cell (interior and halo) of every member of `fs`
/// with a value unique to (set, block, cell, member), so a halo cell
/// left untouched or filled from the wrong place shows up bitwise.
template <typename T>
void fill_distinct(const mc::FieldSetT<T>& fs, int set) {
  for (int lb = 0; lb < fs.num_local_blocks(); ++lb) {
    mu::Array2D<T>& a = fs.data(lb);
    for (int j = 0; j < a.ny(); ++j)
      for (int i = 0; i < a.nx(); ++i)
        a(i, j) = static_cast<T>(0.5 + i + 64.0 * j + 4096.0 * lb +
                                 0.125 * set);
  }
}

template <typename T>
void expect_same_bits(const mc::FieldSetT<T>& a, const mc::FieldSetT<T>& b) {
  for (int lb = 0; lb < a.num_local_blocks(); ++lb) {
    const mu::Array2D<T>& x = a.data(lb);
    const mu::Array2D<T>& y = b.data(lb);
    ASSERT_EQ(x.size(), y.size());
    EXPECT_EQ(std::memcmp(x.data(), y.data(), x.size() * sizeof(T)), 0)
        << "local block " << lb;
  }
}

/// exchange_group over three sets against one exchange_set per set, on
/// the same starting bits.
template <typename T>
void group_matches_sets(const mg::Decomposition& d,
                        const mc::HaloExchanger& hx, mc::Communicator& comm,
                        int nb) {
  constexpr int kSets = 3;
  std::vector<mc::DistFieldBatchT<T>> grouped, single;
  for (int s = 0; s < kSets; ++s) {
    grouped.emplace_back(d, comm.rank(), nb, 2);
    single.emplace_back(d, comm.rank(), nb, 2);
    fill_distinct<T>(grouped.back(), s);
    fill_distinct<T>(single.back(), s);
  }
  const std::vector<mc::FieldSetT<T>> sets(grouped.begin(), grouped.end());
  hx.exchange_group<T>(comm, sets);
  for (auto& f : single) hx.exchange(comm, f);
  for (int s = 0; s < kSets; ++s) expect_same_bits<T>(grouped[s], single[s]);
}

}  // namespace

TEST(Halo, GroupExchangeMatchesPerSetExchanges) {
  mu::MaskArray mask(20, 12, 1);
  for (int j = 4; j < 8; ++j)
    for (int i = 8; i < 12; ++i) mask(i, j) = 0;  // one eliminated block
  for (int nranks : {1, 4}) {
    SCOPED_TRACE(testing::Message() << nranks << " ranks");
    mg::Decomposition d(20, 12, true, mask, 4, 4, nranks);
    mc::HaloExchanger hx(d);
    auto body = [&](mc::Communicator& comm) {
      for (int nb : {1, 3}) {
        group_matches_sets<double>(d, hx, comm, nb);
        group_matches_sets<float>(d, hx, comm, nb);
      }
    };
    if (nranks == 1) {
      mc::SerialComm comm;
      body(comm);
    } else {
      mc::ThreadTeam team(nranks);
      team.run(body);
    }
  }
}

// The end-to-end benchmark cross-checks its outside-in halo-round count
// (one tag epoch per round) against CostCounters::halo_exchanges. Both
// depend on every exchange drawing exactly one tag epoch and counting
// exactly one round of nb x sets member planes, on one rank as on many.
TEST(Halo, OneTagEpochAndOneCountedRoundPerExchange) {
  mu::MaskArray mask(12, 8, 1);
  mg::Decomposition d(12, 8, true, mask, 4, 4, 1);
  mc::HaloExchanger hx(d);
  mc::SerialComm comm;
  mc::DistField f(d, 0);
  mc::DistField32 f32(d, 0);
  mc::DistFieldBatch b(d, 0, 3), b2(d, 0, 3);
  const std::vector<mc::FieldSet> group = {b, b2};
  const std::vector<mc::FieldSet> mixed = {b, b2, f};

  struct Case {
    const char* name;
    std::function<void()> exchange;
    std::uint64_t members;
  };
  const std::vector<Case> cases = {
      {"scalar", [&] { hx.exchange(comm, f); }, 1},
      {"fp32 scalar", [&] { hx.exchange(comm, f32); }, 1},
      {"batch", [&] { hx.exchange(comm, b); }, 3},
      {"split phase", [&] { hx.begin(comm, b).finish(); }, 3},
      {"moved handle",
       [&] {
         mc::HaloHandle h = hx.begin(comm, b);
         mc::HaloHandle moved = std::move(h);
         moved.finish();
       },
       3},
      {"moved handle finished by its destructor",
       [&] {
         mc::HaloHandle h = hx.begin(comm, b);
         mc::HaloHandle moved = std::move(h);
       },
       3},
      {"group", [&] { hx.exchange_group<double>(comm, group); }, 6},
  };
  const int window = mc::Communicator::kTagEpochWindow;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const auto before = comm.costs().counters();
    const int e0 = comm.next_tag_epoch();
    c.exchange();
    const int e1 = comm.next_tag_epoch();
    EXPECT_EQ(e1, (e0 + 2) % window) << "one epoch drawn per exchange";
    const auto after = comm.costs().counters();
    EXPECT_EQ(after.halo_exchanges - before.halo_exchanges, 1u);
    EXPECT_EQ(after.halo_member_updates - before.halo_member_updates,
              c.members);
  }
  // A group must be one shape: the scalar field cannot join the batches.
  EXPECT_THROW(hx.exchange_group<double>(comm, mixed), mu::Error);
}

namespace {

/// Two ranks driven from one thread: a send lands in a mailbox shared by
/// both, keyed by (source, destination, tag), and a receive completes
/// once its message is there. A test can then interleave the ranks'
/// exchange phases by hand, with no thread scheduling in the outcome.
/// `corrupt_next_send` flips one payload bit of this rank's next send;
/// declare_desync() calls are counted.
class LoopbackComm final : public mc::Communicator {
 public:
  using Key = std::tuple<int, int, int>;
  using Mailbox = std::map<Key, std::vector<std::byte>>;

  LoopbackComm(Mailbox& box, int rank) : box_(box), rank_(rank) {}

  int rank() const override { return rank_; }
  int size() const override { return 2; }
  mc::Request iallreduce(std::span<double>, mc::ReduceOp) override {
    throw mu::Error("LoopbackComm has no reductions");
  }
  mc::Request isend_bytes(int dest, int tag,
                          std::span<const std::byte> data) override {
    std::vector<std::byte>& msg = box_[Key{rank_, dest, tag}];
    msg.assign(data.begin(), data.end());
    if (corrupt_next_send) {
      msg.front() ^= std::byte{1};
      corrupt_next_send = false;
    }
    costs().add_message(data.size());
    return {};
  }
  mc::Request irecv_bytes(int src, int tag,
                          std::span<std::byte> data) override {
    return mc::Request(
        std::make_unique<Recv>(box_, Key{src, rank_, tag}, data), &costs());
  }
  void barrier() override {}
  void declare_desync() override { ++desyncs; }

  bool corrupt_next_send = false;
  int desyncs = 0;

 private:
  struct Recv final : mc::RequestState {
    Recv(Mailbox& box, Key key, std::span<std::byte> data)
        : box(box), key(key), data(data) {}
    bool poll() override {
      const auto it = box.find(key);
      if (it == box.end()) return false;
      if (it->second.size() != data.size())
        throw mu::Error("LoopbackComm message size mismatch");
      std::memcpy(data.data(), it->second.data(), data.size());
      box.erase(it);
      return true;
    }
    void block() override {
      if (!poll()) throw mu::Error("LoopbackComm message never sent");
    }
    Mailbox& box;
    Key key;
    std::span<std::byte> data;
  };

  Mailbox& box_;
  int rank_;
};

}  // namespace

// A CRC mismatch is counted once and declares one desync: the handle is
// inactive once finish() throws, so its destructor does not verify the
// same buffer again. The sending rank's exchange is unaffected.
TEST(Halo, CrcFailureIsCountedOnceAndNotRetriedByTheDestructor) {
  mu::MaskArray mask(8, 8, 1);
  mg::Decomposition d(8, 8, true, mask, 4, 4, 2);
  mc::HaloExchanger hx(d);
  hx.set_crc(true);
  LoopbackComm::Mailbox box;
  LoopbackComm c0(box, 0), c1(box, 1);
  mc::DistField f0(d, 0), f1(d, 1);
  c0.corrupt_next_send = true;
  {
    mc::HaloHandle h0 = hx.begin(c0, f0);
    mc::HaloHandle h1 = hx.begin(c1, f1);
    h0.finish();
    EXPECT_THROW(h1.finish(), mc::CorruptPayloadError);
    EXPECT_FALSE(h1.active());
  }
  EXPECT_EQ(c1.costs().counters().integrity_failures, 1u);
  EXPECT_EQ(c1.desyncs, 1);
  EXPECT_EQ(c1.costs().counters().halo_exchanges, 0u);
  EXPECT_EQ(c0.costs().counters().integrity_failures, 0u);
  EXPECT_GT(c0.costs().counters().integrity_checks, 0u);
  EXPECT_EQ(c0.desyncs, 0);
  EXPECT_EQ(c0.costs().counters().halo_exchanges, 1u);
}
