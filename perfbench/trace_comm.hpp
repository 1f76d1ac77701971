// Forwarding Communicator used by the traced benchmark run.
//
// It sits between the model and the real backend (SerialComm or a
// ThreadComm rank) and forwards every call, counting from the outside
// what the program asks the communication layer to do: isend and irecv
// calls, allreduces, halo rounds (taken from the tag epoch each halo
// round draws), and the wall time spent blocked completing requests.
// Those counts are cross-checked against the program's own CostCounters.
//
// Trackers: the halo exchanger and the kernels record into the
// communicator they are handed (this wrapper's CostTracker), while the
// backend records messages and allreduces in its own (inner) tracker.
#pragma once

#include <cstdint>

#include "src/comm/communicator.hpp"

namespace perfbench {

/// Outside-in counts of one rank's communication calls.
struct CallCounts {
  std::uint64_t isends = 0;
  std::uint64_t irecvs = 0;
  std::uint64_t allreduces = 0;
  std::uint64_t halo_rounds = 0;  ///< distinct tag epochs seen on isend
  double wait_seconds = 0.0;      ///< time blocked in RequestState::block

  CallCounts operator-(const CallCounts& o) const {
    return {isends - o.isends, irecvs - o.irecvs, allreduces - o.allreduces,
            halo_rounds - o.halo_rounds, wait_seconds - o.wait_seconds};
  }
};

class TracingComm final : public minipop::comm::Communicator {
 public:
  explicit TracingComm(minipop::comm::Communicator& inner) : inner_(inner) {}
  TracingComm(const TracingComm&) = delete;
  TracingComm& operator=(const TracingComm&) = delete;

  int rank() const override { return inner_.rank(); }
  int size() const override { return inner_.size(); }

  minipop::comm::Request iallreduce(std::span<double> values,
                                    minipop::comm::ReduceOp op) override;
  minipop::comm::Request isend_bytes(int dest, int tag,
                                     std::span<const std::byte> data) override;
  minipop::comm::Request irecv_bytes(int src, int tag,
                                     std::span<std::byte> data) override;
  void barrier() override { inner_.barrier(); }
  void resync() override;
  void declare_desync() override { inner_.declare_desync(); }

  const CallCounts& counts() const { return counts_; }

 private:
  minipop::comm::Request wrap(minipop::comm::Request inner);

  minipop::comm::Communicator& inner_;
  CallCounts counts_;
  int last_send_epoch_ = -1;
};

}  // namespace perfbench
