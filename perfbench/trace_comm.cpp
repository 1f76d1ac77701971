#include "trace_comm.hpp"

#include <chrono>
#include <memory>

namespace perfbench {

namespace mc = minipop::comm;

namespace {

/// Completion state that owns the backend's request and times the
/// blocking completion path.
class TimedState final : public mc::RequestState {
 public:
  TimedState(mc::Request inner, double& wait_seconds)
      : inner_(std::move(inner)), wait_seconds_(wait_seconds) {}

  bool poll() override { return inner_.test(); }
  void block() override {
    const auto t0 = std::chrono::steady_clock::now();
    inner_.wait();
    wait_seconds_ += std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
  }

 private:
  mc::Request inner_;
  double& wait_seconds_;
};

}  // namespace

mc::Request TracingComm::wrap(mc::Request inner) {
  // Requests the backend completed at post time stay complete, so the
  // program's own request accounting is the same as without the wrapper.
  if (inner.done()) return mc::Request{};
  return mc::Request(
      std::make_unique<TimedState>(std::move(inner), counts_.wait_seconds),
      &costs_);
}

mc::Request TracingComm::iallreduce(std::span<double> values,
                                    mc::ReduceOp op) {
  ++counts_.allreduces;
  return wrap(inner_.iallreduce(values, op));
}

mc::Request TracingComm::isend_bytes(int dest, int tag,
                                     std::span<const std::byte> data) {
  ++counts_.isends;
  // Every halo round draws a fresh tag epoch and posts all its sends
  // back to back, so an epoch change on a send marks a new round.
  const int epoch = tag / kTagEpochStride;
  if (epoch != last_send_epoch_) {
    ++counts_.halo_rounds;
    last_send_epoch_ = epoch;
  }
  return wrap(inner_.isend_bytes(dest, tag, data));
}

mc::Request TracingComm::irecv_bytes(int src, int tag,
                                     std::span<std::byte> data) {
  ++counts_.irecvs;
  return wrap(inner_.irecv_bytes(src, tag, data));
}

void TracingComm::resync() {
  inner_.resync();
  reset_tag_epoch();
  last_send_epoch_ = -1;
}

}  // namespace perfbench
