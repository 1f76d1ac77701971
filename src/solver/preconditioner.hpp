// Preconditioner interface and the two baseline preconditioners.
//
// POP's production preconditioner is the simple diagonal scaling
// (paper §4, refs [29, 30]); the paper's contribution — the block-EVP
// preconditioner — lives in src/evp and implements this same interface.
// Preconditioners act block-locally on interiors; they require and
// perform no communication.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/comm/communicator.hpp"
#include "src/comm/dist_field.hpp"
#include "src/solver/dist_operator.hpp"

namespace minipop::solver {

class Preconditioner {
 public:
  virtual ~Preconditioner() = default;

  /// out_m = M^{-1} in_m over block interiors for every member of the
  /// sets (land cells map to zero). A scalar DistField passes as a
  /// one-member view. Member m of the result is bit-identical whatever
  /// the set width (kernels.hpp contract).
  virtual void apply(comm::Communicator& comm, const comm::FieldSet& in,
                     const comm::FieldSet& out) = 0;

  /// fp32 mirror of apply(): same block-local, communication-free
  /// contract on fp32 sets. The built-in preconditioners all implement
  /// it from a lazily-built float copy of their setup data; the default
  /// errors so a preconditioner without an fp32 path fails loudly rather
  /// than silently up-converting.
  virtual void apply(comm::Communicator& comm, const comm::FieldSet32& in,
                     const comm::FieldSet32& out);

  /// Batched spelling of apply(), kept because the end-to-end benchmark
  /// (perfbench/) calls it.
  void apply_batch(comm::Communicator& comm, const comm::FieldSet& in,
                   const comm::FieldSet& out) {
    apply(comm, in, out);
  }

  virtual std::string name() const = 0;
};

/// M = I (no preconditioning). Turns P-CSI into the plain CSI of [20].
class IdentityPreconditioner final : public Preconditioner {
 public:
  explicit IdentityPreconditioner(const DistOperator& op) : op_(&op) {}
  void apply(comm::Communicator& comm, const comm::FieldSet& in,
             const comm::FieldSet& out) override;
  void apply(comm::Communicator& comm, const comm::FieldSet32& in,
             const comm::FieldSet32& out) override;
  std::string name() const override { return "identity"; }

 private:
  template <typename T>
  void apply_t(const comm::FieldSetT<T>& in,
               const comm::FieldSetT<T>& out) const;

  const DistOperator* op_;
};

/// M = diag(A): POP's default. One op per point per application.
class DiagonalPreconditioner final : public Preconditioner {
 public:
  explicit DiagonalPreconditioner(const DistOperator& op);
  void apply(comm::Communicator& comm, const comm::FieldSet& in,
             const comm::FieldSet& out) override;
  void apply(comm::Communicator& comm, const comm::FieldSet32& in,
             const comm::FieldSet32& out) override;
  std::string name() const override { return "diagonal"; }

 private:
  template <typename T>
  void apply_t(comm::Communicator& comm,
               const std::vector<util::Array2D<T>>& inv_diag,
               const comm::FieldSetT<T>& in,
               const comm::FieldSetT<T>& out) const;

  const DistOperator* op_;
  std::vector<util::Field> inv_diag_;  ///< masked inverse diagonal per block
  /// float mirror of inv_diag_, built on first fp32 apply (each inverse
  /// is rounded from the double one, not recomputed in float).
  std::vector<util::Array2D<float>> inv_diag32_;
};

}  // namespace minipop::solver
