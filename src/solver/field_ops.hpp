// Vector operations on distributed fields (block interiors only), over
// FieldSet views: a DistField passes as a one-member set, a
// DistFieldBatch as an nb-member one. Flop accounting follows the
// paper's per-point operation counts.
#pragma once

#include <type_traits>

#include "src/comm/communicator.hpp"
#include "src/comm/field_set.hpp"
#include "src/solver/span_plan.hpp"

namespace minipop::solver {

/// Field-set parameter whose scalar T is fixed by another argument (the
/// per-member coefficients, or the explicit template argument): a
/// non-deduced context, so DistField and DistFieldBatch arguments
/// convert to their views.
template <typename T>
using SetOf = comm::FieldSetT<std::type_identity_t<T>>;

// Updates take per-member coefficients a[m], b[m], c[m] at storage
// precision and an optional `active` mask of nb() bytes (null: every
// member); inactive members' planes are not written and their lanes
// count no flops. They run the land-span kernels of `plan` (DESIGN.md
// §14, DistOperator::span_plan()), which skip land cells entirely —
// bit-identical at every ocean cell, while land cells keep their +0.0
// (solver iterates are zero on land, and a dense sweep would only ever
// rewrite that zero).

/// y_m = a[m] x_m + b[m] y_m. Covers the solvers' vector updates: axpy
/// (b=1), xpby (a=1), and the general update.
template <typename T>
void lincomb(comm::Communicator& comm, const SpanPlan& plan, const T* a,
             const SetOf<T>& x, const T* b, const SetOf<T>& y,
             const unsigned char* active = nullptr);

/// y_m += a[m] x_m.
template <typename T>
void axpy(comm::Communicator& comm, const SpanPlan& plan, const T* a,
          const SetOf<T>& x, const SetOf<T>& y,
          const unsigned char* active = nullptr);

/// Fused y_m = a[m] x_m + b[m] y_m followed by z_m += c[m] y_m in one
/// sweep. Bit-identical to lincomb(a, x, b, y) then axpy(c, y, z).
template <typename T>
void lincomb_axpy(comm::Communicator& comm, const SpanPlan& plan,
                  const T* a, const SetOf<T>& x, const T* b,
                  const SetOf<T>& y, const T* c, const SetOf<T>& z,
                  const unsigned char* active = nullptr);

/// x_m *= a[m].
template <typename T>
void scale(comm::Communicator& comm, const SpanPlan& plan, const T* a,
           const SetOf<T>& x, const unsigned char* active = nullptr);

/// y = x over all members' interiors (free of flops).
template <typename T>
void copy_interior(const SetOf<T>& x, const SetOf<T>& y);

/// x = v everywhere in all members' interiors.
template <typename T>
void fill_interior(const SetOf<T>& x, T v);

// Precision boundary of the mixed-precision refinement loop: the same
// per-element conversions over the nb-widened interior rows. Interiors
// only; halos are refreshed by the next exchange.

/// y32_m = (float) x64_m, all members.
void demote(const comm::FieldSet& x, const comm::FieldSet32& y);

/// y64_m = (double) x32_m, all members.
void promote(const comm::FieldSet32& x, const comm::FieldSet& y);

/// y64_m += a[m] * x32_m for active members, widening each fp32 element
/// to double before the multiply — the refinement update x += d without
/// materializing a promoted copy of d.
void axpy_promoted(comm::Communicator& comm, const double* a,
                   const comm::FieldSet32& x, const comm::FieldSet& y,
                   const unsigned char* active);

}  // namespace minipop::solver
