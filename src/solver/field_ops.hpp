// Vector operations on distributed fields (block interiors only).
// Flop accounting follows the paper's per-point operation counts.
#pragma once

#include "src/comm/communicator.hpp"
#include "src/comm/dist_field.hpp"
#include "src/comm/field_set.hpp"
#include "src/solver/span_plan.hpp"

namespace minipop::solver {

// Every update op takes an optional land-span plan (DESIGN.md §14,
// usually DistOperator::span_plan()): non-null runs the mask-free span
// kernels, which skip land cells entirely — bit-identical at every
// ocean cell, while land cells keep their +0.0 (solver iterates are
// zero on land, and the dense sweep only ever rewrites that zero).

// Scalar-field operations, instantiated for DistField and DistField32
// (scalars arrive as double and are rounded once to T at entry, not per
// element).

/// y = a*x + b*y. Covers the solvers' vector updates: axpy (b=1),
/// xpby (a=1), and the general update.
template <typename T>
void lincomb(comm::Communicator& comm, double a, const comm::DistFieldT<T>& x,
             double b, comm::DistFieldT<T>& y,
             const SpanPlan* plan = nullptr);

/// y = a*x + y.
template <typename T>
void axpy(comm::Communicator& comm, double a, const comm::DistFieldT<T>& x,
          comm::DistFieldT<T>& y, const SpanPlan* plan = nullptr);

/// Fused y = a*x + b*y followed by z += c*y in one sweep. Bit-identical
/// to lincomb(a, x, b, y) then axpy(c, y, z).
template <typename T>
void lincomb_axpy(comm::Communicator& comm, double a,
                  const comm::DistFieldT<T>& x, double b,
                  comm::DistFieldT<T>& y, double c, comm::DistFieldT<T>& z,
                  const SpanPlan* plan = nullptr);

/// x *= a.
template <typename T>
void scale(comm::Communicator& comm, double a, comm::DistFieldT<T>& x,
           const SpanPlan* plan = nullptr);

/// y = x (interiors; free of flops).
template <typename T>
void copy_interior(const comm::DistFieldT<T>& x, comm::DistFieldT<T>& y);

/// x = v everywhere in the interiors.
template <typename T>
void fill_interior(comm::DistFieldT<T>& x, double v);

// Precision boundary of the mixed-precision refinement loop, over
// FieldSet views (a scalar field passes as a one-member set): the same
// per-element conversions over the nb-widened interior rows. Interiors
// only; halos are refreshed by the next exchange.

/// y32_m = (float) x64_m, all members.
void demote(const comm::FieldSet& x, const comm::FieldSet32& y);

/// y64_m = (double) x32_m, all members.
void promote(const comm::FieldSet32& x, const comm::FieldSet& y);

/// y64_m += a[m] * x32_m for active members, widening each fp32 element
/// to double before the multiply — the refinement update x += d without
/// materializing a promoted copy of d. Flops counted for the n_act
/// active lanes.
void axpy_promoted(comm::Communicator& comm, const double* a,
                   const comm::FieldSet32& x, const comm::FieldSet& y,
                   const unsigned char* active, int n_act);

/// y = x over all members' interiors.
void copy_interior(const comm::FieldSet& x, const comm::FieldSet& y);

}  // namespace minipop::solver
