// Error-handling primitives for minipop.
//
// The library reports contract violations and runtime failures by throwing
// minipop::util::Error (a std::runtime_error). what() carries the full
// debugging text — for a failed requirement the "file:line: requirement
// failed: expr" location too — while reason() is the user-facing part
// alone, which the programs print. Hot loops use
// MINIPOP_ASSERT, which compiles out in NDEBUG builds; API boundaries use
// MINIPOP_REQUIRE, which is always active.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

namespace minipop::util {

/// Exception type thrown by all minipop components.
class Error : public std::runtime_error {
 public:
  /// An error whose whole text is meant for the user.
  explicit Error(const std::string& what)
      : std::runtime_error(what), reason_(what) {}
  /// An error whose what() adds debugging context (a source location)
  /// to the user-facing `reason`.
  Error(const std::string& what, std::string reason)
      : std::runtime_error(what), reason_(std::move(reason)) {}

  /// The user-facing reason: what() without the debugging location.
  const std::string& reason() const { return reason_; }

 private:
  std::string reason_;
};

namespace detail {
[[noreturn]] inline void raise(const char* expr, const char* file, int line,
                               const std::string& msg) {
  std::ostringstream os;
  os << file << ":" << line << ": requirement failed: " << expr;
  if (!msg.empty()) os << " — " << msg;
  throw Error(os.str(), msg.empty() ? std::string("requirement failed: ") +
                                          expr
                                    : msg);
}
}  // namespace detail

}  // namespace minipop::util

/// Always-on precondition check. `msg` is streamed, e.g.
///   MINIPOP_REQUIRE(n > 0, "block size " << n);
#define MINIPOP_REQUIRE(expr, msg)                                        \
  do {                                                                    \
    if (!(expr)) {                                                        \
      std::ostringstream minipop_req_os_;                                 \
      minipop_req_os_ << msg;                                             \
      ::minipop::util::detail::raise(#expr, __FILE__, __LINE__,           \
                                     minipop_req_os_.str());              \
    }                                                                     \
  } while (0)

/// Debug-only assertion for hot paths (per-element bounds checks in the
/// array wrappers). Governed by MINIPOP_BOUNDS_CHECK, which the build
/// sets explicitly (CMake option: ON in Debug, OFF otherwise) so the
/// checks provably compile out of release hot loops; without a build
/// definition it falls back to following NDEBUG. The raw-pointer kernels
/// in solver/kernels.* never carry these checks in any configuration.
#if !defined(MINIPOP_BOUNDS_CHECK)
#if defined(NDEBUG)
#define MINIPOP_BOUNDS_CHECK 0
#else
#define MINIPOP_BOUNDS_CHECK 1
#endif
#endif

#if MINIPOP_BOUNDS_CHECK
#define MINIPOP_ASSERT(expr)                                              \
  do {                                                                    \
    if (!(expr))                                                          \
      ::minipop::util::detail::raise(#expr, __FILE__, __LINE__, "");      \
  } while (0)
#else
#define MINIPOP_ASSERT(expr) ((void)0)
#endif
