// Minimal command-line parsing for benches and examples.
//
// Accepts --key=value and boolean --flag forms (values always use '=' so
// flags never swallow positionals). Programs with a fixed flag set call
// check_flags() first, so an unknown --flag stops the program before any
// work instead of being silently ignored. The typed getters throw
// CliValueError for a value that does not parse, so a program can read
// all its flags up front and stop with exit status 2 on a bad one.
#pragma once

#include <climits>
#include <cmath>
#include <initializer_list>
#include <iostream>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/util/error.hpp"

namespace minipop::util {

/// A flag value that does not parse or is out of range. what() is one
/// line naming the flag, e.g. "--days=abc: not a number".
class CliValueError : public Error {
 public:
  using Error::Error;
};

/// Strict base-10 parse of all of `s`; throws Error with a one-line
/// reason unless it is an integer in [lo, hi].
int parse_int(const std::string& s, int lo = INT_MIN, int hi = INT_MAX);

/// Report an Error that stopped a program after its flags parsed (a
/// configuration the library rejects, a failed run) as one
/// "program: error: reason()" line on `err` — no source location — and
/// return exit status 1.
/// The examples' main() ends in this handler instead of aborting.
int report_error(const std::string& program, const Error& e,
                 std::ostream& err = std::cerr);

/// One accepted flag of a program with a fixed flag set.
struct CliFlag {
  std::string name;  ///< without the leading "--"
  std::string help;  ///< value form and meaning, e.g. "=N  days to run"
};

class Cli {
 public:
  Cli(int argc, const char* const* argv);

  /// True if --name was present (with or without a value).
  bool has(const std::string& name) const;

  std::string get(const std::string& name, const std::string& fallback) const;
  /// Integer value of --name in [lo, hi]; `fallback` when absent or
  /// empty. Throws CliValueError otherwise.
  int get_int(const std::string& name, int fallback, int lo = INT_MIN,
              int hi = INT_MAX) const;
  /// Number value of --name in [lo, hi]; `fallback` when absent or
  /// empty. Throws CliValueError otherwise.
  double get_double(const std::string& name, double fallback,
                    double lo = -HUGE_VAL, double hi = HUGE_VAL) const;
  bool get_bool(const std::string& name, bool fallback = false) const;
  /// Value of --name (or `fallback`), which must be one of `choices`.
  std::string get_choice(const std::string& name, const std::string& fallback,
                         std::initializer_list<const char*> choices) const;

  /// `parse` applied to the value of --name (or to `fallback` when
  /// absent); an Error from `parse` becomes a CliValueError naming the
  /// flag.
  template <typename Parse>
  auto get_as(const std::string& name, const std::string& fallback,
              Parse&& parse) const {
    const std::string v = get(name, fallback);
    try {
      return parse(v);
    } catch (const Error& e) {
      throw value_error(name, v, e.what());
    }
  }

  /// Positional (non --option) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Program name (argv[0]).
  const std::string& program() const { return program_; }

  /// Strict check against a fixed flag set (--help is always accepted).
  /// Returns the exit code the program must stop with before doing any
  /// work — 0 after printing `summary` and the accepted flags to `out`
  /// for --help; 2 after printing an error and the flags to `err` for an
  /// unknown --flag or a positional argument — or std::nullopt when the
  /// program should run.
  std::optional<int> check_flags(const std::vector<CliFlag>& accepted,
                                 const std::string& summary,
                                 std::ostream& out = std::cout,
                                 std::ostream& err = std::cerr) const;

  /// Report a bad flag value as one "program: what()" line on `err` and
  /// return the exit code 2 the program must stop with.
  int report(const CliValueError& e, std::ostream& err = std::cerr) const;

 private:
  std::optional<std::string> raw(const std::string& name) const;
  static CliValueError value_error(const std::string& name,
                                   const std::string& value,
                                   const std::string& reason);

  std::string program_;
  std::unordered_map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

}  // namespace minipop::util
