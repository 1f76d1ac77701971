// Minimal command-line parsing for benches and examples.
//
// Accepts --key=value and boolean --flag forms (values always use '=' so
// flags never swallow positionals). Programs with a fixed flag set call
// check_flags() first, so an unknown --flag stops the program before any
// work instead of being silently ignored.
#pragma once

#include <iostream>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace minipop::util {

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
  int get_int(const std::string& name, int fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback = false) const;

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

 private:
  std::optional<std::string> raw(const std::string& name) const;

  std::string program_;
  std::unordered_map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

}  // namespace minipop::util
