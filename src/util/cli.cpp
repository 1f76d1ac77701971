#include "src/util/cli.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <sstream>

namespace minipop::util {

int parse_int(const std::string& s, int lo, int hi) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(s.c_str(), &end, 10);
  if (s.empty() || *end != '\0') throw Error("not an integer");
  if (errno == ERANGE || v < lo || v > hi) {
    std::ostringstream os;
    os << "out of range [" << lo << ", " << hi << "]";
    throw Error(os.str());
  }
  return static_cast<int>(v);
}

Cli::Cli(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int a = 1; a < argc; ++a) {
    std::string arg = argv[a];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    auto eq = body.find('=');
    if (eq != std::string::npos) {
      options_[body.substr(0, eq)] = body.substr(eq + 1);
    } else {
      options_[body] = "";  // bare flag
    }
  }
}

std::optional<std::string> Cli::raw(const std::string& name) const {
  auto it = options_.find(name);
  if (it == options_.end()) return std::nullopt;
  return it->second;
}

bool Cli::has(const std::string& name) const {
  return options_.count(name) > 0;
}

std::string Cli::get(const std::string& name,
                     const std::string& fallback) const {
  auto v = raw(name);
  return v ? *v : fallback;
}

CliValueError Cli::value_error(const std::string& name,
                               const std::string& value,
                               const std::string& reason) {
  return CliValueError("--" + name + "=" + value + ": " + reason);
}

int Cli::get_int(const std::string& name, int fallback, int lo,
                 int hi) const {
  auto v = raw(name);
  if (!v || v->empty()) return fallback;
  return get_as(name, *v,
                [&](const std::string& s) { return parse_int(s, lo, hi); });
}

double Cli::get_double(const std::string& name, double fallback, double lo,
                       double hi) const {
  auto v = raw(name);
  if (!v || v->empty()) return fallback;
  char* end = nullptr;
  const double out = std::strtod(v->c_str(), &end);
  if (*end != '\0') throw value_error(name, *v, "not a number");
  // Negated so that NaN is out of range too.
  if (!(out >= lo && out <= hi)) {
    std::ostringstream os;
    os << "out of range [" << lo << ", " << hi << "]";
    throw value_error(name, *v, os.str());
  }
  return out;
}

bool Cli::get_bool(const std::string& name, bool fallback) const {
  auto v = raw(name);
  if (!v) return fallback;
  if (v->empty() || *v == "1" || *v == "true" || *v == "yes") return true;
  if (*v == "0" || *v == "false" || *v == "no") return false;
  throw value_error(name, *v, "not a boolean");
}

std::string Cli::get_choice(const std::string& name,
                            const std::string& fallback,
                            std::initializer_list<const char*> choices) const {
  const std::string v = get(name, fallback);
  if (std::any_of(choices.begin(), choices.end(),
                  [&](const char* c) { return v == c; }))
    return v;
  std::string expected = "expected one of";
  for (const char* c : choices) expected += std::string(" ") + c;
  throw value_error(name, v, expected);
}

int report_error(const std::string& program, const Error& e,
                 std::ostream& err) {
  std::string reason = e.reason();
  std::replace(reason.begin(), reason.end(), '\n', ' ');
  err << program << ": error: " << reason << "\n";
  return 1;
}

int Cli::report(const CliValueError& e, std::ostream& err) const {
  err << program_ << ": " << e.what() << "\n";
  return 2;
}

std::optional<int> Cli::check_flags(const std::vector<CliFlag>& accepted,
                                    const std::string& summary,
                                    std::ostream& out,
                                    std::ostream& err) const {
  const auto usage = [&](std::ostream& os) {
    os << "usage: " << program_ << " [--flag=value ...]\n" << summary
       << "\n\nflags:\n";
    for (const CliFlag& f : accepted) os << "  --" << f.name << f.help << "\n";
    os << "  --help  print this message and exit\n";
  };
  if (has("help")) {
    usage(out);
    return 0;
  }
  std::vector<std::string> unknown;
  for (const auto& [name, value] : options_)
    if (std::none_of(accepted.begin(), accepted.end(),
                     [&](const CliFlag& f) { return f.name == name; }))
      unknown.push_back("--" + name);
  std::sort(unknown.begin(), unknown.end());
  for (const std::string& p : positional_) unknown.push_back(p);
  if (unknown.empty()) return std::nullopt;
  err << program_ << ": unknown argument";
  for (const std::string& u : unknown) err << " " << u;
  err << "\n";
  usage(err);
  return 2;
}

}  // namespace minipop::util
