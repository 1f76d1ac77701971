#include "src/util/cli.hpp"

#include <algorithm>
#include <cstdlib>

#include "src/util/error.hpp"

namespace minipop::util {

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

int Cli::get_int(const std::string& name, int fallback) const {
  auto v = raw(name);
  if (!v || v->empty()) return fallback;
  char* end = nullptr;
  long out = std::strtol(v->c_str(), &end, 10);
  MINIPOP_REQUIRE(end && *end == '\0', "--" << name << "=" << *v
                                            << " is not an integer");
  return static_cast<int>(out);
}

double Cli::get_double(const std::string& name, double fallback) const {
  auto v = raw(name);
  if (!v || v->empty()) return fallback;
  char* end = nullptr;
  double out = std::strtod(v->c_str(), &end);
  MINIPOP_REQUIRE(end && *end == '\0', "--" << name << "=" << *v
                                            << " is not a number");
  return out;
}

bool Cli::get_bool(const std::string& name, bool fallback) const {
  auto v = raw(name);
  if (!v) return fallback;
  if (v->empty() || *v == "1" || *v == "true" || *v == "yes") return true;
  if (*v == "0" || *v == "false" || *v == "no") return false;
  MINIPOP_REQUIRE(false, "--" << name << "=" << *v << " is not a boolean");
  return fallback;
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
