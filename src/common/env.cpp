#include "common/env.hpp"

#include <cerrno>
#include <cstdlib>
#include <stdexcept>

namespace hp2p {
namespace {

/// `fallback` when `name` is unset or empty, else parse(value) -- which
/// must consume the whole string and stay in range.
template <typename T, typename Parse>
T parse_env(const std::string& name, T fallback, const char* expected,
            Parse parse) {
  const char* v = std::getenv(name.c_str());
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  const T parsed = parse(v, &end);
  if (end == v || *end != '\0' || errno == ERANGE) {
    throw std::invalid_argument(name + "=" + v + ": expected " + expected);
  }
  return parsed;
}

}  // namespace

std::int64_t env_or(const std::string& name, std::int64_t fallback) {
  return parse_env(name, fallback, "an integer", [](const char* v, char** e) {
    return static_cast<std::int64_t>(std::strtoll(v, e, 10));
  });
}

double env_or(const std::string& name, double fallback) {
  return parse_env(name, fallback, "a number", [](const char* v, char** e) {
    return std::strtod(v, e);
  });
}

std::string env_or(const std::string& name, const char* fallback) {
  const char* v = std::getenv(name.c_str());
  return (v == nullptr || *v == '\0') ? std::string(fallback)
                                      : std::string(v);
}

std::uint64_t env_count(const std::string& name, std::uint64_t fallback,
                        std::uint64_t max) {
  const std::int64_t n = env_or(name, static_cast<std::int64_t>(fallback));
  if (n < 0 || static_cast<std::uint64_t>(n) > max) {
    throw std::invalid_argument(name + "=" + std::to_string(n) +
                                ": expected a count in [0, " +
                                std::to_string(max) + "]");
  }
  return static_cast<std::uint64_t>(n);
}

}  // namespace hp2p
