// Environment-variable knobs for benchmarks and examples.
//
// Benchmarks default to paper-scale parameters (1,000 peers) but can be
// scaled up/down without recompiling, e.g. HP2P_PEERS=5000 HP2P_REPLICAS=10.
// An unset (or empty) variable means "use the default"; a variable that is
// set but does not parse is an error, never a silent fallback.
#pragma once

#include <cstdint>
#include <string>

namespace hp2p {

/// Returns the integer value of environment variable `name`, or `fallback`
/// when unset or empty.  Throws std::invalid_argument naming the variable
/// when it is set but not an integer (or out of int64 range).
[[nodiscard]] std::int64_t env_or(const std::string& name,
                                  std::int64_t fallback);

/// Returns the double value of environment variable `name`, or `fallback`
/// when unset or empty.  Throws std::invalid_argument naming the variable
/// when it is set but not a number.
[[nodiscard]] double env_or(const std::string& name, double fallback);

/// Returns the string value of environment variable `name`, or `fallback`
/// when unset or empty.
[[nodiscard]] std::string env_or(const std::string& name,
                                 const char* fallback);

/// A count knob: env_or() that also throws std::invalid_argument naming the
/// variable when the value lies outside [0, max], checked before any cast
/// to an unsigned type.
[[nodiscard]] std::uint64_t env_count(const std::string& name,
                                      std::uint64_t fallback,
                                      std::uint64_t max);

}  // namespace hp2p
