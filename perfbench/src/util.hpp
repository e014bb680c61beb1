// Small helpers shared by the driver's files: sample medians and the byte
// encoding that op-stream and simulated-outcome digests hash.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace perfbench {

inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Appends the 8 bytes of `v` (host byte order) to `out`.
inline void append_u64(std::string& out, std::uint64_t v) {
  char b[sizeof v];
  std::memcpy(b, &v, sizeof b);
  out.append(b, sizeof b);
}

inline void append_f64(std::string& out, double v) {
  char b[sizeof v];
  std::memcpy(b, &v, sizeof b);
  out.append(b, sizeof b);
}

}  // namespace perfbench
