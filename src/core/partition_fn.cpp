#include "core/partition_fn.h"

#include <algorithm>
#include <array>

#include "support/itlog.h"

namespace llmp::core {

label_t partition_bound_after(label_t input_bound) {
  LLMP_CHECK(input_bound >= 2);
  // Arguments < B occupy ceil(log2 B) bits, so k <= ceil(log2 B) − 1 and
  // f = 2k + a_k < 2·ceil(log2 B).
  return 2 * static_cast<label_t>(itlog::ceil_log2(input_bound));
}

std::size_t distinct_labels(const std::vector<label_t>& labels) {
  constexpr label_t kPresenceBound = 128;
  std::array<std::uint8_t, kPresenceBound> seen{};
  for (const label_t l : labels) {
    if (l >= kPresenceBound) {
      std::vector<label_t> sorted(labels);
      std::sort(sorted.begin(), sorted.end());
      return static_cast<std::size_t>(
          std::unique(sorted.begin(), sorted.end()) - sorted.begin());
    }
    seen[l] = 1;
  }
  std::size_t distinct = 0;
  for (const std::uint8_t b : seen) distinct += b;
  return distinct;
}

}  // namespace llmp::core
