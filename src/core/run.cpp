#include "core/run.h"

#include <string>

#include "core/registry.h"

namespace llmp::core {

Status validate_options(const MatchOptions& opt) {
  if (static_cast<std::size_t>(opt.algorithm) >= kAlgorithmCount)
    return Status::invalid_argument("unknown algorithm enum value");
  if (opt.algorithm == Algorithm::kMatch4) {
    // i is the paper's adjustable parameter: rows = Θ(log^(i) n). Every
    // useful value is tiny (log* n <= 5 for any feasible n); the cap stops
    // a hostile request from buying i full relabel sweeps.
    if (opt.i_parameter < 1)
      return Status::invalid_argument("Match4 requires i_parameter >= 1");
    if (opt.i_parameter > 64)
      return Status::invalid_argument(
          "i_parameter " + std::to_string(opt.i_parameter) +
          " is beyond any useful value (max 64)");
  }
  if (opt.erew && opt.algorithm != Algorithm::kMatch1 &&
      opt.algorithm != Algorithm::kMatch2 &&
      opt.algorithm != Algorithm::kMatch4) {
    return Status::invalid_argument(
        "erew variants exist for Match1/Match2/Match4 only");
  }
  return {};
}

Result<MatchOptions> resolve_algorithm(std::string_view name) {
  const AlgorithmEntry* entry = AlgorithmRegistry::instance().find(name);
  if (entry == nullptr)
    return Status::not_found("unknown algorithm '" + std::string(name) +
                             "' (see the registry listing)");
  if (!entry->matching)
    return Status::invalid_argument(
        "algorithm '" + std::string(name) +
        "' is registered but is not a matching algorithm");
  return entry->canonical;
}

}  // namespace llmp::core
