// Named, reproducible workloads.
//
// The registry is the catalogue `netscatter_sim --list` prints and the
// benches/CI smoke run from. A scenario exists only as a committed spec
// file: registry() parses every `*.spec` in ns::spec::spec_dir() at first
// use, in file-name order, and each file's stem must equal its scenario
// name. There is no compiled-in fallback — a missing spec directory, or
// one with no spec files, is an error. To add a scenario, commit
// `specs/<name>.spec` (or build a spec by hand and hand it straight to
// run_scenario; registration is a convenience, not a requirement).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "netscatter/scenario/scenario_spec.hpp"

namespace ns::scenario {

/// All registered scenarios, in presentation order. Loaded from
/// `spec_dir()/*.spec` (sorted by file name); throws
/// ns::spec::spec_error when the directory is missing or holds no spec
/// file, when a file does not parse, or when a file's stem differs from
/// its scenario name.
const std::vector<scenario_spec>& registry();

/// Looks a scenario up by name.
std::optional<scenario_spec> find_scenario(const std::string& name);

}  // namespace ns::scenario
