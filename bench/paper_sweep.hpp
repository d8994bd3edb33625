// Shared pieces of the network-evaluation benches (Figs. 17-19 and the
// §3.2.1/§3.2.3/§3.3.3 ablations): every simulated point is a cell of
// the committed office scenario, specs/office-256.spec, with overrides
// applied through the spec codec, and runs through the spec sweep
// engine (ns::spec::expand_sweep / run_sweep) — the same path
// `netscatter_sweep --spec specs/office-256.spec --vary ...` takes, so
// a bench point and the matching CLI sweep cell are the same numbers.
#pragma once

#include <cstddef>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "netscatter/scenario/scenario_registry.hpp"
#include "netscatter/sim/deployment.hpp"
#include "netscatter/spec/spec_codec.hpp"
#include "netscatter/spec/sweep.hpp"

namespace bench {

/// The x-axis of Figs. 17-19.
inline std::vector<std::size_t> paper_device_counts() {
    return {1, 16, 32, 64, 96, 128, 160, 192, 224, 256};
}

/// The x-axis as a sweep axis over `geometry.num_devices`.
inline ns::spec::sweep_axis paper_device_axis() {
    ns::spec::sweep_axis axis{"geometry.num_devices", {}};
    for (std::size_t n : paper_device_counts()) axis.values.push_back(std::to_string(n));
    return axis;
}

/// (spec key, value) pairs, applied in order.
using spec_overrides = std::vector<std::pair<std::string, std::string>>;

/// specs/office-256.spec with `overrides` applied and the result
/// cross-field validated.
inline ns::scenario::scenario_spec office_spec(const spec_overrides& overrides) {
    std::optional<ns::scenario::scenario_spec> spec =
        ns::scenario::find_scenario("office-256");
    if (!spec) throw std::runtime_error("no office-256 scenario in the spec directory");
    for (const auto& [key, value] : overrides) {
        ns::spec::apply_spec_override(*spec, key, value, "bench");
    }
    ns::spec::validate_spec(*spec, "bench");
    return *spec;
}

/// Per-device backscatter RSSI at the AP for `spec`'s deployment (the
/// one every replica of the spec builds): the link budget the
/// rate-adapted LoRa baseline reads.
inline std::vector<double> uplink_rssi_dbm(const ns::scenario::scenario_spec& spec) {
    const ns::sim::deployment dep(ns::scenario::resolve_geometry(spec.geometry),
                                  spec.geometry.num_devices, spec.sim.seed);
    std::vector<double> rssi;
    for (const auto& device : dep.devices()) rssi.push_back(device.uplink_rx_dbm);
    return rssi;
}

}  // namespace bench
