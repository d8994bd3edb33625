// Fig. 19 — network latency (time to collect the payload from every
// device) vs number of devices.
//
// Paper shape: NetScatter's latency is one concurrent round (~49 ms for
// Config 1, ~60 ms for Config 2) and *independent of N*, while TDMA
// baselines grow linearly to seconds. Reductions at 256 devices: 67.0x /
// 55.1x over fixed LoRa-BS and 15.3x / 12.6x over rate-adapted.
#include <iostream>

#include "netscatter/baseline/lora_link.hpp"
#include "netscatter/sim/deployment.hpp"
#include "netscatter/sim/timeline.hpp"
#include "netscatter/util/table.hpp"
#include "bench_report.hpp"
#include "paper_sweep.hpp"

int main() {
    const bench::stopwatch clock;
    bench::bench_report report("fig19_latency");
    const auto frame = ns::phy::linklayer_format();
    const auto phy = ns::phy::deployed_params();

    ns::util::text_table table(
        "Fig 19: network latency [ms] vs # devices",
        {"# devices", "LoRa-BS fixed", "LoRa-BS rate-adapt", "NetScatter cfg1",
         "NetScatter cfg2"});

    const auto cfg1 = ns::sim::netscatter_round(frame, phy, ns::sim::query_config::config1);
    const auto cfg2 = ns::sim::netscatter_round(frame, phy, ns::sim::query_config::config2);

    std::vector<double> rssi_256;
    for (std::size_t n : bench::paper_device_counts()) {
        const ns::sim::deployment dep(ns::sim::deployment_params{}, n, 19);
        std::vector<double> rssi;
        for (const auto& device : dep.devices()) rssi.push_back(device.uplink_rx_dbm);
        if (n == 256) rssi_256 = rssi;

        const auto lora = ns::baseline::fixed_rate_network(frame, n);
        const auto adapted = ns::baseline::rate_adapted_network(frame, rssi);
        report.add_point({{"num_devices", static_cast<double>(n)},
                          {"lora_fixed_latency_ms", lora.latency_s * 1e3},
                          {"lora_adapted_latency_ms", adapted.latency_s * 1e3},
                          {"netscatter_cfg1_latency_ms", cfg1.total_time_s * 1e3},
                          {"netscatter_cfg2_latency_ms", cfg2.total_time_s * 1e3}});
        table.add_row({std::to_string(n),
                       ns::util::format_double(lora.latency_s * 1e3, 0),
                       ns::util::format_double(adapted.latency_s * 1e3, 0),
                       ns::util::format_double(cfg1.total_time_s * 1e3, 1),
                       ns::util::format_double(cfg2.total_time_s * 1e3, 1)});
    }
    table.print(std::cout);

    const auto lora = ns::baseline::fixed_rate_network(frame, 256);
    const auto adapted = ns::baseline::rate_adapted_network(frame, rssi_256);
    std::cout << "\nat 256 devices: cfg1 latency reduction "
              << ns::util::format_double(lora.latency_s / cfg1.total_time_s, 1)
              << "x over fixed (paper 67.0x), "
              << ns::util::format_double(adapted.latency_s / cfg1.total_time_s, 1)
              << "x over rate-adapted (paper 15.3x); cfg2: "
              << ns::util::format_double(lora.latency_s / cfg2.total_time_s, 1)
              << "x (paper 55.1x), "
              << ns::util::format_double(adapted.latency_s / cfg2.total_time_s, 1)
              << "x (paper 12.6x)\n"
              << "note: AP query airtime is negligible for cfg1 and still "
                 "non-dominant for cfg2 (payload dominates), as §4.4 observes\n";
    report.set_scalar("wall_clock_s", clock.seconds());
    report.write();
    return 0;
}
