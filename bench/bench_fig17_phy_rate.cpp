// Fig. 17 — network PHY bit-rate vs number of concurrent backscatter
// devices, for four schemes: LoRa backscatter without and with (ideal)
// rate adaptation, NetScatter (ideal), and NetScatter as measured by the
// sample-level simulation over the office deployment.
//
// Paper shape: NetScatter scales linearly to ~250 kbps at 256 devices
// (976 bps per device); LoRa backscatter stays flat (~8.7 kbps without
// rate adaptation, tens of kbps with). Gains at 256 devices: 26.2x /
// 6.8x. Variance grows past 128 devices as SKIP drops to 2.
//
// Every simulated point is a cell of specs/office-256.spec swept over
// the device count, bit-identical to
//   netscatter_sweep --spec specs/office-256.spec --rounds 3 --replicas 1
//     --seed 17 --vary geometry.num_devices=1,16,32,64,96,128,160,192,224,256
#include <iostream>

#include "netscatter/baseline/lora_link.hpp"
#include "netscatter/engine/thread_pool.hpp"
#include "netscatter/sim/timeline.hpp"
#include "netscatter/util/table.hpp"
#include "bench_report.hpp"
#include "paper_sweep.hpp"

int main() {
    const auto base = bench::office_spec(
        {{"sim.rounds", "3"}, {"replicas", "1"}, {"sim.seed", "17"}});
    const auto frame = base.sim.frame;  // 5-byte payload (§4.4)
    const auto phy = base.sim.phy;

    const bench::stopwatch clock;
    const auto cells = ns::spec::expand_sweep(base, {bench::paper_device_axis()});
    const auto results = ns::spec::run_sweep(cells);
    const double wall_s = clock.seconds();

    ns::util::text_table table(
        "Fig 17: network PHY rate [kbps] vs # devices",
        {"# devices", "LoRa-BS fixed", "LoRa-BS rate-adapt", "NetScatter (ideal)",
         "NetScatter (simulated)", "delivered/round"});

    bench::bench_report report("fig17_phy_rate");
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const std::size_t n = cells[i].spec.geometry.num_devices;
        const double mean_delivered = results[i].sim.mean_delivered_per_round();
        const auto lora = ns::baseline::fixed_rate_network(frame, n);
        const auto adapted = ns::baseline::rate_adapted_network(
            frame, bench::uplink_rssi_dbm(cells[i].spec));
        const auto ideal = ns::sim::netscatter_ideal_metrics(
            frame, phy, ns::sim::query_config::config1, n);
        const auto measured = ns::sim::netscatter_metrics(
            frame, phy, ns::sim::query_config::config1,
            static_cast<std::size_t>(mean_delivered + 0.5), n);

        table.add_row({std::to_string(n),
                       ns::util::format_double(lora.phy_rate_bps / 1e3, 1),
                       ns::util::format_double(adapted.phy_rate_bps / 1e3, 1),
                       ns::util::format_double(ideal.phy_rate_bps / 1e3, 1),
                       ns::util::format_double(measured.phy_rate_bps / 1e3, 1),
                       ns::util::format_double(mean_delivered, 1)});
        report.add_point({{"num_devices", static_cast<double>(n)},
                          {"mean_delivered", mean_delivered},
                          {"delivery_rate", results[i].sim.delivery_rate()},
                          {"phy_rate_kbps", measured.phy_rate_bps / 1e3}});
    }
    table.print(std::cout);

    const double last_delivered = results.back().sim.mean_delivered_per_round();
    const auto lora = ns::baseline::fixed_rate_network(frame, 256);
    const auto adapted = ns::baseline::rate_adapted_network(
        frame, bench::uplink_rssi_dbm(cells.back().spec));
    const auto measured = ns::sim::netscatter_metrics(
        frame, phy, ns::sim::query_config::config1,
        static_cast<std::size_t>(last_delivered + 0.5), 256);
    std::cout << "\nat 256 devices: gain over fixed LoRa-BS = "
              << ns::util::format_double(measured.phy_rate_bps / lora.phy_rate_bps, 1)
              << "x (paper: 26.2x), over rate-adapted = "
              << ns::util::format_double(measured.phy_rate_bps / adapted.phy_rate_bps, 1)
              << "x (paper: 6.8x)\n";

    std::cout << "\nengine: " << ns::engine::thread_pool::default_thread_count()
              << " hardware threads, sweep " << ns::util::format_double(wall_s, 2)
              << " s\n";

    report.set_scalar("wall_clock_s", wall_s);
    report.set_scalar("hardware_threads",
                      static_cast<double>(ns::engine::thread_pool::default_thread_count()));
    report.write();
    return 0;
}
