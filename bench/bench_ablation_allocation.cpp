// Ablation — the two near-far defenses of §3.2.3:
//   (a) coarse-grained power-aware cyclic-shift assignment, and
//   (b) fine-grained self-aware power adjustment,
// each toggled independently on the same 128-device office deployment.
//
// The four toggle combinations are the 2x2 product of two sweep axes
// over specs/office-256.spec, run on the spec sweep engine.
#include <iostream>

#include "netscatter/util/table.hpp"
#include "bench_report.hpp"
#include "paper_sweep.hpp"

int main() {
    const bench::stopwatch clock;

    ns::util::text_table table(
        "Ablation: near-far defenses (128 devices)",
        {"power-aware allocation", "power adaptation", "delivery rate", "BER"});

    const auto cells = ns::spec::expand_sweep(
        bench::office_spec({{"geometry.num_devices", "128"},
                            {"sim.rounds", "3"},
                            {"replicas", "1"},
                            {"sim.seed", "23"}}),
        {{"sim.power_aware_allocation", {"true", "false"}},
         {"sim.power_adaptation", {"true", "false"}}});
    const auto results = ns::spec::run_sweep(cells);

    bench::bench_report report("ablation_allocation");
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const bool aware = cells[i].spec.sim.power_aware_allocation;
        const bool adapt = cells[i].spec.sim.power_adaptation;
        const auto& result = results[i].sim;
        table.add_row({aware ? "on" : "off", adapt ? "on" : "off",
                       ns::util::format_double(result.delivery_rate(), 3),
                       ns::util::format_double(result.ber(), 4)});
        report.add_point({{"power_aware_allocation", aware ? 1.0 : 0.0},
                          {"power_adaptation", adapt ? 1.0 : 0.0},
                          {"delivery_rate", result.delivery_rate()},
                          {"ber", result.ber()}});
    }
    table.print(std::cout);
    std::cout << "\nexpected: both defenses on performs best; power-agnostic "
                 "allocation parks weak devices inside strong devices' side "
                 "lobes and loses packets (§3.2.3, Fig. 8)\n";
    report.set_scalar("wall_clock_s", clock.seconds());
    report.write();
    return 0;
}
