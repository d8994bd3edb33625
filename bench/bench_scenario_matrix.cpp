// Scenario matrix bench: every registered scenario at a reduced round
// count, one JSON point per scenario — the coarse "is every workload
// still healthy, and what does it cost" trajectory tracked across PRs
// (full per-round series come from the netscatter_sim CLI).
//
// On top of the per-scenario sweep, the matrix runs a fidelity A/B on
// the grouped 1k-device workload: the same spec under
// phy_fidelity::sample and ::symbol at equal thread count, recording
// both round throughputs and their ratio — the measured (not asserted)
// speedup of the symbol-domain fast path.
#include <cstdlib>
#include <iostream>

// The allocation hook feeds the thread-local obs counters, so the
// matrix can report steady-state allocations per round for every
// workload.
#include "apps/alloc_hook.hpp"
#include "bench_report.hpp"
#include "netscatter/obs/metrics.hpp"
#include "netscatter/scenario/scenario_registry.hpp"
#include "netscatter/scenario/scenario_runner.hpp"
#include "netscatter/util/table.hpp"

namespace {

/// Transmit-side host time of the round loop (synthesis +
/// superposition), from the round.<phase>_s histograms.
double synth_s(const ns::sim::sim_result& sim) {
    return sim.metrics.histogram_sum("round.synth_s") +
           sim.metrics.histogram_sum("round.superpose_s");
}

/// Receiver decode host time of the round loop.
double decode_s(const ns::sim::sim_result& sim) {
    return sim.metrics.histogram_sum("round.decode_s");
}

/// Rounds decoded per second of round-loop host time (synthesis +
/// decode, association and deployment construction excluded).
double rounds_per_second(const ns::scenario::scenario_result& result) {
    const double loop_s = synth_s(result.sim) + decode_s(result.sim);
    if (loop_s <= 0.0) return 0.0;
    return static_cast<double>(result.sim.rounds.size()) / loop_s;
}

/// Mean heap allocations per post-warmup round (alloc.* counters of the
/// merged metrics snapshot; 0 when no steady rounds ran).
double steady_allocs_per_round(const ns::scenario::scenario_result& result) {
    const std::uint64_t steady_rounds =
        result.sim.metrics.counter_value("alloc.steady_rounds");
    if (steady_rounds == 0) return 0.0;
    return static_cast<double>(
               result.sim.metrics.counter_value("alloc.steady_count")) /
           static_cast<double>(steady_rounds);
}

}  // namespace

int main() {
    const std::size_t rounds =
        std::getenv("NS_BENCH_SCENARIO_ROUNDS")
            ? static_cast<std::size_t>(
                  std::atoll(std::getenv("NS_BENCH_SCENARIO_ROUNDS")))
            : 6;

    bench::bench_report report("scenario_matrix");
    bench::stopwatch clock;

    ns::util::text_table table(
        "Scenario matrix (" + std::to_string(rounds) + " rounds/replica)",
        {"scenario", "devices", "groups", "delivery", "skip", "idle", "joins",
         "synth [ms/rd]", "decode [ms/rd]", "wall [s]"});

    for (auto spec : ns::scenario::registry()) {
        spec.sim.rounds = rounds;
        const auto result = ns::scenario::run_scenario(spec);
        const double n_rounds =
            std::max<double>(1.0, static_cast<double>(result.sim.rounds.size()));
        table.add_row({spec.name, std::to_string(spec.geometry.num_devices),
                       result.num_groups == 0 ? "-" : std::to_string(result.num_groups),
                       ns::util::format_double(100.0 * result.sim.delivery_rate(), 1) + " %",
                       ns::util::format_double(100.0 * result.sim.skip_rate(), 1) + " %",
                       ns::util::format_double(100.0 * result.sim.idle_rate(), 1) + " %",
                       std::to_string(result.sim.total_joins),
                       ns::util::format_double(synth_s(result.sim) * 1e3 / n_rounds, 2),
                       ns::util::format_double(decode_s(result.sim) * 1e3 / n_rounds, 2),
                       ns::util::format_double(result.wall_clock_s, 2)});
        report.add_point(
            {{"scenario", spec.name},
             {"num_devices", static_cast<double>(spec.geometry.num_devices)},
             {"num_groups", static_cast<double>(result.num_groups)},
             {"delivery_rate", result.sim.delivery_rate()},
             {"throughput_bps", result.throughput_bps()},
             {"skip_rate", result.sim.skip_rate()},
             {"idle_rate", result.sim.idle_rate()},
             {"joins", static_cast<double>(result.sim.total_joins)},
             {"leaves", static_cast<double>(result.sim.total_leaves)},
             {"realloc_events", static_cast<double>(result.sim.total_realloc_events)},
             {"regroups", static_cast<double>(result.sim.total_regroups)},
             {"control_overhead_s", result.control_overhead_s},
             {"association_collisions",
              static_cast<double>(result.stats.association_collisions)},
             {"mean_reassoc_latency_rounds", result.stats.mean_join_latency_rounds()},
             {"cross_tx", static_cast<double>(result.sim.total_cross_tx)},
             {"cross_collisions",
              static_cast<double>(result.sim.total_cross_collisions)},
             {"fast_path_rounds", static_cast<double>(result.sim.fast_path_rounds)},
             {"steady_allocs_per_round", steady_allocs_per_round(result)},
             {"synth_ms_per_round", synth_s(result.sim) * 1e3 / n_rounds},
             {"decode_ms_per_round", decode_s(result.sim) * 1e3 / n_rounds},
             {"wall_clock_s", result.wall_clock_s}});
    }

    table.print(std::cout);

    // --- Fidelity A/B: warehouse-1k-grouped, sample vs symbol ----------
    // Equal thread count (the scenario runner's default policy for both
    // runs); round throughput counts only the round loop, so the shared
    // association/deployment setup does not dilute the comparison.
    {
        auto spec = *ns::scenario::find_scenario("warehouse-1k-grouped");
        spec.sim.rounds = std::max<std::size_t>(rounds, 12);
        spec.sim.fidelity = ns::sim::phy_fidelity::sample;
        const auto sample = ns::scenario::run_scenario(spec);
        spec.sim.fidelity = ns::sim::phy_fidelity::symbol;
        const auto symbol = ns::scenario::run_scenario(spec);
        const double sample_rps = rounds_per_second(sample);
        const double symbol_rps = rounds_per_second(symbol);
        const double speedup = sample_rps > 0.0 ? symbol_rps / sample_rps : 0.0;
        std::cout << "\nwarehouse-1k-grouped round throughput: sample "
                  << ns::util::format_double(sample_rps, 1) << " rounds/s, symbol "
                  << ns::util::format_double(symbol_rps, 1) << " rounds/s ("
                  << ns::util::format_double(speedup, 1) << "x)\n";
        report.set_scalar("warehouse_1k_sample_rounds_per_s", sample_rps);
        report.set_scalar("warehouse_1k_symbol_rounds_per_s", symbol_rps);
        report.set_scalar("warehouse_1k_fast_path_speedup", speedup);
        report.set_scalar("warehouse_1k_sample_delivery", sample.sim.delivery_rate());
        report.set_scalar("warehouse_1k_symbol_delivery", symbol.sim.delivery_rate());
    }

    // --- field-100k: full single replica, intra-round fan-out ----------
    // The flagship scale point at its real spec (not the reduced matrix
    // round count): one replica of 100k devices at SF12, symbol blocks
    // fanned across 8 intra-round threads. replica_wall_s is the
    // CI-gated wall-clock budget of ROADMAP item 1 ("a full field-100k
    // replica well under 100 ms").
    {
        auto spec = *ns::scenario::find_scenario("field-100k");
        spec.sim.intra_round_threads = 8;
        const auto result = ns::scenario::run_scenario(spec);
        const double replica_wall_s =
            result.sim.metrics.histogram_sum("replica.wall_s");
        std::cout << "\nfield-100k full replica (" << spec.sim.rounds
                  << " rounds, 8 intra-round threads): "
                  << ns::util::format_double(replica_wall_s * 1e3, 1)
                  << " ms\n";
        report.add_point(
            {{"scenario", "field-100k-full-replica"},
             {"num_devices", static_cast<double>(spec.geometry.num_devices)},
             {"delivery_rate", result.sim.delivery_rate()},
             {"fast_path_rounds",
              static_cast<double>(result.sim.fast_path_rounds)},
             {"steady_allocs_per_round", steady_allocs_per_round(result)},
             {"replica_wall_s", replica_wall_s}});
        report.set_scalar("field_100k_replica_wall_s", replica_wall_s);
    }

    report.set_scalar("rounds_per_replica", static_cast<double>(rounds));
    report.set_scalar("wall_clock_s", clock.seconds());
    report.write();
    return 0;
}
