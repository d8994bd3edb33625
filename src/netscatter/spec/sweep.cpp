#include "netscatter/spec/sweep.hpp"

#include <charconv>
#include <cstdint>
#include <utility>

#include "netscatter/engine/mc_runner.hpp"
#include "netscatter/spec/spec_codec.hpp"

namespace ns::spec {

namespace {

/// Hard cap on the product size: a typo like `0..100000` should fail
/// loudly, not allocate a hundred thousand specs.
constexpr std::size_t max_cells = 100000;

std::int64_t parse_range_int(const std::string& token,
                             const std::string& context) {
    std::int64_t v{};
    const char* const end = token.data() + token.size();
    const auto [p, ec] = std::from_chars(token.data(), end, v);
    if (ec != std::errc{} || p != end) {
        spec_fail(context, 0,
                  "range bounds must be integers, got '" + token + "'");
    }
    return v;
}

/// Expands one value token: `lo..hi` / `lo..hi..step` become the
/// inclusive integer sequence, anything else passes through verbatim.
void expand_value(const std::string& token, const std::string& context,
                  std::vector<std::string>& out) {
    const std::size_t dots = token.find("..");
    if (dots == std::string::npos) {
        out.push_back(token);
        return;
    }
    const std::string lo_text = token.substr(0, dots);
    std::string hi_text = token.substr(dots + 2);
    std::int64_t step = 1;
    if (const std::size_t more = hi_text.find(".."); more != std::string::npos) {
        step = parse_range_int(hi_text.substr(more + 2), context);
        hi_text = hi_text.substr(0, more);
    }
    const std::int64_t lo = parse_range_int(lo_text, context);
    const std::int64_t hi = parse_range_int(hi_text, context);
    if (step <= 0) {
        spec_fail(context, 0, "range step must be positive in '" + token + "'");
    }
    if (hi < lo) {
        spec_fail(context, 0,
                  "range '" + token + "' is empty (hi < lo)");
    }
    for (std::int64_t v = lo; v <= hi; v += step) {
        out.push_back(std::to_string(v));
        if (out.size() > max_cells) {
            spec_fail(context, 0, "range '" + token + "' expands to more than " +
                                      std::to_string(max_cells) + " values");
        }
    }
}

}  // namespace

sweep_axis parse_sweep_axis(const std::string& text) {
    const std::string context = "--vary " + text;
    const std::size_t eq = text.find('=');
    if (eq == std::string::npos || eq == 0) {
        spec_fail(context, 0, "expected 'key=value[,value...]'");
    }
    sweep_axis axis;
    axis.key = text.substr(0, eq);
    bool known = false;
    for (const field_info& info : spec_schema()) {
        if (info.key == axis.key) {
            known = true;
            break;
        }
    }
    if (!known) spec_fail(context, 0, "unknown key '" + axis.key + "'");

    std::size_t start = eq + 1;
    while (start <= text.size()) {
        const std::size_t comma = text.find(',', start);
        const std::string token =
            text.substr(start, comma == std::string::npos ? std::string::npos
                                                          : comma - start);
        if (token.empty()) spec_fail(context, 0, "empty value in list");
        expand_value(token, context, axis.values);
        if (comma == std::string::npos) break;
        start = comma + 1;
    }
    if (axis.values.empty()) spec_fail(context, 0, "empty value list");
    return axis;
}

std::vector<sweep_cell> expand_sweep(const scenario::scenario_spec& base,
                                     const std::vector<sweep_axis>& axes) {
    std::size_t total = 1;
    for (const sweep_axis& axis : axes) {
        if (axis.values.empty()) {
            spec_fail("sweep", 0, "axis '" + axis.key + "' has no values");
        }
        if (total > max_cells / axis.values.size()) {
            spec_fail("sweep", 0, "product exceeds " +
                                      std::to_string(max_cells) + " cells");
        }
        total *= axis.values.size();
    }

    std::vector<sweep_cell> cells;
    cells.reserve(total);
    for (std::size_t i = 0; i < total; ++i) {
        sweep_cell cell;
        cell.index = i;
        cell.spec = base;
        // Row-major decomposition: the LAST axis varies fastest, so the
        // product reads like nested loops in --vary order.
        std::size_t remainder = i;
        std::vector<std::size_t> pos(axes.size(), 0);
        for (std::size_t a = axes.size(); a-- > 0;) {
            pos[a] = remainder % axes[a].values.size();
            remainder /= axes[a].values.size();
        }
        const std::string context = "cell " + std::to_string(i);
        for (std::size_t a = 0; a < axes.size(); ++a) {
            const std::string& value = axes[a].values[pos[a]];
            apply_spec_override(cell.spec, axes[a].key, value, context);
            cell.assignment.emplace_back(axes[a].key, value);
            if (!cell.label.empty()) cell.label += " ";
            cell.label += axes[a].key + "=" + value;
        }
        validate_spec(cell.spec, context);
        cells.push_back(std::move(cell));
    }
    return cells;
}

std::vector<scenario::scenario_result> run_sweep(
    const std::vector<sweep_cell>& cells, scenario::run_options options) {
    // Flatten every (cell, replica) pair into one task list so the
    // whole product saturates a single deterministic pool: replicas of
    // different cells interleave, results still merge per cell in
    // replica order.
    struct task_ref {
        std::size_t cell;
        std::size_t replica;
    };
    std::vector<task_ref> tasks;
    for (const sweep_cell& cell : cells) {
        for (std::size_t r = 0; r < cell.spec.replicas; ++r) {
            tasks.push_back({cell.index, r});
        }
    }

    const ns::engine::mc_runner runner(
        {.num_threads = options.num_threads, .parallel = options.parallel});
    std::vector<scenario::replica_result> outcomes =
        runner.run_indexed(tasks.size(), [&](std::size_t i) {
            const task_ref& task = tasks[i];
            return scenario::run_scenario_replica(cells[task.cell].spec,
                                                  task.replica);
        });

    std::vector<scenario::scenario_result> results;
    results.reserve(cells.size());
    std::size_t next = 0;
    for (const sweep_cell& cell : cells) {
        std::vector<scenario::replica_result> slice(
            std::make_move_iterator(outcomes.begin() +
                                    static_cast<std::ptrdiff_t>(next)),
            std::make_move_iterator(outcomes.begin() + static_cast<std::ptrdiff_t>(
                                                           next +
                                                           cell.spec.replicas)));
        next += cell.spec.replicas;
        auto result =
            scenario::merge_scenario_replicas(cell.spec, std::move(slice), 0.0);
        // Per-cell elapsed time is meaningless on a shared pool; report
        // the cell's summed replica wall time instead (timing-named, so
        // determinism comparisons already exclude it).
        result.wall_clock_s = result.sim.metrics.histogram_sum("replica.wall_s");
        results.push_back(std::move(result));
    }
    return results;
}

}  // namespace ns::spec
