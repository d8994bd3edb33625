// perfbench_runner — times one benchmark workload end to end through the
// library's public calls, layer by layer, and checks its outputs.
//
// One pass is what netscatter_sim does for one scenario, decomposed so
// each public call is timed from outside:
//
//   spec load -> mc_runner::run_indexed (serial, 1 thread) over replicas:
//     resolve_geometry + sim::deployment -> scenario_driver ->
//     network_simulator ctor -> run()
//   -> merge_scenario_replicas -> write_scenario_json
//
// Closed loop, one caller: passes run back to back on one thread until
// --seconds have elapsed; every figure is the median over passes.
// With --trace 1 the runner alternates untraced and traced passes. A
// traced pass records a span per call (name, start, end, parent, one
// track per replica) plus the allocations made inside it, keeps the
// spans in memory and writes them as a Chrome trace at the end.
//
// Before timing, a correctness gate (untimed) checks that the timed
// decomposition gives the same replica as run_scenario_replica, bit
// for bit once timing-named entries are stripped. Every pass is checked
// for invariants and for identical simulated statistics.
//
// The last stdout line is "RESULT {json}" with raw values by metric
// name; run.py turns it into the benchmark's report.
//
// Usage:
//   perfbench_runner --spec FILE --seed N --seconds S --trace 0|1 --out DIR
//   perfbench_runner --self-test --spec FILE --out DIR
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "apps/scenario_report.hpp"
#include "netscatter/engine/fft_plan.hpp"
#include "netscatter/engine/mc_runner.hpp"
#include "netscatter/obs/metrics.hpp"
#include "netscatter/obs/trace.hpp"
#include "netscatter/scenario/scenario_driver.hpp"
#include "netscatter/scenario/scenario_runner.hpp"
#include "netscatter/scenario/scenario_spec.hpp"
#include "netscatter/sim/deployment.hpp"
#include "netscatter/sim/network_sim.hpp"
#include "netscatter/spec/spec_codec.hpp"

// ---------------------------------------------------------------------
// Binary-local allocation hook, in the style of apps/alloc_hook.hpp:
// every operator new in this binary feeds the library's thread-local
// tally (which keeps the simulator's own alloc.* counters working), and
// the span recorder reads that tally at each span boundary to meter the
// allocations of each setup call.
// ---------------------------------------------------------------------
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
    ns::obs::record_allocation(size);
    if (void* ptr = std::malloc(size == 0 ? 1 : size)) return ptr;
    throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace {

namespace fs = std::filesystem;
using ns::scenario::scenario_result;
using ns::scenario::scenario_spec;

// ------------------------------------------------------------------ spans

/// One recorded call. `track` 0 is the pass level, r + 1 is replica r.
/// Allocations are not kept per span: the interval a span's end()
/// returns carries them to the per-layer figures.
struct span {
    const char* name = "";
    int parent = -1;
    std::uint32_t track = 0;
    std::uint32_t pass = 0;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;

    std::uint64_t duration_ns() const { return end_ns - start_ns; }
};

/// Time and allocations of one closed span.
struct interval {
    double seconds = 0.0;
    std::uint64_t allocs = 0;
    std::uint64_t bytes = 0;
};

/// Times every call it brackets; keeps the span tree only when tracing.
/// Untraced, a span costs two clock reads and two allocation-tally
/// reads, which is what the end-to-end figures need anyway.
class span_recorder {
public:
    explicit span_recorder(bool tracing) : tracing_(tracing) {
        stack_.reserve(16);
    }

    struct open_span {
        std::uint64_t start_ns = 0;
        ns::obs::alloc_counters allocs{};
        int id = -1;
    };

    const std::vector<span>& spans() const { return spans_; }

    /// Called outside any span so the span vector never grows (and
    /// allocates) inside a measured call.
    void start_pass(std::uint32_t pass, std::size_t max_spans) {
        pass_ = pass;
        if (tracing_) spans_.reserve(spans_.size() + max_spans);
    }

    open_span begin(const char* name, std::uint32_t track) {
        open_span s;
        if (tracing_) {
            s.id = static_cast<int>(spans_.size());
            spans_.push_back({name, stack_.empty() ? -1 : stack_.back(), track,
                              pass_, 0, 0});
            stack_.push_back(s.id);
        }
        s.allocs = ns::obs::thread_allocations();
        s.start_ns = ns::obs::now_ns();
        return s;
    }

    interval end(const open_span& s) {
        const std::uint64_t end_ns = ns::obs::now_ns();
        const ns::obs::alloc_counters allocs = ns::obs::thread_allocations();
        const interval out{static_cast<double>(end_ns - s.start_ns) * 1e-9,
                           allocs.count - s.allocs.count,
                           allocs.bytes - s.allocs.bytes};
        if (s.id >= 0) {
            span& rec = spans_[static_cast<std::size_t>(s.id)];
            rec.start_ns = s.start_ns;
            rec.end_ns = end_ns;
            stack_.pop_back();
        }
        return out;
    }

private:
    bool tracing_ = false;
    std::uint32_t pass_ = 0;
    std::vector<span> spans_;
    std::vector<int> stack_;
};

/// Self time of every span: its duration minus its children's. Returns
/// the problems found — a child outside its parent's interval, or
/// children that overlap, which would make a residual meaningless.
struct span_account {
    std::vector<std::uint64_t> children_ns;
    std::vector<std::int64_t> residual_ns;
    std::vector<std::string> problems;
};

span_account account_spans(const std::vector<span>& spans) {
    span_account acc;
    acc.children_ns.assign(spans.size(), 0);
    acc.residual_ns.assign(spans.size(), 0);
    std::vector<std::uint64_t> last_child_end(spans.size(), 0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const span& s = spans[i];
        if (s.end_ns < s.start_ns) {
            acc.problems.push_back(std::string(s.name) + ": ends before it starts");
            continue;
        }
        if (s.parent < 0) continue;
        const auto p = static_cast<std::size_t>(s.parent);
        const span& parent = spans[p];
        if (s.start_ns < parent.start_ns || s.end_ns > parent.end_ns) {
            acc.problems.push_back(std::string(s.name) + " lies outside its parent " +
                                   parent.name);
        }
        if (s.start_ns < last_child_end[p]) {
            acc.problems.push_back(std::string(s.name) +
                                   " overlaps an earlier child of " + parent.name);
        }
        last_child_end[p] = std::max(last_child_end[p], s.end_ns);
        acc.children_ns[p] += s.duration_ns();
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
        acc.residual_ns[i] = static_cast<std::int64_t>(spans[i].duration_ns()) -
                             static_cast<std::int64_t>(acc.children_ns[i]);
        if (acc.residual_ns[i] < 0) {
            acc.problems.push_back(std::string(spans[i].name) +
                                   ": children exceed the parent");
        }
    }
    return acc;
}

/// Spans as Chrome trace events (one track per replica, the pass index
/// as the event argument), written with the library's exporter.
bool write_spans(const std::vector<span>& spans, const fs::path& path) {
    std::vector<ns::obs::trace_event> events;
    events.reserve(spans.size());
    const std::uint64_t origin = spans.empty() ? 0 : spans.front().start_ns;
    for (const span& s : spans) {
        events.push_back({s.name, s.start_ns - origin, s.duration_ns(), s.track,
                          static_cast<std::int64_t>(s.pass)});
    }
    return ns::obs::write_chrome_trace(events, path.string());
}

// ------------------------------------------------------------------ passes

struct replica_times {
    interval deployment;
    interval driver;
    interval construct;
    interval run;
    interval replica;
};

struct pass_record {
    double wall_s = 0.0;
    double spec_load_s = 0.0;
    double engine_s = 0.0;
    double merge_s = 0.0;
    double report_write_s = 0.0;
    std::uintmax_t report_bytes = 0;
    std::vector<replica_times> replicas;
    ns::engine::fft_plan_cache::cache_stats fft{};
    std::size_t num_devices = 0;
    scenario_result result;
};

/// The workload's spec with the run seed derived from its base seed and
/// the benchmark's --seed.
scenario_spec load_workload(const std::string& path, std::uint64_t seed) {
    scenario_spec spec = ns::spec::load_spec_file(path);
    spec.sim.seed = ns::engine::split_seed(spec.sim.seed, 0xbe7c, seed);
    spec.sim.validate();
    spec.faults.validate();
    return spec;
}

/// Replica r of `spec`, call for call what run_scenario_replica does,
/// with each call timed. The replica span also covers the teardown.
ns::scenario::replica_result run_replica(const scenario_spec& spec, std::size_t r,
                                         span_recorder& rec, replica_times& times) {
    const auto track = static_cast<std::uint32_t>(r + 1);
    const auto replica_span = rec.begin("replica", track);
    ns::scenario::replica_result out;
    {
        auto s = rec.begin("sim.deployment", track);
        const ns::sim::deployment_params dep_params =
            ns::scenario::resolve_geometry(spec.geometry);
        const ns::sim::deployment dep(dep_params, spec.geometry.num_devices,
                                      spec.sim.seed);
        times.deployment = rec.end(s);

        s = rec.begin("scenario.driver_build", track);
        ns::scenario::scenario_driver driver(
            spec, dep, ns::engine::split_seed(spec.sim.seed, 0xd21f, r));
        times.driver = rec.end(s);

        s = rec.begin("sim.construct", track);
        ns::sim::sim_config config = spec.sim;
        config.seed = ns::engine::split_seed(spec.sim.seed, 0x51a1, r);
        if (spec.faults.enabled()) config.faults = spec.faults;
        config.obs.trace_track = static_cast<std::uint32_t>(r);
        ns::sim::network_simulator sim(dep, config, &driver);
        times.construct = rec.end(s);

        s = rec.begin("sim.run", track);
        out.sim = sim.run();
        times.run = rec.end(s);
        out.stats = driver.stats();
        if (config.obs.metrics) {
            out.sim.metrics.record_value("replica.wall_s", times.run.seconds);
        }
    }
    times.replica = rec.end(replica_span);
    return out;
}

/// One full pass: spec load to report written.
pass_record run_pass(const std::string& spec_path, std::uint64_t seed,
                     const fs::path& report_path, span_recorder& rec,
                     std::uint32_t pass_index) {
    pass_record p;
    // Room for the spans of a pass of up to 11 replicas (5 + 5 per
    // replica), so the span vector does not grow inside a timed call.
    rec.start_pass(pass_index, 64);
    const ns::engine::fft_plan_cache::cache_stats fft0 =
        ns::engine::fft_plan_cache::stats();
    const auto pass_span = rec.begin("pass", 0);

    auto s = rec.begin("spec.load", 0);
    const scenario_spec spec = load_workload(spec_path, seed);
    p.spec_load_s = rec.end(s).seconds;
    p.replicas.resize(spec.replicas);

    s = rec.begin("engine.run_indexed", 0);
    const ns::engine::mc_runner runner(
        {.rounds_per_task = 0, .num_threads = 1, .parallel = false});
    std::vector<ns::scenario::replica_result> replicas =
        runner.run_indexed(spec.replicas, [&](std::size_t r) {
            return run_replica(spec, r, rec, p.replicas[r]);
        });
    p.engine_s = rec.end(s).seconds;

    s = rec.begin("scenario.merge", 0);
    p.result =
        ns::scenario::merge_scenario_replicas(spec, std::move(replicas), p.engine_s);
    p.merge_s = rec.end(s).seconds;

    s = rec.begin("report.write", 0);
    ns::apps::write_scenario_json(p.result, report_path.string(), false);
    p.report_write_s = rec.end(s).seconds;

    p.wall_s = rec.end(pass_span).seconds;

    const ns::engine::fft_plan_cache::cache_stats fft1 =
        ns::engine::fft_plan_cache::stats();
    p.fft = {fft1.hits - fft0.hits, fft1.misses - fft0.misses,
             fft1.memo_hits - fft0.memo_hits,
             fft1.scratch_requests - fft0.scratch_requests};
    p.report_bytes = fs::file_size(report_path);
    p.num_devices = spec.geometry.num_devices;
    return p;
}

// ---------------------------------------------------------------- metrics

using metric_row = std::map<std::string, double>;

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double tx_packets(const scenario_result& result) {
    return static_cast<double>(result.sim.metrics.counter_value("sim.tx_packets"));
}

metric_row e2e_row(const pass_record& p) {
    double setup = p.spec_load_s;
    double run = 0.0;
    for (const replica_times& t : p.replicas) {
        setup += t.deployment.seconds + t.driver.seconds + t.construct.seconds;
        run += t.run.seconds;
    }
    return {{"wall_s", p.wall_s},
            {"setup_s", setup},
            {"packets_per_s", ratio(tx_packets(p.result), run)},
            {"delivery_rate", p.result.sim.delivery_rate()},
            {"goodput_kbps", p.result.throughput_bps() / 1e3},
            {"sim.tx_packets", tx_packets(p.result)}};
}

/// Per-layer figures of one traced pass: the benchmark's own span
/// timings plus the sums and counts the library returns in
/// sim_result::metrics (never its percentiles).
metric_row layer_row(const pass_record& p) {
    const ns::obs::metrics_snapshot& m = p.result.sim.metrics;
    const auto sum = [&](const char* name) { return m.histogram_sum(name); };
    const auto count = [&](const char* name) {
        return static_cast<double>(m.counter_value(name));
    };
    metric_row row;
    double deployment = 0, driver = 0, construct = 0, run = 0, replica = 0;
    double deployment_allocs = 0, driver_allocs = 0, construct_allocs = 0,
           construct_bytes = 0;
    for (const replica_times& t : p.replicas) {
        deployment += t.deployment.seconds;
        driver += t.driver.seconds;
        construct += t.construct.seconds;
        run += t.run.seconds;
        replica += t.replica.seconds;
        deployment_allocs += static_cast<double>(t.deployment.allocs);
        driver_allocs += static_cast<double>(t.driver.allocs);
        construct_allocs += static_cast<double>(t.construct.allocs);
        construct_bytes += static_cast<double>(t.construct.bytes);
    }
    const double devices =
        static_cast<double>(p.num_devices) * static_cast<double>(p.replicas.size());

    row["spec.load_s"] = p.spec_load_s;
    row["sim.deployment_s"] = deployment;
    row["sim.deployment_allocs"] = deployment_allocs;
    row["scenario.driver_build_s"] = driver;
    row["scenario.driver_allocs"] = driver_allocs;
    row["scenario.merge_s"] = p.merge_s;
    row["sim.construct_s"] = construct;
    row["sim.construct_allocs"] = construct_allocs;
    row["sim.construct_bytes"] = construct_bytes;
    row["sim.construct_allocs_per_device"] = ratio(construct_allocs, devices);
    row["sim.devices"] = devices;

    row["sim.run_s"] = run;
    const char* phases[] = {"round.plan_s", "round.grouping_s", "round.synth_s",
                            "round.superpose_s", "round.decode_s"};
    double phase_sum = 0.0;
    for (const char* phase : phases) {
        row[phase] = sum(phase);
        phase_sum += row[phase];
    }
    row["round.residual_s"] = run - phase_sum;
    row["sim.tx_packets"] = tx_packets(p.result);
    row["sim.rounds"] = count("sim.rounds");
    row["sim.fast_path_rounds"] = count("sim.fast_path_rounds");
    row["sim.fast_path_share"] = ratio(row["sim.fast_path_rounds"], row["sim.rounds"]);
    row["alloc.steady_count"] = count("alloc.steady_count");
    row["alloc.steady_rounds"] = count("alloc.steady_rounds");
    row["alloc.steady_per_round"] =
        ratio(row["alloc.steady_count"], row["alloc.steady_rounds"]);

    row["mac.realloc_events"] = static_cast<double>(p.result.sim.total_realloc_events);
    row["mac.full_reassignments"] =
        static_cast<double>(p.result.sim.total_full_reassignments);
    row["mac.association_tx"] = static_cast<double>(p.result.stats.association_tx);
    row["mac.association_collisions"] =
        static_cast<double>(p.result.stats.association_collisions);
    row["mac.association_collision_ratio"] =
        ratio(row["mac.association_collisions"], row["mac.association_tx"]);

    row["phy.kernel_plan_s"] = sum("phy.kernel_plan_s");
    row["phy.kernel_sum_s"] = sum("phy.kernel_sum_s");
    row["superpose.residual_s"] = row["round.superpose_s"] -
                                  row["phy.kernel_plan_s"] - row["phy.kernel_sum_s"];
    row["phy.kernels_summed"] = count("phy.kernels_summed");
    row["phy.kernel_window_elems"] = count("phy.kernel_window_elems");
    row["phy.noise_symbols"] = count("phy.noise_symbols");
    row["channel.ns_per_kernel"] =
        ratio(row["phy.kernel_sum_s"] * 1e9, row["phy.kernels_summed"]);

    row["rx.symbols_processed"] = count("rx.symbols_processed");
    row["rx.us_per_symbol"] =
        ratio(row["round.decode_s"] * 1e6, row["rx.symbols_processed"]);
    row["rx.crc_ok"] = count("rx.crc_ok");
    row["rx.detected"] = count("rx.detected");
    row["rx.crc_ok_ratio"] = ratio(row["rx.crc_ok"], row["rx.detected"]);

    row["fft_cache.hits"] = static_cast<double>(p.fft.hits);
    row["fft_cache.misses"] = static_cast<double>(p.fft.misses);
    row["fft_cache.memo_hits"] = static_cast<double>(p.fft.memo_hits);

    row["engine.span_s"] = p.engine_s;
    row["engine.overhead_s"] = p.engine_s - replica;
    row["replica.span_s"] = replica;
    row["replica.residual_s"] = replica - deployment - driver - construct - run;
    row["report.write_s"] = p.report_write_s;
    row["report.bytes"] = static_cast<double>(p.report_bytes);
    row["pass.span_s"] = p.wall_s;
    row["pass.residual_s"] =
        p.wall_s - p.spec_load_s - p.engine_s - p.merge_s - p.report_write_s;
    return row;
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Median of every metric over the rows.
metric_row median_row(const std::vector<metric_row>& rows) {
    metric_row out;
    if (rows.empty()) return out;
    for (const auto& [name, value] : rows.front()) {
        (void)value;
        std::vector<double> values;
        values.reserve(rows.size());
        for (const metric_row& row : rows) values.push_back(row.at(name));
        out[name] = median(std::move(values));
    }
    return out;
}

/// Every pass's figures, one CSV row per pass, for looking past the
/// medians (drift, outliers) after a run.
void write_pass_rows(const std::vector<metric_row>& rows, const fs::path& path) {
    std::ofstream out(path);
    if (rows.empty()) return;
    const char* sep = "";
    for (const auto& [name, value] : rows.front()) {
        (void)value;
        out << sep << name;
        sep = ",";
    }
    out << '\n';
    out.precision(17);
    for (const metric_row& row : rows) {
        sep = "";
        for (const auto& [name, value] : row) {
            (void)name;
            out << sep << value;
            sep = ",";
        }
        out << '\n';
    }
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ------------------------------------------------------------ correctness

std::string read_file(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::uint64_t fnv1a(const std::string& bytes) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/// The stripped scenario report of a result: what --strip-wallclock
/// writes, i.e. with every timing-named entry removed.
std::string stripped_report(const scenario_result& result, const fs::path& dir) {
    const fs::path path = dir / "stripped_report.json";
    ns::apps::write_scenario_json(result, path.string(), true);
    return read_file(path);
}

/// Everything a replica produced except timing-named entries: the
/// stripped scenario report and metrics registry, plus the per-round
/// and driver fields those reports leave out.
std::string replica_fingerprint(const scenario_spec& spec,
                                const ns::scenario::replica_result& replica,
                                const fs::path& dir) {
    const scenario_result merged =
        ns::scenario::merge_scenario_replicas(spec, {replica}, 0.0);
    std::ostringstream out;
    out << stripped_report(merged, dir);
    const fs::path metrics_path = dir / "stripped_metrics.json";
    ns::apps::write_metrics_json(merged, metrics_path.string(), true);
    out << read_file(metrics_path);
    for (const ns::sim::round_outcome& r : replica.sim.rounds) {
        out << r.detected << ' ' << r.bit_errors << ' ' << r.bits_sent << ' '
            << r.rejected_joins << ' ' << r.reassociations << ' '
            << r.full_reassignments << ' ' << r.ack_timeouts << ' '
            << r.orphan_collisions << ' ' << r.cross_collided_delivered << '\n';
    }
    const ns::sim::sim_result& s = replica.sim;
    out << s.total_detected << ' ' << s.total_bit_errors << ' ' << s.total_bits << ' '
        << s.total_active_rounds << ' ' << s.fast_path_rounds << '\n';
    out.precision(17);
    for (const double w : replica.stats.join_waits) out << w << ' ';
    out << '\n' << replica.stats.offered << ' ' << replica.stats.gated << '\n';
    return out.str();
}

/// Invariants every pass result must satisfy; returns the violations.
std::vector<std::string> check_invariants(const scenario_result& result) {
    std::vector<std::string> errors;
    const scenario_spec& spec = result.spec;
    const ns::sim::sim_result& sim = result.sim;
    const std::size_t rounds = spec.sim.rounds * spec.replicas;
    if (sim.rounds.size() != rounds) {
        errors.push_back("rounds " + std::to_string(sim.rounds.size()) +
                         " != spec rounds x replicas " + std::to_string(rounds));
    }
    if (ns::obs::compiled_in() && sim.metrics.counter_value("sim.rounds") != rounds) {
        errors.push_back("sim.rounds counter != spec rounds x replicas");
    }
    if (result.replicas != spec.replicas) errors.push_back("replica count mismatch");
    if (!(sim.total_delivered <= sim.total_detected &&
          sim.total_detected <= sim.total_transmitting)) {
        errors.push_back("totals violate delivered <= detected <= tx");
    }
    for (std::size_t i = 0; i < sim.rounds.size(); ++i) {
        const ns::sim::round_outcome& r = sim.rounds[i];
        if (!(r.delivered <= r.detected && r.detected <= r.transmitting)) {
            errors.push_back("round " + std::to_string(i) +
                             " violates delivered <= detected <= tx");
            break;
        }
    }
    if (!sim.groups.empty()) {
        std::size_t tx = 0, delivered = 0;
        for (const ns::sim::group_metrics& g : sim.groups) {
            tx += g.transmitting;
            delivered += g.delivered;
        }
        if (tx != sim.total_transmitting || delivered != sim.total_delivered) {
            errors.push_back("group sums differ from totals");
        }
    }
    if (tx_packets(result) <= 0.0) errors.push_back("no uplink transmissions");
    return errors;
}

// --------------------------------------------------------------- self-test

/// Children + residual = parent for every accounting identity the
/// per-layer figures of one traced pass rest on, checked against the
/// span tree (`acc` is account_spans of `spans`).
std::vector<std::string> check_accounting(const metric_row& row,
                                          const std::vector<span>& spans,
                                          const span_account& acc,
                                          std::uint32_t pass) {
    std::vector<std::string> errors;
    const auto near = [](double a, double b) {
        return std::abs(a - b) <= 1e-9 * std::max({1.0, std::abs(a), std::abs(b)});
    };
    const auto identity = [&](const char* parent, double parent_value,
                              std::vector<const char*> parts) {
        double total = 0.0;
        for (const char* part : parts) total += row.at(part);
        if (!near(total, parent_value)) {
            errors.push_back(std::string(parent) + ": children + residual != parent");
        }
    };
    identity("pass", row.at("pass.span_s"),
             {"spec.load_s", "engine.span_s", "scenario.merge_s", "report.write_s",
              "pass.residual_s"});
    identity("engine", row.at("engine.span_s"),
             {"replica.span_s", "engine.overhead_s"});
    identity("replica", row.at("replica.span_s"),
             {"sim.deployment_s", "scenario.driver_build_s", "sim.construct_s",
              "sim.run_s", "replica.residual_s"});
    identity("sim.run", row.at("sim.run_s"),
             {"round.plan_s", "round.grouping_s", "round.synth_s",
              "round.superpose_s", "round.decode_s", "round.residual_s"});
    identity("round.superpose", row.at("round.superpose_s"),
             {"phy.kernel_plan_s", "phy.kernel_sum_s", "superpose.residual_s"});
    // Phase timers run inside their parent, so no residual may be
    // negative.
    for (const char* residual :
         {"round.residual_s", "superpose.residual_s", "replica.residual_s",
          "engine.overhead_s", "pass.residual_s"}) {
        if (row.at(residual) < 0.0) {
            errors.push_back(std::string(residual) + " is negative");
        }
    }

    // The row's figures must be what the span tree of this pass says.
    std::map<std::string, double> by_name;
    double pass_residual = 0.0, replica_residual = 0.0, engine_residual = 0.0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const span& s = spans[i];
        if (s.pass != pass) continue;
        by_name[s.name] += static_cast<double>(s.duration_ns()) * 1e-9;
        const double residual = static_cast<double>(acc.residual_ns[i]) * 1e-9;
        const std::string name = s.name;
        if (name == "pass") pass_residual += residual;
        if (name == "replica") replica_residual += residual;
        if (name == "engine.run_indexed") engine_residual += residual;
    }
    const std::pair<const char*, double> expected[] = {
        {"pass.span_s", by_name["pass"]},
        {"pass.residual_s", pass_residual},
        {"replica.residual_s", replica_residual},
        {"engine.overhead_s", engine_residual},
        {"spec.load_s", by_name["spec.load"]},
        {"engine.span_s", by_name["engine.run_indexed"]},
        {"replica.span_s", by_name["replica"]},
        {"sim.deployment_s", by_name["sim.deployment"]},
        {"scenario.driver_build_s", by_name["scenario.driver_build"]},
        {"sim.construct_s", by_name["sim.construct"]},
        {"sim.run_s", by_name["sim.run"]},
        {"scenario.merge_s", by_name["scenario.merge"]},
        {"report.write_s", by_name["report.write"]},
    };
    for (const auto& [name, value] : expected) {
        // Span durations are whole nanoseconds; allow rounding per span.
        if (std::abs(row.at(name) - value) > 1e-9 * 64) {
            errors.push_back(std::string(name) + " disagrees with the span tree");
        }
    }
    return errors;
}

/// Accounting on a hand-built tree with known answers: a correct tree
/// gives the expected residuals, and a broken one is reported.
std::vector<std::string> synthetic_accounting_test() {
    std::vector<std::string> errors;
    // root [0,100] -> a [10,40] -> a1 [15,25]; root -> b [50,90]
    std::vector<span> good = {{"root", -1, 0, 0, 0, 100},
                              {"a", 0, 0, 0, 10, 40},
                              {"a1", 1, 0, 0, 15, 25},
                              {"b", 0, 0, 0, 50, 90}};
    const span_account acc = account_spans(good);
    const std::int64_t want[] = {30, 20, 10, 40};
    for (std::size_t i = 0; i < good.size(); ++i) {
        if (acc.residual_ns[i] != want[i]) {
            errors.push_back(std::string("synthetic residual of ") + good[i].name);
        }
        if (acc.children_ns[i] + static_cast<std::uint64_t>(acc.residual_ns[i]) !=
            good[i].duration_ns()) {
            errors.push_back(std::string("synthetic children + residual of ") +
                             good[i].name);
        }
    }
    if (!acc.problems.empty()) errors.push_back("synthetic good tree flagged");
    std::vector<span> overlapping = good;
    overlapping[3].start_ns = 30;  // b now overlaps a
    if (account_spans(overlapping).problems.empty()) {
        errors.push_back("overlapping children not flagged");
    }
    std::vector<span> escaping = good;
    escaping[2].end_ns = 45;  // a1 ends after a
    if (account_spans(escaping).problems.empty()) {
        errors.push_back("child outside its parent not flagged");
    }
    return errors;
}

// -------------------------------------------------------------------- main

struct options {
    std::string spec_path;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool self_test = false;
    fs::path out_dir = ".";
};

bool parse_args(int argc, char** argv, options& opt) {
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--spec") opt.spec_path = value();
        else if (arg == "--seed") opt.seed = std::stoull(value());
        else if (arg == "--seconds") opt.seconds = std::stod(value());
        else if (arg == "--trace") opt.trace = value() == "1";
        else if (arg == "--out") opt.out_dir = value();
        else if (arg == "--self-test") opt.self_test = true;
        else throw std::invalid_argument("unknown argument " + arg);
    }
    return !opt.spec_path.empty();
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const metric_row& values) {
    std::printf("RESULT {\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"values\": {",
                correct ? "true" : "false", attempted, failed);
    bool first = true;
    for (const auto& [name, value] : values) {
        std::printf("%s\"%s\": %.17g", first ? "" : ", ", name.c_str(), value);
        first = false;
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

int self_test(const options& opt) {
    std::vector<std::string> errors = synthetic_accounting_test();
    span_recorder rec(true);
    std::vector<metric_row> rows;
    for (std::uint32_t pass = 0; pass < 2; ++pass) {
        rows.push_back(layer_row(
            run_pass(opt.spec_path, opt.seed, opt.out_dir / "report.json", rec, pass)));
    }
    const span_account acc = account_spans(rec.spans());
    errors.insert(errors.end(), acc.problems.begin(), acc.problems.end());
    for (std::uint32_t pass = 0; pass < 2; ++pass) {
        for (std::string& e : check_accounting(rows[pass], rec.spans(), acc, pass)) {
            errors.push_back("pass " + std::to_string(pass) + ": " + e);
        }
    }
    for (const std::string& e : errors) std::printf("self-test FAIL: %s\n", e.c_str());
    std::printf("self-test %s (%zu spans checked)\n",
                errors.empty() ? "passed" : "FAILED", rec.spans().size());
    return errors.empty() ? 0 : 1;
}

int run_benchmark(const options& opt) {
    bool correct = true;
    std::size_t attempted = 0, failed = 0;
    const fs::path report_path = opt.out_dir / "report.json";
    const auto fail = [&](const std::string& what) {
        correct = false;
        std::printf("gate FAIL: %s\n", what.c_str());
    };

    // --- Correctness gate, untimed. A warm-up pass first, so lazily
    // built caches are not charged to the replicas compared below.
    span_recorder untraced(false);
    span_recorder traced(true);
    const pass_record warm = run_pass(opt.spec_path, opt.seed, report_path, untraced, 0);
    const scenario_spec& spec = warm.result.spec;
    attempted += spec.replicas;
    for (const std::string& e : check_invariants(warm.result)) fail("warm-up: " + e);
    {
        replica_times scratch;
        const ns::scenario::replica_result decomposed =
            run_replica(spec, 0, untraced, scratch);
        const ns::scenario::replica_result reference =
            ns::scenario::run_scenario_replica(spec, 0);
        attempted += 2;
        if (replica_fingerprint(spec, decomposed, opt.out_dir) !=
            replica_fingerprint(spec, reference, opt.out_dir)) {
            failed += 2;
            fail("timed decomposition differs from run_scenario_replica (replica 0)");
        }
    }
    const std::string digest_report = stripped_report(warm.result, opt.out_dir);
    std::printf("digest %s seed=%" PRIu64 ": %016" PRIx64 " (stripped report, %zu bytes)\n",
                spec.name.c_str(), opt.seed, fnv1a(digest_report), digest_report.size());
    const metric_row reference_row = e2e_row(warm);

    // --- Timed passes: closed loop for --seconds. With tracing, passes
    // alternate untraced / traced so both see the same conditions.
    std::vector<metric_row> e2e_rows, traced_e2e_rows, layer_rows;
    std::vector<std::uint32_t> traced_passes;
    const std::uint64_t budget_ns = static_cast<std::uint64_t>(opt.seconds * 1e9);
    const std::uint64_t start_ns = ns::obs::now_ns();
    std::uint32_t pass_index = 1;
    while (ns::obs::now_ns() - start_ns < budget_ns || e2e_rows.size() < 3 ||
           (opt.trace && layer_rows.size() < 3)) {
        const bool traced_pass = opt.trace && pass_index % 2 == 0;
        span_recorder& rec = traced_pass ? traced : untraced;
        attempted += spec.replicas;
        pass_record p;
        try {
            p = run_pass(opt.spec_path, opt.seed, report_path, rec, pass_index);
        } catch (const std::exception& e) {
            failed += spec.replicas;
            fail(std::string("pass threw: ") + e.what());
            break;
        }
        const metric_row row = e2e_row(p);
        bool pass_ok = true;
        for (const std::string& e : check_invariants(p.result)) {
            fail("pass " + std::to_string(pass_index) + ": " + e);
            pass_ok = false;
        }
        // Simulated statistics are pure functions of (spec, seed).
        for (const char* name : {"delivery_rate", "goodput_kbps"}) {
            if (row.at(name) != reference_row.at(name)) {
                fail(std::string(name) + " differs between repetitions");
                pass_ok = false;
            }
        }
        if (!pass_ok) failed += spec.replicas;
        if (traced_pass) {
            traced_e2e_rows.push_back(row);
            layer_rows.push_back(layer_row(p));
            traced_passes.push_back(pass_index);
        } else {
            e2e_rows.push_back(row);
        }
        ++pass_index;
    }
    if (opt.trace) {
        const span_account acc = account_spans(traced.spans());
        for (const std::string& e : acc.problems) fail("accounting: " + e);
        for (std::size_t k = 0; k < layer_rows.size(); ++k) {
            for (const std::string& e : check_accounting(layer_rows[k], traced.spans(),
                                                         acc, traced_passes[k])) {
                fail("accounting, pass " + std::to_string(traced_passes[k]) + ": " + e);
            }
        }
    }

    write_pass_rows(e2e_rows, opt.out_dir / "passes.csv");
    metric_row values = median_row(e2e_rows);
    values["peak_rss_mb"] = peak_rss_mb();
    values["passes"] = static_cast<double>(e2e_rows.size());
    if (opt.trace) {
        const metric_row layers = median_row(layer_rows);
        values.insert(layers.begin(), layers.end());
        const double traced_wall = median_row(traced_e2e_rows)["wall_s"];
        values["trace.wall_s"] = traced_wall;
        values["trace.overhead_s"] = traced_wall - values["wall_s"];
        values["trace.spans"] = static_cast<double>(traced.spans().size());
        values["trace.passes"] = static_cast<double>(layer_rows.size());
        const fs::path trace_path = opt.out_dir / "trace.json";
        if (!write_spans(traced.spans(), trace_path)) {
            fail("could not write " + trace_path.string());
        }
        std::printf("wrote %s (%zu spans)\n", trace_path.string().c_str(),
                    traced.spans().size());
    }
    print_result(correct, attempted, failed, values);
    return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    options opt;
    try {
        if (!parse_args(argc, argv, opt)) {
            std::fprintf(stderr,
                         "usage: perfbench_runner --spec FILE [--seed N] "
                         "[--seconds S] [--trace 0|1] [--out DIR] [--self-test]\n");
            return 2;
        }
        fs::create_directories(opt.out_dir);
        return opt.self_test ? self_test(opt) : run_benchmark(opt);
    } catch (const std::exception& error) {
        std::fprintf(stderr, "perfbench_runner: %s\n", error.what());
        return 2;
    }
}
