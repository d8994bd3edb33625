// Observability layer (src/netscatter/obs): deterministic histogram
// bucketing, name-wise snapshot merging that is bit-identical between
// serial and parallel replica execution, well-formed span trees from
// nested RAII probes and from the simulator's round phases on both
// synthesis paths, valid Chrome/Perfetto trace JSON, and the
// NS_OBS=OFF no-op contract. The same binary exercises both sides of
// the compile-time switch: the CI NS_OBS=OFF leg runs these tests with
// every instrument compiled out.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "netscatter/engine/mc_runner.hpp"
#include "netscatter/obs/metrics.hpp"
#include "netscatter/obs/perf_counters.hpp"
#include "netscatter/obs/trace.hpp"
#include "netscatter/scenario/scenario_registry.hpp"
#include "netscatter/scenario/scenario_runner.hpp"
#include "netscatter/sim/deployment.hpp"
#include "netscatter/sim/network_sim.hpp"

namespace {

using ns::obs::compiled_in;
using ns::obs::histogram;
using ns::obs::metrics_registry;
using ns::obs::metrics_snapshot;

// -------------------------------------------------- timing predicate --

TEST(timing_name, classifies_units_and_wallclock) {
    EXPECT_TRUE(ns::obs::is_timing_name("round.synth_s"));
    EXPECT_TRUE(ns::obs::is_timing_name("decode_ms"));
    EXPECT_TRUE(ns::obs::is_timing_name("latency_us"));
    EXPECT_TRUE(ns::obs::is_timing_name("jitter_ns"));
    EXPECT_TRUE(ns::obs::is_timing_name("total_seconds"));
    EXPECT_TRUE(ns::obs::is_timing_name("wall_clock_s"));
    EXPECT_TRUE(ns::obs::is_timing_name("replica.wall_s"));

    EXPECT_FALSE(ns::obs::is_timing_name("sim.rounds"));
    EXPECT_FALSE(ns::obs::is_timing_name("fast_path_rounds"));
    EXPECT_FALSE(ns::obs::is_timing_name("alloc.steady_count"));
    EXPECT_FALSE(ns::obs::is_timing_name("round.allocs"));
    // "_s" must be a suffix, not a substring.
    EXPECT_FALSE(ns::obs::is_timing_name("phy.kernels_summed"));
}

// ---------------------------------------------------- histogram math --

TEST(histogram_buckets, integer_log2_index_is_exact) {
    // Bucket i spans [2^i, 2^(i+1)) nanoseconds; the index comes from
    // std::bit_width, so exact powers of two must sit on the boundary.
    EXPECT_EQ(histogram::bucket_index(1e-9), 0u);
    EXPECT_EQ(histogram::bucket_index(1.99e-9), 0u);
    EXPECT_EQ(histogram::bucket_index(2e-9), 1u);
    EXPECT_EQ(histogram::bucket_index(1024e-9), 10u);
    EXPECT_EQ(histogram::bucket_index(1.0), 29u);  // 1 s = 1e9 ns, 2^29..2^30
    // Degenerate inputs: zero, negative and sub-nanosecond values land
    // in bucket 0; absurdly large values clamp into the last bucket.
    EXPECT_EQ(histogram::bucket_index(0.0), 0u);
    EXPECT_EQ(histogram::bucket_index(-3.0), 0u);
    EXPECT_EQ(histogram::bucket_index(0.4e-9), 0u);
    EXPECT_EQ(histogram::bucket_index(1e30), histogram::num_buckets - 1);

    // bucket_lower_bound_s is the inverse on bucket boundaries.
    for (std::size_t i : {0u, 1u, 10u, 29u, 40u}) {
        EXPECT_EQ(histogram::bucket_index(histogram::bucket_lower_bound_s(i)), i);
    }
}

TEST(histogram_buckets, record_tracks_count_sum_min_max) {
    histogram h;
    h.record(3e-9);
    h.record(1e-9);
    h.record(8e-9);
    if (compiled_in()) {
        EXPECT_EQ(h.count(), 3u);
        EXPECT_DOUBLE_EQ(h.sum(), 12e-9);
        EXPECT_DOUBLE_EQ(h.min(), 1e-9);
        EXPECT_DOUBLE_EQ(h.max(), 8e-9);
    } else {
        // NS_OBS=OFF: record() is a stateless no-op.
        EXPECT_EQ(h.count(), 0u);
        EXPECT_DOUBLE_EQ(h.sum(), 0.0);
    }
}

TEST(histogram_buckets, percentiles_are_monotonic_and_clamped) {
    if (!compiled_in()) GTEST_SKIP() << "built with NS_OBS=OFF";
    metrics_registry reg;
    histogram* h = reg.get_histogram("t_s");
    for (int i = 1; i <= 1000; ++i) h->record(static_cast<double>(i) * 1e-9);
    const metrics_snapshot snap = reg.snapshot();
    const auto* sample = snap.find_histogram("t_s");
    ASSERT_NE(sample, nullptr);
    const double p50 = sample->percentile(50.0);
    const double p95 = sample->percentile(95.0);
    const double p99 = sample->percentile(99.0);
    // Log2 buckets: estimates are good to a factor of sqrt(2) and are
    // clamped to the observed [min, max].
    EXPECT_GE(p50, sample->min);
    EXPECT_LE(p99, sample->max);
    EXPECT_LE(p50, p95);
    EXPECT_LE(p95, p99);
    EXPECT_NEAR(p50 / 500e-9, 1.0, 0.5);
}

// ------------------------------------------------------- merge rules --

metrics_snapshot make_snapshot(std::uint64_t base) {
    metrics_registry reg;
    reg.get_counter("events")->add(base);
    reg.get_counter("shared")->add(1);
    reg.get_gauge("depth")->set(static_cast<double>(base));
    histogram* h = reg.get_histogram("lat_s");
    h->record(static_cast<double>(base) * 1e-9);
    h->record(static_cast<double>(2 * base) * 1e-9);
    return reg.snapshot();
}

TEST(snapshot_merge, name_wise_union_sums_counters_and_buckets) {
    if (!compiled_in()) GTEST_SKIP() << "built with NS_OBS=OFF";
    metrics_snapshot a = make_snapshot(4);
    const metrics_snapshot b = make_snapshot(32);
    a.merge(b);

    EXPECT_EQ(a.counter_value("events"), 36u);
    EXPECT_EQ(a.counter_value("shared"), 2u);
    const auto* g = a.find_gauge("depth");
    ASSERT_NE(g, nullptr);
    EXPECT_DOUBLE_EQ(g->last, 32.0);  // merge-order last
    EXPECT_DOUBLE_EQ(g->max, 32.0);
    const auto* h = a.find_histogram("lat_s");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count, 4u);
    EXPECT_DOUBLE_EQ(h->min, 4e-9);
    EXPECT_DOUBLE_EQ(h->max, 64e-9);
    EXPECT_EQ(h->buckets[histogram::bucket_index(4e-9)], 1u);
    EXPECT_EQ(h->buckets[histogram::bucket_index(32e-9)], 1u);

    // Disjoint names union in sorted order.
    metrics_registry extra;
    extra.get_counter("aaa_first")->add(7);
    a.merge(extra.snapshot());
    ASSERT_FALSE(a.counters.empty());
    EXPECT_EQ(a.counters.front().name, "aaa_first");
    EXPECT_TRUE(std::is_sorted(
        a.counters.begin(), a.counters.end(),
        [](const auto& x, const auto& y) { return x.name < y.name; }));
}

bool snapshots_identical(const metrics_snapshot& a, const metrics_snapshot& b) {
    if (a.counters.size() != b.counters.size() ||
        a.gauges.size() != b.gauges.size() ||
        a.histograms.size() != b.histograms.size()) {
        return false;
    }
    for (std::size_t i = 0; i < a.counters.size(); ++i) {
        if (a.counters[i].name != b.counters[i].name ||
            a.counters[i].value != b.counters[i].value) {
            return false;
        }
    }
    for (std::size_t i = 0; i < a.gauges.size(); ++i) {
        if (a.gauges[i].name != b.gauges[i].name ||
            a.gauges[i].last != b.gauges[i].last ||  // bit-exact on purpose
            a.gauges[i].max != b.gauges[i].max) {
            return false;
        }
    }
    for (std::size_t i = 0; i < a.histograms.size(); ++i) {
        const auto& x = a.histograms[i];
        const auto& y = b.histograms[i];
        if (x.name != y.name || x.count != y.count || x.sum != y.sum ||
            x.min != y.min || x.max != y.max || x.buckets != y.buckets) {
            return false;
        }
    }
    return true;
}

TEST(snapshot_merge, serial_and_parallel_replica_merges_are_bit_identical) {
    if (!compiled_in()) GTEST_SKIP() << "built with NS_OBS=OFF";
    // The determinism contract end to end: N replica registries built as
    // pure functions of the replica index, executed through the
    // mc_runner serially and on 8 threads, merged in task order. The
    // merged snapshots must match bit for bit — including histogram
    // `sum`, a double accumulated in merge order.
    constexpr std::size_t replicas = 24;
    const auto replica_snapshot = [](std::size_t r) {
        metrics_registry reg;
        reg.get_counter("rounds")->add(r + 1);
        reg.get_gauge("depth")->set(static_cast<double>(r % 5));
        histogram* h = reg.get_histogram("lat_s");
        for (std::size_t i = 0; i <= r; ++i) {
            // Non-dyadic values so cross-replica sum order matters.
            h->record(static_cast<double>(i * 13 + r) * 1.7e-9);
        }
        return reg.snapshot();
    };

    const auto run_merged = [&](bool parallel, std::size_t threads) {
        const ns::engine::mc_runner runner(
            {.num_threads = threads, .parallel = parallel});
        std::vector<metrics_snapshot> parts =
            runner.run_indexed(replicas, replica_snapshot);
        metrics_snapshot merged;
        for (const metrics_snapshot& part : parts) merged.merge(part);
        return merged;
    };

    const metrics_snapshot serial = run_merged(false, 1);
    const metrics_snapshot parallel = run_merged(true, 8);
    EXPECT_TRUE(snapshots_identical(serial, parallel));
    EXPECT_EQ(serial.counter_value("rounds"),
              replicas * (replicas + 1) / 2);
}

// ---------------------------------------------------------- tracing --

TEST(trace_spans, nested_probes_form_a_well_formed_span_tree) {
    if (!compiled_in()) GTEST_SKIP() << "built with NS_OBS=OFF";
    ns::obs::trace_buffer buf;
    buf.arm(64, 3);
    {
        ns::obs::trace_span outer("round", &buf, nullptr, 0);
        {
            ns::obs::trace_span mid("synth", &buf, nullptr, 0);
            ns::obs::trace_span inner("kernel", &buf, nullptr, 0);
        }
        ns::obs::trace_span sibling("decode", &buf, nullptr, 0);
    }
    const auto events = buf.events();
    ASSERT_EQ(events.size(), 4u);
    // RAII order: children are appended before their parents.
    EXPECT_STREQ(events[0].name, "kernel");
    EXPECT_STREQ(events[1].name, "synth");
    EXPECT_STREQ(events[2].name, "decode");
    EXPECT_STREQ(events[3].name, "round");

    const auto contains = [](const ns::obs::trace_event& parent,
                             const ns::obs::trace_event& child) {
        return child.ts_ns >= parent.ts_ns &&
               child.ts_ns + child.dur_ns <= parent.ts_ns + parent.dur_ns;
    };
    const auto& round = events[3];
    EXPECT_TRUE(contains(round, events[0]));
    EXPECT_TRUE(contains(round, events[1]));
    EXPECT_TRUE(contains(round, events[2]));
    EXPECT_TRUE(contains(events[1], events[0]));  // synth contains kernel
    // Siblings are disjoint in time: synth closed before decode opened.
    EXPECT_LE(events[1].ts_ns + events[1].dur_ns, events[2].ts_ns);
    for (const auto& event : events) EXPECT_EQ(event.track, 3u);
}

/// The simulator's own span tree over a one-replica run: each round
/// span holds exactly one plan, grouping, synth, superpose and decode
/// span, in that order, pairwise disjoint, and each round.<phase>_s
/// histogram holds one observation per round.
void expect_round_span_tree(const ns::sim::sim_result& result, std::size_t rounds) {
    static constexpr const char* phases[] = {"plan", "grouping", "synth", "superpose",
                                             "decode"};
    const auto contains = [](const ns::obs::trace_event& parent,
                             const ns::obs::trace_event& child) {
        return child.ts_ns >= parent.ts_ns &&
               child.ts_ns + child.dur_ns <= parent.ts_ns + parent.dur_ns;
    };
    std::size_t round_spans = 0;
    for (const ns::obs::trace_event& round : result.trace) {
        if (std::string(round.name) != "round") continue;
        const auto index = static_cast<std::int64_t>(round_spans++);
        EXPECT_EQ(round.arg, index);
        // Spans are appended as they close, so siblings appear in
        // execution order.
        std::vector<const ns::obs::trace_event*> children;
        for (const ns::obs::trace_event& event : result.trace) {
            if (event.arg == index && &event != &round) children.push_back(&event);
        }
        ASSERT_EQ(children.size(), std::size(phases)) << "round " << index;
        for (std::size_t p = 0; p < children.size(); ++p) {
            EXPECT_STREQ(children[p]->name, phases[p]) << "round " << index;
            EXPECT_TRUE(contains(round, *children[p])) << phases[p];
            if (p > 0) {
                EXPECT_LE(children[p - 1]->ts_ns + children[p - 1]->dur_ns,
                          children[p]->ts_ns)
                    << phases[p - 1] << " overlaps " << phases[p];
            }
        }
    }
    EXPECT_EQ(round_spans, rounds);
    for (const char* phase : phases) {
        const std::string name = std::string("round.") + phase + "_s";
        const auto* hist = result.metrics.find_histogram(name);
        ASSERT_NE(hist, nullptr) << name;
        EXPECT_EQ(hist->count, rounds) << name;
    }
}

TEST(trace_spans, simulator_rounds_trace_each_phase_once_fast_path) {
    if (!compiled_in()) GTEST_SKIP() << "built with NS_OBS=OFF";
    const ns::sim::deployment dep(ns::sim::deployment_params{}, 24, 3);
    ns::sim::sim_config config;
    config.rounds = 4;
    config.zero_padding = 4;
    config.obs.trace = true;
    ns::sim::network_simulator sim(dep, config);
    const ns::sim::sim_result result = sim.run();
    EXPECT_EQ(result.fast_path_rounds, config.rounds);
    expect_round_span_tree(result, config.rounds);
}

TEST(trace_spans, simulator_rounds_trace_each_phase_once_sample_path) {
    if (!compiled_in()) GTEST_SKIP() << "built with NS_OBS=OFF";
    // A LoRa frame lands in every round, so every round takes the
    // sample-domain pipeline.
    ns::scenario::scenario_spec spec = *ns::scenario::find_scenario("interference-lora");
    spec.geometry.num_devices = 32;
    spec.interference.burst_probability = 1.0;
    spec.sim.rounds = 4;
    spec.sim.obs.trace = true;
    const ns::scenario::replica_result replica = ns::scenario::run_scenario_replica(spec, 0);
    EXPECT_EQ(replica.sim.fast_path_rounds, 0u);
    expect_round_span_tree(replica.sim, spec.sim.rounds);
}

TEST(trace_spans, ring_is_bounded_and_counts_drops) {
    ns::obs::trace_buffer buf;
    buf.arm(2, 0);
    for (int i = 0; i < 5; ++i) buf.append("e", 10 * i, 1);
    if (compiled_in()) {
        EXPECT_EQ(buf.events().size(), 2u);
        EXPECT_EQ(buf.dropped(), 3u);
    } else {
        // arm() refuses when compiled out — append stores nothing.
        EXPECT_FALSE(buf.armed());
        EXPECT_EQ(buf.events().size(), 0u);
        EXPECT_EQ(buf.dropped(), 0u);
    }
}

TEST(trace_export, chrome_json_is_valid_and_timestamps_are_monotonic) {
    if (!compiled_in()) GTEST_SKIP() << "built with NS_OBS=OFF";
    ns::obs::trace_buffer buf;
    buf.arm(16, 1);
    std::uint64_t prev_ts = 0;
    for (int i = 0; i < 4; ++i) {
        ns::obs::trace_span span("round", &buf, nullptr, i);
    }
    const auto events = buf.events();
    ASSERT_EQ(events.size(), 4u);
    for (const auto& event : events) {
        EXPECT_GE(event.ts_ns, prev_ts);  // sequential spans: monotonic
        prev_ts = event.ts_ns;
    }

    std::ostringstream out;
    ns::obs::write_chrome_trace(events, out);
    const std::string json = out.str();
    // Structural checks (CI additionally runs the emitted files through
    // a real JSON parser): one complete-event record per span, balanced
    // braces/brackets, no trailing comma before a closing bracket.
    EXPECT_EQ(json.find('{'), 0u);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
    std::size_t complete_events = 0;
    for (std::size_t pos = json.find("\"ph\""); pos != std::string::npos;
         pos = json.find("\"ph\"", pos + 1)) {
        ++complete_events;
    }
    EXPECT_EQ(complete_events, events.size());
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '['),
              std::count(json.begin(), json.end(), ']'));
    EXPECT_EQ(json.find(",]"), std::string::npos);
    EXPECT_EQ(json.find(",}"), std::string::npos);
}

// ------------------------------------------------- NS_OBS=OFF no-ops --

TEST(obs_disabled, instruments_are_inert_when_compiled_out) {
    // Meaningful on the NS_OBS=OFF CI leg; on regular builds it checks
    // the inverse (instruments actually store).
    ns::obs::counter c;
    c.add(5);
    ns::obs::gauge g;
    g.set(2.0);
    metrics_registry reg;
    reg.get_counter("x")->add(3);
    const ns::obs::alloc_counters before = ns::obs::thread_allocations();
    ns::obs::record_allocation(128);
    const ns::obs::alloc_counters after = ns::obs::thread_allocations();

    if (compiled_in()) {
        EXPECT_EQ(c.value(), 5u);
        EXPECT_DOUBLE_EQ(g.last(), 2.0);
        EXPECT_EQ(reg.snapshot().counter_value("x"), 3u);
        EXPECT_EQ(after.count, before.count + 1);
        EXPECT_EQ(after.bytes, before.bytes + 128);
    } else {
        EXPECT_EQ(c.value(), 0u);
        EXPECT_DOUBLE_EQ(g.last(), 0.0);
        EXPECT_TRUE(reg.snapshot().empty());
        EXPECT_EQ(after.count, before.count);
        EXPECT_EQ(after.bytes, before.bytes);
        // Timers and spans never read the clock when disabled; they must
        // still be constructible so instrumented code compiles verbatim.
        histogram h;
        ns::obs::scoped_timer timer(&h);
        ns::obs::trace_span span("x", nullptr);
        EXPECT_EQ(h.count(), 0u);
    }
}

// ------------------------------------------- perf counter fallback --

TEST(perf_counters, host_metric_predicate_covers_timing_and_perf) {
    EXPECT_TRUE(ns::obs::is_host_metric_name("perf.plan.cycles"));
    EXPECT_TRUE(ns::obs::is_host_metric_name("perf.available"));
    EXPECT_TRUE(ns::obs::is_host_metric_name("round.synth_s"));  // timing
    EXPECT_FALSE(ns::obs::is_host_metric_name("phy.kernels_summed"));
    EXPECT_FALSE(ns::obs::is_host_metric_name("phy.kernel_window_elems"));
    EXPECT_FALSE(ns::obs::is_host_metric_name("perfx"));  // prefix, not "perf."
}

TEST(perf_counters, derived_ratios_guard_division_by_zero) {
    EXPECT_DOUBLE_EQ(ns::obs::perf_ipc(100, 0), 0.0);
    EXPECT_DOUBLE_EQ(ns::obs::perf_ipc(300, 100), 3.0);
    EXPECT_DOUBLE_EQ(ns::obs::perf_miss_rate(10, 0), 0.0);
    EXPECT_DOUBLE_EQ(ns::obs::perf_miss_rate(25, 100), 0.25);
}

TEST(perf_counters, default_group_is_unavailable_and_reads_zero) {
    // The degradation contract: an unopened group is inert. read() and
    // close() never throw, and every reading is zero.
    ns::obs::perf_counter_group group;
    EXPECT_FALSE(group.available());
    const ns::obs::perf_readings r = group.read();
    EXPECT_EQ(r.cycles, 0u);
    EXPECT_EQ(r.instructions, 0u);
    EXPECT_EQ(r.llc_loads, 0u);
    EXPECT_EQ(r.llc_misses, 0u);
    EXPECT_EQ(r.branch_misses, 0u);
    group.close();  // double-close of a never-opened group is safe
    EXPECT_FALSE(group.available());
}

TEST(perf_counters, ns_perf_disable_forces_the_fallback_path) {
    // NS_PERF_DISABLE makes the "perf_event_open denied" path testable
    // on hosts where the syscall would succeed.
    ASSERT_EQ(setenv("NS_PERF_DISABLE", "1", 1), 0);
    ns::obs::perf_counter_group group;
    EXPECT_FALSE(group.open());
    EXPECT_FALSE(group.available());
    const ns::obs::perf_readings r = group.read();
    EXPECT_EQ(r.cycles, 0u);
    EXPECT_EQ(r.instructions, 0u);
    group.close();
    unsetenv("NS_PERF_DISABLE");
}

TEST(perf_counters, open_contract_matches_availability) {
    // open() may succeed or fail depending on the host
    // (perf_event_paranoid, seccomp, non-Linux); both outcomes must be
    // internally consistent and throw-free.
    ns::obs::perf_counter_group group;
    const bool opened = group.open();
    EXPECT_EQ(opened, group.available());
    if (!compiled_in()) {
        EXPECT_FALSE(opened);  // NS_OBS=OFF: empty inline, always false
    }
    if (opened) {
        // Burn some user-space cycles; the leader must observe them.
        volatile double sink = 1.0;
        for (int i = 0; i < 200000; ++i) sink = sink * 1.000001 + 1e-9;
        const ns::obs::perf_readings r = group.read();
        EXPECT_GT(r.cycles, 0u);
        EXPECT_GT(r.instructions, 0u);
    } else {
        const ns::obs::perf_readings r = group.read();
        EXPECT_EQ(r.cycles, 0u);
    }
    group.close();
    EXPECT_FALSE(group.available());
}

TEST(perf_counters, scope_is_inert_without_group_or_destination) {
    metrics_registry reg;
    const auto dest =
        ns::obs::perf_phase_counters::from_registry(reg, "test_phase");
    {
        // Null group: the scope arms nothing.
        ns::obs::perf_scope scope(nullptr, &dest);
    }
    {
        // Unavailable group: same.
        ns::obs::perf_counter_group group;
        ns::obs::perf_scope scope(&group, &dest);
    }
    {
        // Unwired destination: constructible, no stores.
        ns::obs::perf_phase_counters unwired;
        ns::obs::perf_scope scope(nullptr, &unwired);
        ns::obs::perf_scope null_dest(nullptr, nullptr);
    }
    const metrics_snapshot snap = reg.snapshot();
    if (compiled_in()) {
        // from_registry pre-creates the counters; they must all read 0.
        EXPECT_TRUE(dest.wired());
        EXPECT_EQ(snap.counter_value("perf.test_phase.cycles"), 0u);
        EXPECT_EQ(snap.counter_value("perf.test_phase.instructions"), 0u);
    } else {
        // NS_OBS=OFF: from_registry is an empty inline — nothing named,
        // nothing stored.
        EXPECT_FALSE(dest.wired());
        EXPECT_TRUE(snap.empty());
    }
}

TEST(perf_counters, process_usage_reads_rusage_in_both_build_modes) {
    // getrusage is host data, available even under NS_OBS=OFF (it feeds
    // the --metrics process section only). On Linux a live process has
    // a nonzero peak RSS; elsewhere the struct is all zeros.
    const ns::obs::process_usage usage = ns::obs::current_process_usage();
#if defined(__linux__)
    EXPECT_GT(usage.peak_rss_bytes, 0u);
    EXPECT_GT(usage.minor_page_faults, 0u);
#else
    (void)usage;
#endif
}

TEST(obs_disabled, snapshot_record_value_roundtrips) {
    metrics_snapshot snap;
    snap.record_value("replica.wall_s", 0.25);
    if (compiled_in()) {
        const auto* h = snap.find_histogram("replica.wall_s");
        ASSERT_NE(h, nullptr);
        EXPECT_EQ(h->count, 1u);
        EXPECT_DOUBLE_EQ(h->sum, 0.25);
    }
    // Under NS_OBS=OFF record_value may store or not — the only contract
    // is that it is safe to call; merged results are never emitted
    // because every producer is compiled out.
}

}  // namespace
