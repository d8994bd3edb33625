// Deterministic observability: named counters, gauges and log-scale
// latency histograms in a per-context metrics registry.
//
// Design constraints, in order:
//   1. The mc_runner's serial-vs-parallel bit-identity contract must
//      survive instrumentation. Every registry is therefore confined to
//      one execution context (one simulator replica, which runs entirely
//      on one thread) — increments are plain integer adds, no atomics,
//      no locks — and replica snapshots are merged at replica boundaries
//      in task order, never completion order. Merging sums counters and
//      histogram buckets name-wise, so the merged snapshot of N replicas
//      is a pure function of the N inputs, independent of thread count.
//   2. Zero overhead when compiled out. Configuring with -DNS_OBS=OFF
//      defines NS_OBS_ENABLED=0 and every record/add/timer collapses to
//      an empty inline function — no clock reads, no stores, no storage.
//   3. Deterministic bucketing. Histogram buckets are powers of two of a
//      nanosecond (bucket i spans [2^i, 2^(i+1)) ns), indexed through
//      integer bit_width — no std::log2, so the same value lands in the
//      same bucket on every platform. Counter merges are integer sums;
//      histogram `sum` is a double accumulated in merge order, which the
//      task-order merge rule keeps reproducible.
//
// The registry hands out stable pointers: instrument sites fetch their
// counter/histogram handle once (construction time) and the hot path
// touches only that handle.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#ifndef NS_OBS_ENABLED
#define NS_OBS_ENABLED 1
#endif

namespace ns::obs {

/// Whether the observability layer is compiled in (NS_OBS build option).
constexpr bool compiled_in() { return NS_OBS_ENABLED != 0; }

/// Shared timing-field predicate: the ONE place that decides whether a
/// metric/scalar name denotes host- or simulated-time data that must be
/// excluded from determinism comparisons (netscatter_sim
/// --strip-wallclock, the CI 1-vs-8-thread gates). Any field whose name
/// ends in a seconds-style unit suffix or mentions wall clock is
/// timing; new timers automatically satisfy it, so adding one can never
/// regress a determinism diff.
inline bool is_timing_name(std::string_view name) {
    const auto ends_with = [&](std::string_view suffix) {
        return name.size() >= suffix.size() &&
               name.substr(name.size() - suffix.size()) == suffix;
    };
    return ends_with("_s") || ends_with("_ms") || ends_with("_us") ||
           ends_with("_ns") || ends_with("_seconds") ||
           name.find("wall") != std::string_view::npos;
}

/// Broader host-execution predicate: timing names plus hardware
/// perf-counter metrics ("perf.*"), whose values depend on the host CPU
/// and scheduler rather than on (spec, seed). Scenario JSON reports
/// exclude these names unconditionally — that is what keeps
/// `netscatter_sim --json` bit-identical with and without --perf — and
/// --strip-wallclock strips them from --metrics output too.
inline bool is_host_metric_name(std::string_view name) {
    return is_timing_name(name) || name.substr(0, 5) == "perf.";
}

/// Monotonic clock in nanoseconds (steady_clock). Implemented out of
/// line so this header stays <chrono>-free for hot-path includers.
std::uint64_t now_ns();

// ---------------------------------------------------------------------
// Instruments. All mutators compile to nothing under NS_OBS=OFF.
// ---------------------------------------------------------------------

/// Monotonic event count.
class counter {
public:
    void add(std::uint64_t delta = 1) {
#if NS_OBS_ENABLED
        value_ += delta;
#else
        (void)delta;
#endif
    }

    std::uint64_t value() const {
#if NS_OBS_ENABLED
        return value_;
#else
        return 0;
#endif
    }

private:
#if NS_OBS_ENABLED
    std::uint64_t value_ = 0;
#endif
};

/// Last-written value plus the running maximum (queue depths, active
/// device counts). Merge keeps the max and the merge-order-last value.
class gauge {
public:
    void set(double value) {
#if NS_OBS_ENABLED
        last_ = value;
        max_ = written_ ? std::max(max_, value) : value;
        written_ = true;
#else
        (void)value;
#endif
    }

    double last() const {
#if NS_OBS_ENABLED
        return last_;
#else
        return 0.0;
#endif
    }
    double max() const {
#if NS_OBS_ENABLED
        return max_;
#else
        return 0.0;
#endif
    }

private:
#if NS_OBS_ENABLED
    double last_ = 0.0;
    double max_ = 0.0;
    bool written_ = false;
#endif
};

/// Fixed-bucket log2 histogram. Bucket i counts values in
/// [2^i, 2^(i+1)) nanoseconds (values recorded in seconds are scaled by
/// 1e9 first); 64 buckets cover 1 ns .. ~292 years, so no input is ever
/// out of range. Values are usually durations, but any non-negative
/// quantity works — per-round allocation counts use the same buckets
/// with "1 ns" read as "1 unit".
class histogram {
public:
    static constexpr std::size_t num_buckets = 64;

    /// Deterministic bucket index: floor(log2(value in ns)) via integer
    /// bit_width. Non-positive and sub-nanosecond values land in bucket
    /// 0; values beyond the last bucket clamp into it.
    static std::size_t bucket_index(double value) {
        if (!(value > 0.0)) return 0;
        const double scaled = value * 1e9;
        // 2^63 ns: everything at or above clamps to the last bucket
        // (also guards the double->uint64 conversion).
        if (scaled >= 9223372036854775808.0) return num_buckets - 1;
        const std::uint64_t n = static_cast<std::uint64_t>(scaled);
        if (n == 0) return 0;
        return static_cast<std::size_t>(std::bit_width(n)) - 1;
    }

    /// Inclusive lower bound of bucket i, in seconds.
    static double bucket_lower_bound_s(std::size_t i) {
        return static_cast<double>(std::uint64_t{1} << i) * 1e-9;
    }

    void record(double value) {
#if NS_OBS_ENABLED
        min_ = count_ == 0 ? value : std::min(min_, value);
        max_ = count_ == 0 ? value : std::max(max_, value);
        ++count_;
        sum_ += value;
        ++buckets_[bucket_index(value)];
#else
        (void)value;
#endif
    }

    void record_ns(std::uint64_t ns) { record(static_cast<double>(ns) * 1e-9); }

    std::uint64_t count() const {
#if NS_OBS_ENABLED
        return count_;
#else
        return 0;
#endif
    }
    double sum() const {
#if NS_OBS_ENABLED
        return sum_;
#else
        return 0.0;
#endif
    }

#if NS_OBS_ENABLED
    double min() const { return count_ == 0 ? 0.0 : min_; }
    double max() const { return count_ == 0 ? 0.0 : max_; }
    const std::array<std::uint64_t, num_buckets>& buckets() const { return buckets_; }
#else
    double min() const { return 0.0; }
    double max() const { return 0.0; }
#endif

private:
#if NS_OBS_ENABLED
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    std::array<std::uint64_t, num_buckets> buckets_{};
#endif
};

// ---------------------------------------------------------------------
// Snapshot: the plain-data form carried in results and merged at
// replica boundaries. Entries are kept sorted by name so merge order
// and emission order are canonical.
// ---------------------------------------------------------------------

struct counter_sample {
    std::string name;
    std::uint64_t value = 0;
};

struct gauge_sample {
    std::string name;
    double last = 0.0;
    double max = 0.0;
};

struct histogram_sample {
    std::string name;
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::array<std::uint64_t, histogram::num_buckets> buckets{};

    double mean() const {
        return count == 0 ? 0.0 : sum / static_cast<double>(count);
    }
    /// Percentile estimate (0..100) from the log2 buckets: the geometric
    /// midpoint of the bucket holding the p-th sample. Good to a factor
    /// of sqrt(2) — flamegraph-grade attribution, not a calibrated
    /// quantile.
    double percentile(double p) const;
};

/// Mergeable plain-data view of a registry. merge() is deterministic:
/// name-wise union with integer/bucket sums, performed in caller order
/// (the Monte-Carlo runner merges replica snapshots in task order).
struct metrics_snapshot {
    std::vector<counter_sample> counters;      ///< sorted by name
    std::vector<gauge_sample> gauges;          ///< sorted by name
    std::vector<histogram_sample> histograms;  ///< sorted by name

    void merge(const metrics_snapshot& other);

    const counter_sample* find_counter(std::string_view name) const;
    const gauge_sample* find_gauge(std::string_view name) const;
    const histogram_sample* find_histogram(std::string_view name) const;

    /// Counter value by name, 0 when absent.
    std::uint64_t counter_value(std::string_view name) const {
        const counter_sample* c = find_counter(name);
        return c == nullptr ? 0 : c->value;
    }
    /// Histogram sum by name, 0.0 when absent — the registry-backed
    /// replacement for hand-rolled wall-clock accumulators.
    double histogram_sum(std::string_view name) const {
        const histogram_sample* h = find_histogram(name);
        return h == nullptr ? 0.0 : h->sum;
    }

    /// Records one observation into the named histogram (creating it if
    /// needed) — for call sites that only have a snapshot, e.g. the
    /// scenario runner stamping replica.wall_s after the replica ran.
    void record_value(std::string_view name, double value);

    bool empty() const {
        return counters.empty() && gauges.empty() && histograms.empty();
    }
};

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

/// Owner of one execution context's instruments. NOT thread-safe by
/// design: confine one registry to one thread (a simulator replica) and
/// merge snapshots at the boundaries. Handles returned by the get_*
/// calls are stable for the registry's lifetime.
class metrics_registry {
public:
    metrics_registry() = default;
    metrics_registry(const metrics_registry&) = delete;
    metrics_registry& operator=(const metrics_registry&) = delete;
    metrics_registry(metrics_registry&&) = default;
    metrics_registry& operator=(metrics_registry&&) = default;

    /// Finds or creates the named instrument. Under NS_OBS=OFF these
    /// return a shared no-op dummy and store nothing.
    counter* get_counter(std::string_view name);
    gauge* get_gauge(std::string_view name);
    histogram* get_histogram(std::string_view name);

    /// Plain-data copy, entries sorted by name. Empty under NS_OBS=OFF.
    metrics_snapshot snapshot() const;

private:
#if NS_OBS_ENABLED
    template <typename T>
    struct named {
        std::string name;
        std::unique_ptr<T> value;
    };
    std::vector<named<counter>> counters_;
    std::vector<named<gauge>> gauges_;
    std::vector<named<histogram>> histograms_;
#endif
};

/// RAII wall-clock probe: records the scope's duration into a histogram
/// on destruction. Null histogram (or NS_OBS=OFF) makes it a no-op that
/// never reads the clock.
class scoped_timer {
public:
    explicit scoped_timer(histogram* hist) {
#if NS_OBS_ENABLED
        hist_ = hist;
        if (hist_ != nullptr) start_ns_ = now_ns();
#else
        (void)hist;
#endif
    }
    ~scoped_timer() {
#if NS_OBS_ENABLED
        if (hist_ != nullptr) hist_->record_ns(now_ns() - start_ns_);
#endif
    }
    scoped_timer(const scoped_timer&) = delete;
    scoped_timer& operator=(const scoped_timer&) = delete;

private:
#if NS_OBS_ENABLED
    histogram* hist_ = nullptr;
    std::uint64_t start_ns_ = 0;
#endif
};

// ---------------------------------------------------------------------
// Allocation metering
// ---------------------------------------------------------------------

/// Thread-local allocation tally. The counters only advance in binaries
/// that install a global operator new forwarding to record_allocation()
/// (the zero-alloc tests, netscatter_sim, bench_scenario_matrix); in
/// every other binary they read as zero. Thread-local — not a process
/// atomic — so a simulator replica, which runs entirely on one thread,
/// measures exactly its own allocations regardless of what other pool
/// threads do: per-round deltas stay bit-identical across thread
/// counts.
struct alloc_counters {
    std::uint64_t count = 0;
    std::uint64_t bytes = 0;
};

void record_allocation(std::size_t bytes) noexcept;
alloc_counters thread_allocations() noexcept;

/// Keeps the allocations made during its lifetime out of this thread's
/// tally. For process-wide caches (the FFT plan cache): their first fill
/// lands on whichever replica thread gets there first, so counting it
/// would make a replica's per-round allocation figures depend on pool
/// scheduling. The fills stay visible as the process-section
/// fft_cache.misses.
class untracked_allocations {
public:
    untracked_allocations() noexcept;
    ~untracked_allocations();
    untracked_allocations(const untracked_allocations&) = delete;
    untracked_allocations& operator=(const untracked_allocations&) = delete;

private:
    alloc_counters saved_;
};

/// Per-simulator observability options (carried in sim_config).
struct options {
    /// Populate the metrics registry (counters, per-phase histograms).
    bool metrics = true;
    /// Record per-round trace spans into the bounded event ring.
    bool trace = false;
    /// Open a hardware perf-counter group per replica and attribute
    /// cycles/instructions/cache traffic to round-loop phases
    /// (perf.<phase>.* counters). Requires metrics; degrades to an
    /// unavailable no-op where perf_event_open is denied.
    bool perf = false;
    /// Event capacity of the per-replica trace ring; further spans are
    /// dropped (and counted) rather than grown without bound.
    std::size_t trace_max_events = 1 << 20;
    /// Perfetto track id of this context's spans (the scenario runner
    /// assigns the replica index, so replicas render as parallel
    /// tracks).
    std::uint32_t trace_track = 0;
    /// Rounds excluded from the alloc.steady_* counters while the
    /// workspaces warm up (capacity growth is expected there).
    std::size_t alloc_warmup_rounds = 4;
};

}  // namespace ns::obs
