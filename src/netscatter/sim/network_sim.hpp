// End-to-end sample-level network simulator.
//
// Drives the full pipeline the paper's deployment exercises: the AP
// queries, every associated device responds concurrently through the
// superposition channel (with per-packet hardware delay jitter, CFO,
// power adaptation and fading), and the NetScatter receiver decodes all
// devices from the summed baseband with one FFT per symbol. Decode
// success feeds the analytic timeline models (timeline.hpp) to produce
// the Figs. 17-19 series.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "netscatter/channel/fading.hpp"
#include "netscatter/channel/impairments.hpp"
#include "netscatter/channel/superposition.hpp"
#include "netscatter/device/backscatter_device.hpp"
#include "netscatter/engine/thread_pool.hpp"
#include "netscatter/faults/fault_injector.hpp"
#include "netscatter/faults/fault_spec.hpp"
#include "netscatter/mac/allocator.hpp"
#include "netscatter/mac/scheduler.hpp"
#include "netscatter/obs/metrics.hpp"
#include "netscatter/obs/perf_counters.hpp"
#include "netscatter/obs/trace.hpp"
#include "netscatter/phy/css_params.hpp"
#include "netscatter/phy/frame.hpp"
#include "netscatter/phy/modulator.hpp"
#include "netscatter/rx/receiver.hpp"
#include "netscatter/sim/deployment.hpp"
#include "netscatter/sim/round_hooks.hpp"
#include "netscatter/util/rng.hpp"

namespace ns::sim {

/// PHY synthesis fidelity of the simulator's channel (§3.2 fast path).
///
/// The dechirp-to-tone identity makes a standard packet's post-dechirp
/// spectrum analytic (a Dirichlet kernel at bin shift + fractional
/// offset), so rounds without sample-level effects can skip time-domain
/// synthesis, the per-device forward FFTs and every intermediate buffer.
enum class phy_fidelity {
    /// Always superpose in the time domain (packets from per-shift chirp
    /// templates) and decode from samples.
    sample,
    /// Always use the symbol-domain fast path. Throws if a round injects
    /// sample-level interference (not representable as a post-dechirp
    /// tone) — use `automatic` when scenarios mix in interferers.
    symbol,
    /// Fast path whenever it is exact-to-tolerance for the round (no
    /// in-band interference contribution), sample path otherwise.
    automatic,
};

/// Mid-scenario adaptive control of the group partition (§3.3.3).
enum class regroup_policy {
    none,            ///< the partition stays as computed at construction
    periodic,        ///< full regroup every regroup_period_rounds
    load_triggered,  ///< full regroup once enough admissions misfit
};

/// §3.3.3 group scheduling. When enabled, the AP partitions the
/// population into signal-strength-homogeneous groups (group_scheduler)
/// and addresses ONE group per query, round-robin; cyclic shifts are
/// allocated per group, so devices in different groups may share a
/// shift. Latency multiplies by the group count, but every group's
/// near-far spread fits the decoder's dynamic range. With grouping
/// enabled the allocation is always power-aware (grouping subsumes the
/// power_aware_allocation ablation switch).
struct grouping_config {
    bool enabled = false;
    /// Devices per group, clamped to the allocator's slot count.
    std::size_t group_capacity = 256;
    double max_dynamic_range_db = 35.0;  ///< Fig. 15b per-group limit
    regroup_policy policy = regroup_policy::none;
    std::size_t regroup_period_rounds = 16;  ///< periodic cadence
    /// load_triggered: regroup after this many admissions since the last
    /// regroup failed to fit any existing group's span (each such misfit
    /// opened a fresh group — the partition has drifted).
    std::size_t load_trigger_misfits = 8;
};

/// Simulator configuration. The boolean switches support the ablation
/// benches (power-aware allocation off, power adaptation off, jitter off).
struct sim_config {
    ns::phy::css_params phy = ns::phy::deployed_params();
    ns::phy::frame_format frame = ns::phy::phy_format();
    std::uint32_t skip = 2;
    std::size_t zero_padding = 8;
    double detection_factor = 4.0;

    bool power_aware_allocation = true;  ///< §3.2.3 coarse-grained assignment
    bool power_adaptation = true;        ///< §3.2.3 fine-grained adjustment
    bool model_timing_jitter = true;     ///< hardware delay variation (§3.2.1)
    bool model_cfo = true;               ///< crystal offsets (§3.2.2)

    /// Channel synthesis fidelity (see phy_fidelity). `sample` keeps
    /// historic bit-identical results; the default lets eligible rounds
    /// take the symbol-domain fast path (statistically equivalent —
    /// enforced by tests — and order-of-magnitude cheaper per device).
    phy_fidelity fidelity = phy_fidelity::automatic;
    /// Dirichlet kernel truncation radius of the fast path, in chip bins.
    std::size_t symbol_kernel_radius_bins = 16;

    /// Frequency-selective multipath: every device gets a persistent
    /// tapped delay line (channel::tap_delay_line) whose scattered taps
    /// decorrelate round to round with coefficient multipath_rho.
    /// Representable on BOTH synthesis paths — the sample path convolves
    /// the taps, the fast path folds them into a spectral envelope on
    /// the Dirichlet window — so multipath rounds stay symbol-domain.
    bool model_multipath = false;
    ns::channel::multipath_model multipath{};
    double multipath_rho = 0.9;  ///< round-to-round tap correlation

    /// This AP's network identifier. Co-channel deployments give each AP
    /// a distinct id; packets of other networks reach this receiver only
    /// as structured interference (round_plan::cochannel).
    std::uint32_t network_id = 0;

    double fading_sigma_db = 1.5;        ///< per-device one-way fading std dev
    double fading_rho = 0.9;             ///< round-to-round correlation

    /// §3.3.3 group scheduling (off by default: one concurrency group).
    grouping_config grouping{};

    /// Control-plane fault injection + recovery (faults/fault_spec.hpp).
    /// All-zero by default: no injector is built, no draws happen and
    /// results are bit-identical to a fault-free build.
    ns::faults::fault_spec faults{};

    std::size_t rounds = 10;
    std::uint64_t seed = 1;

    /// Intra-round fan-out of the symbol-domain sweep: symbol blocks of
    /// one round run across this many threads (1 = fully serial; 0 is
    /// invalid). Spectra are bit-identical at any value — noise is
    /// seeded per symbol, kernel order is fixed per symbol — so this is
    /// purely a latency knob for big rounds (e.g. field-100k's SF12
    /// spectra). The simulator owns a dedicated block_runner, distinct
    /// from any Monte-Carlo pool its replica runs on, so nested
    /// parallelism cannot deadlock. Note each simulator (replica) spawns
    /// its own workers: combining many replicas with many intra-round
    /// threads oversubscribes the host.
    std::size_t intra_round_threads = 1;

    /// Observability (metrics registry + trace ring). Metrics are on by
    /// default and deterministic apart from the *_s timing histograms,
    /// which the shared ns::obs::is_timing_name predicate excludes from
    /// determinism comparisons; tracing is opt-in (--trace).
    ns::obs::options obs{};

    ns::channel::hardware_delay_model delay_model{};
    ns::channel::crystal_model crystal{};

    /// Throws ns::util::invalid_argument when a field is outside its
    /// documented domain (rounds == 0, skip outside [1, bins), a
    /// non-positive detection factor, ...). network_simulator calls this
    /// on construction, so a bad configuration fails loudly instead of
    /// producing undefined or garbage results.
    void validate() const;
};

/// Outcome counters of one round.
struct round_outcome {
    std::size_t active = 0;        ///< devices associated this round
    std::size_t transmitting = 0;  ///< devices that sent this round
    std::size_t skipped = 0;       ///< devices that sat out (power adaptation)
    std::size_t idle = 0;          ///< devices with no data (traffic gating)
    std::size_t detected = 0;      ///< preamble detected
    std::size_t delivered = 0;     ///< CRC passed
    std::size_t bit_errors = 0;    ///< payload+CRC bit errors across devices
    std::size_t bits_sent = 0;

    // Churn / control-plane counters (zero without hooks).
    std::size_t joins = 0;             ///< devices that joined this round
    std::size_t leaves = 0;            ///< devices that left this round
    std::size_t rejected_joins = 0;    ///< joins refused (network full)
    std::size_t reassociations = 0;    ///< in-tolerance re-association events
    std::size_t realloc_events = 0;    ///< per-device slot (re)assignments
    std::size_t full_reassignments = 0;///< whole-group reallocation runs

    // Group scheduling (§3.3.3; -1/0 when grouping is off).
    int scheduled_group = -1;  ///< group this round's query addressed
    std::size_t scheduled = 0; ///< active devices in the scheduled group
    std::size_t regroups = 0;  ///< full-partition regroups this round

    // Co-channel interference (zero without a second network).
    std::size_t cross_tx = 0;          ///< foreign packets superposed
    std::size_t cross_collisions = 0;  ///< own transmitters whose slot
                                       ///< guard region a foreign peak hit
    std::size_t cross_collided_delivered = 0;  ///< collided yet delivered

    // Control-plane faults + recovery (all zero with faults off).
    std::size_t query_losses = 0;     ///< downlink queries lost this round
    std::size_t ack_losses = 0;       ///< association-ACK transmissions lost
    std::size_t ack_timeouts = 0;     ///< handshakes abandoned (retry cap)
    std::size_t reboots = 0;          ///< devices rebooted this round
    std::size_t down_events = 0;      ///< devices that lost association
                                      ///< (reboot, missed-query trip, eviction)
    std::size_t lease_evictions = 0;  ///< silent members evicted by the lease
    std::size_t desyncs = 0;          ///< devices that missed a regroup and
                                      ///< kept a stale shift
    std::size_t resyncs = 0;          ///< stale devices that re-heard a query
    std::size_t recoveries = 0;       ///< down devices re-associated
    std::size_t orphan_tx = 0;        ///< transmissions no decode report
                                      ///< consumed (stale/unregistered shift)
    std::size_t orphan_collisions = 0;///< same-shift transmitter pairs
    bool blackout = false;            ///< this round fell in an AP blackout
};

/// Per-group accumulators of a grouped run (§3.3.3), keyed by group id
/// — i.e. by scheduling slot. The counters cover every round the slot
/// was addressed over the whole run; a regroup re-populates the slots,
/// so after one the counters span more than one device partition while
/// `members` and the power span describe only the final partition.
struct group_metrics {
    std::size_t members = 0;          ///< membership at the end of the run
    std::size_t scheduled_rounds = 0; ///< rounds this group was addressed
    std::size_t transmitting = 0;
    std::size_t delivered = 0;
    std::size_t bits_sent = 0;
    std::size_t bit_errors = 0;
    double min_power_dbm = 0.0;  ///< final power span (0/0 when empty)
    double max_power_dbm = 0.0;

    double delivery_rate() const {
        return transmitting == 0 ? 0.0
                                 : static_cast<double>(delivered) /
                                       static_cast<double>(transmitting);
    }
};

/// Aggregated simulation result.
struct sim_result {
    std::vector<round_outcome> rounds;
    std::size_t total_transmitting = 0;
    std::size_t total_delivered = 0;
    std::size_t total_detected = 0;
    std::size_t total_bit_errors = 0;
    std::size_t total_bits = 0;
    std::size_t total_skipped = 0;
    std::size_t total_idle = 0;
    std::size_t total_active_rounds = 0;  ///< sum of per-round active counts
    std::size_t total_joins = 0;
    std::size_t total_leaves = 0;
    std::size_t total_rejected_joins = 0;
    std::size_t total_reassociations = 0;
    std::size_t total_realloc_events = 0;
    std::size_t total_full_reassignments = 0;
    std::size_t total_regroups = 0;
    std::size_t total_cross_tx = 0;
    std::size_t total_cross_collisions = 0;
    std::size_t total_cross_collided_delivered = 0;
    // Fault/recovery totals (zero with faults off).
    std::size_t total_query_losses = 0;
    std::size_t total_ack_losses = 0;
    std::size_t total_ack_timeouts = 0;
    std::size_t total_reboots = 0;
    std::size_t total_down_events = 0;
    std::size_t total_lease_evictions = 0;
    std::size_t total_desyncs = 0;
    std::size_t total_resyncs = 0;
    std::size_t total_recoveries = 0;
    std::size_t total_orphan_tx = 0;
    std::size_t total_orphan_collisions = 0;
    std::size_t total_blackout_rounds = 0;
    /// Devices still disassociated (down, awaiting rejoin) when the run
    /// ended; total_down_events == total_recoveries + devices_down_at_end.
    std::size_t devices_down_at_end = 0;

    /// Rounds served by the symbol-domain fast path (== rounds.size()
    /// under phy_fidelity::symbol, 0 under ::sample).
    std::size_t fast_path_rounds = 0;

    /// Full metrics snapshot of this replica's registry (counters,
    /// gauges, per-phase histograms — see README "Observability" for the
    /// catalogue; the host-time split of the round loop is the sums of
    /// the round.<phase>_s histograms). merge() folds name-wise in task
    /// order, preserving the Monte-Carlo runner's determinism contract:
    /// every non-timing entry is bit-identical across thread counts.
    ns::obs::metrics_snapshot metrics;
    /// Trace spans recorded when config.obs.trace is set; replicas
    /// concatenate in task order. Host timestamps — never written into
    /// scenario reports, only via --trace.
    std::vector<ns::obs::trace_event> trace;
    /// Spans dropped because the bounded trace ring filled up.
    std::uint64_t trace_dropped = 0;

    /// Per-group accumulators, indexed by group id; empty when grouping
    /// is off. merge() sums entries index-wise, so after a replica merge
    /// each entry aggregates that group id across all replicas (members
    /// included — interpret per-replica members as members / replicas).
    /// May hold more rows than num_groups: a regroup that shrinks the
    /// partition retires the trailing slots (members 0) but their
    /// counters are kept so per-group sums still decompose the totals.
    std::vector<group_metrics> groups;
    /// Final scheduled-group count (max across merged replicas; 0 when
    /// grouping is off).
    std::size_t num_groups = 0;

    /// Appends another result's rounds and adds its totals. The scenario
    /// runner combines independent replicas with it; merging in replica
    /// order keeps the combined statistics identical regardless of
    /// execution order.
    void merge(const sim_result& other);

    /// Fraction of transmitted packets that passed CRC.
    double delivery_rate() const;
    /// Bit error rate over every transmitted payload+CRC bit.
    double ber() const;
    /// Mean devices delivered per round.
    double mean_delivered_per_round() const;
    /// Sample variance of delivered-per-round.
    double variance_delivered_per_round() const;
    /// Fraction of active device-rounds spent in a power-adaptation skip.
    double skip_rate() const;
    /// Fraction of active device-rounds with no data to send.
    double idle_rate() const;
};

/// One additive outcome counter: a round_outcome field, the sim_result
/// total it sums into and, when `metric` is set, the registry counter it
/// also feeds. The per-round accumulation, sim_result::merge and the
/// metric probes all walk outcome_counters, so a new counter is a field
/// in both structs plus one row. `fault.*` metrics are registered only
/// when the config enables faults, so fault-free runs publish an
/// unchanged metric set.
struct outcome_counter {
    std::size_t round_outcome::*field;
    std::size_t sim_result::*total;
    const char* metric;
};

inline constexpr outcome_counter outcome_counters[] = {
    {&round_outcome::active, &sim_result::total_active_rounds, nullptr},
    {&round_outcome::transmitting, &sim_result::total_transmitting, "sim.tx_packets"},
    {&round_outcome::skipped, &sim_result::total_skipped, nullptr},
    {&round_outcome::idle, &sim_result::total_idle, nullptr},
    {&round_outcome::detected, &sim_result::total_detected, "sim.detected"},
    {&round_outcome::delivered, &sim_result::total_delivered, "sim.delivered"},
    {&round_outcome::bit_errors, &sim_result::total_bit_errors, nullptr},
    {&round_outcome::bits_sent, &sim_result::total_bits, nullptr},
    {&round_outcome::joins, &sim_result::total_joins, nullptr},
    {&round_outcome::leaves, &sim_result::total_leaves, nullptr},
    {&round_outcome::rejected_joins, &sim_result::total_rejected_joins, nullptr},
    {&round_outcome::reassociations, &sim_result::total_reassociations, nullptr},
    {&round_outcome::realloc_events, &sim_result::total_realloc_events, nullptr},
    {&round_outcome::full_reassignments, &sim_result::total_full_reassignments, nullptr},
    {&round_outcome::regroups, &sim_result::total_regroups, nullptr},
    {&round_outcome::cross_tx, &sim_result::total_cross_tx, "sim.cross_tx"},
    {&round_outcome::cross_collisions, &sim_result::total_cross_collisions,
     "sim.cross_collisions"},
    {&round_outcome::cross_collided_delivered,
     &sim_result::total_cross_collided_delivered, nullptr},
    {&round_outcome::query_losses, &sim_result::total_query_losses,
     "fault.query_losses"},
    {&round_outcome::ack_losses, &sim_result::total_ack_losses, "fault.ack_losses"},
    {&round_outcome::ack_timeouts, &sim_result::total_ack_timeouts,
     "fault.ack_timeouts"},
    {&round_outcome::reboots, &sim_result::total_reboots, "fault.reboots"},
    {&round_outcome::down_events, &sim_result::total_down_events, "fault.down_events"},
    {&round_outcome::lease_evictions, &sim_result::total_lease_evictions,
     "fault.lease_evictions"},
    {&round_outcome::desyncs, &sim_result::total_desyncs, "fault.desyncs"},
    {&round_outcome::resyncs, &sim_result::total_resyncs, "fault.resyncs"},
    {&round_outcome::recoveries, &sim_result::total_recoveries, "fault.recoveries"},
    {&round_outcome::orphan_tx, &sim_result::total_orphan_tx, "fault.orphan_tx"},
    {&round_outcome::orphan_collisions, &sim_result::total_orphan_collisions,
     "fault.orphan_collisions"},
};

/// The simulator.
///
/// Without hooks it behaves exactly as it always has: every placed
/// device is associated up front (batch power-aware allocation) and
/// transmits every round. With hooks (see round_hooks.hpp) the active
/// set, per-round traffic, link budgets and in-band interference are all
/// injectable, and membership changes flow through the AP's incremental
/// allocator with a full reassignment fallback (§3.3.3).
class network_simulator {
public:
    /// `hooks` (optional, non-owning, may be nullptr) must outlive the
    /// simulator.
    network_simulator(const deployment& dep, sim_config config,
                      round_hooks* hooks = nullptr);

    /// Runs the configured number of rounds.
    sim_result run();

    /// Cyclic shift of each currently-associated device.
    const std::unordered_map<std::uint32_t, std::uint32_t>& allocation() const {
        return allocation_;
    }

    /// The uplink SNR (dB, at the association-time gain) per device.
    const std::vector<double>& association_snrs_db() const { return association_snr_db_; }

    /// Devices currently associated.
    std::size_t active_count() const { return active_count_; }

    /// Whether §3.3.3 group scheduling is on.
    bool grouped() const { return config_.grouping.enabled; }

    /// The query's group-id field is 8 bits (Fig. 11): the AP can
    /// address at most this many groups. A partition needing more throws
    /// at construction/regroup; a join that would open group 257 is
    /// rejected.
    static constexpr std::size_t max_groups = 256;

    /// Current group count (0 when grouping is off).
    std::size_t num_groups() const { return group_spans_.size(); }

    /// Group of a device, if associated under grouping.
    std::optional<std::size_t> group_of(std::uint32_t device_id) const;

private:
    struct device_slot {
        placed_device placement;
        ns::device::backscatter_device device;
        ns::channel::gauss_markov_fading fading;
        /// Per-device multipath state (model_multipath only); advanced
        /// every round like fading so a device's channel time series is
        /// independent of its membership history.
        std::optional<ns::channel::tap_delay_line> taps = std::nullopt;
        double tof_s = 0.0;       ///< propagation time of flight
        double doppler_hz = 0.0;  ///< mobility-induced Doppler this round
        bool active = false;      ///< currently associated
        /// AR steps the fading (and multipath) processes have taken so
        /// far. Unobserved devices are not touched at all per round;
        /// when next scheduled they catch up to the simulation clock
        /// through the exact k-step AR(1) transition.
        std::uint64_t fading_rounds = 0;
        /// Index into group_spans_, cached on the slot so the per-round
        /// device loop tests membership without a hash lookup; no_group
        /// when ungrouped or inactive. Maintained at every membership
        /// change (partition, grouped admit, leave).
        static constexpr std::size_t no_group = static_cast<std::size_t>(-1);
        std::size_t group = no_group;

        // --- Fault/recovery state (inert with faults off) --------------
        /// Device lost its association (reboot, missed-query trip or
        /// lease eviction) and is rejoining through the Aloha path. While
        /// the AP's table entry lingers (`active` still true) the device
        /// is a zombie: scheduled but silent.
        bool down = false;
        /// Round the current down episode began (recovery latency base).
        std::size_t down_round = 0;
        /// Device missed a regroup query: it keeps transmitting on
        /// `stale_shift` while the AP's schedule moved on (§3.3.3 desync).
        bool desynced = false;
        std::uint32_t stale_shift = 0;
        std::size_t desync_round = 0;
        /// Consecutive queries the device failed to hear (device side).
        std::uint32_t missed_queries = 0;
        /// Consecutive scheduled rounds the AP heard nothing (lease).
        std::uint32_t silent_rounds = 0;

        /// Uplink power at the AP at the device's current gain.
        double uplink_dbm() const {
            return placement.uplink_rx_dbm + device.current_gain_db();
        }
    };

    /// Applies a scenario's round plan: link updates, leaves, then joins
    /// (incremental allocation with full-reassignment fallback). `round`
    /// timestamps fault recovery events; `blackout` defers joins.
    void apply_round_plan(const round_plan& plan, round_outcome& outcome,
                          std::size_t round, bool blackout);
    /// Admits one joining device (grouped path): best-fit group via
    /// group_scheduler::admit, opening a fresh group on misfit, then
    /// incremental shift allocation within the group with a group-local
    /// full reassignment fallback. Returns false (join rejected) when a
    /// misfit would exceed the max_groups addressing limit.
    bool admit_grouped(std::size_t slot_index, double join_power,
                       round_outcome& outcome);
    /// Recomputes the whole partition from the current active powers and
    /// reallocates every group's shifts (§3.3.3 adaptive control). With
    /// faults on, devices that miss `round`'s query keep their old shift
    /// (stale-schedule desync).
    void regroup(round_outcome& outcome, std::size_t round);
    /// Associates the device in `slot_index` on `shift` with the
    /// association-time gain rule, using `baseline_rssi_dbm` as the
    /// device's fresh downlink baseline.
    void associate_slot(std::size_t slot_index, std::uint32_t shift,
                        double baseline_rssi_dbm);
    /// Occupied (shift, power) pairs of active devices, excluding
    /// `excluded_id` and, when `group` is set, devices outside that
    /// group; deterministic slot order.
    std::vector<std::pair<std::uint32_t, double>> occupied_powers(
        std::optional<std::uint32_t> excluded_id = std::nullopt,
        std::optional<std::size_t> group = std::nullopt) const;
    /// Refreshes the receiver's registered shifts from the active set
    /// (restricted to `group` when set — the scheduled group's round).
    void register_active_shifts(std::optional<std::size_t> group = std::nullopt);
    /// Partitions `powers` into signal-strength groups and fills the
    /// slots' cached group indices, group_spans_ and allocation_ with
    /// per-group allocations.
    void partition_into_groups(const std::vector<ns::mac::device_power>& powers);
    /// Scheduler configured from config_.grouping (capacity clamped to
    /// the allocator's slot count).
    ns::mac::group_scheduler make_scheduler() const;

    /// Inserts/removes `slot_index` into the sorted active-slot list.
    void mark_active(std::size_t slot_index);
    void mark_inactive(std::size_t slot_index);

    // --- Fault injection / protocol recovery (faults/) -----------------
    /// Drops `slot_index` from the AP's tables: deactivates the slot,
    /// reclaims its cyclic shift through the allocator and shrinks its
    /// group. The shared leave/eviction path.
    void deactivate_slot(std::size_t slot_index);
    /// Marks the device disassociated (reboot / missed-query trip /
    /// lease eviction): it falls silent and must rejoin via the Aloha
    /// path. Notifies the hooks so the scenario's churn re-queues it.
    void go_down(std::size_t slot_index, std::size_t round,
                 member_loss_reason reason, round_outcome& outcome);
    /// Diverts ACK-delayed joiners out of `joins` into pending_acks_ and
    /// reinserts the ones whose handshake completes this round.
    void apply_ack_faults(std::vector<std::uint32_t>& joins,
                          std::size_t round, round_outcome& outcome);
    /// Membership-lease sweep over this round's scheduled slots.
    void apply_lease(std::optional<std::size_t> scheduled_group,
                     std::size_t round, round_outcome& outcome);
    /// Brownouts: this round's reboot draws strike uniformly among the
    /// live members, which go down and must rejoin.
    void apply_reboots(std::size_t round, round_outcome& outcome);
    /// Ends a desynced device's stale-shift episode (it re-heard the
    /// schedule); no-op when the device is in sync.
    void end_desync(device_slot& slot, std::size_t round, round_outcome& outcome);

    // --- The round (§3.3): one member function per traced phase --------
    /// The traced phases of a round, in execution order.
    enum class phase : std::size_t { plan, grouping, synth, superpose, decode };
    static constexpr std::size_t num_phases = 5;

    /// RAII probe of one round phase: opens and closes its trace span,
    /// its round.<phase>_s histogram and its perf.<phase>.* counters
    /// together. Free (no clock reads, no syscalls) when all are off.
    class phase_scope {
    public:
        phase_scope(network_simulator& sim, phase p, std::size_t round);

    private:
        ns::obs::trace_span span_;
        ns::obs::perf_scope perf_;
    };

    /// One round's state as it flows through the phase functions.
    struct round_state {
        std::size_t index = 0;
        round_plan plan;
        round_outcome outcome;
        bool fast_path = false;  ///< symbol-domain synthesis this round
        /// The addressed group (0 when ungrouped).
        std::size_t scheduled_group = 0;
        /// Summed baseband of a sample-path round (null on the fast path).
        const ns::dsp::cvec* received = nullptr;
    };

    /// Plan: the scenario's membership/link plan, then reboots.
    void plan_phase(round_state& rs);
    /// Grouping: a due regroup, then the scheduled group's shifts.
    void grouping_phase(round_state& rs);
    /// Synth: every scheduled device's MAC decision and symbolic packet,
    /// then the lease sweep and the receiver's shift refresh.
    void synth_phase(round_state& rs);
    /// Superpose: co-channel collision marks, then the channel sum on
    /// the fast or the sample path.
    void superpose_phase(round_state& rs);
    /// Decode: one FFT per symbol, report scoring, orphan accounting.
    void decode_phase(round_state& rs);
    /// Folds the round's outcome into `result`, the group accumulators
    /// and the metric probes; `allocs_before` is the round's start.
    void account_round(const round_state& rs, ns::obs::alloc_counters allocs_before,
                       sim_result& result);

    /// The synth phase's fault gate for one scheduled device: applies
    /// zombie silence, blackouts and query loss. Returns whether the
    /// device heard this round's query and may respond.
    bool hears_query(std::size_t slot_index, round_state& rs);
    /// Whether the round takes the symbol-domain fast path (phy_fidelity).
    bool use_fast_path(const round_plan& plan) const;

    sim_config config_;
    round_hooks* hooks_ = nullptr;
    ns::util::rng rng_;
    std::vector<device_slot> slots_;
    std::unordered_map<std::uint32_t, std::size_t> slot_index_;  ///< id -> slot
    /// Sorted indices of the active slots — every per-round walk runs
    /// over this list instead of the full universe, so a 100k-device
    /// deployment with a few hundred associated devices never streams
    /// 100k slot structs through the cache each round.
    std::vector<std::size_t> active_slots_;
    std::unordered_map<std::uint32_t, std::uint32_t> allocation_;
    std::vector<double> association_snr_db_;
    ns::mac::shift_allocator allocator_;
    double noise_floor_dbm_ = 0.0;  ///< receiver noise floor over the band
    std::size_t active_count_ = 0;
    bool membership_dirty_ = false;
    /// Fault schedule generator (config.faults.enabled() only; nullopt
    /// keeps every fault path compiled out of the hot loop's behaviour).
    std::optional<ns::faults::fault_injector> fault_injector_;
    /// Joins the AP could not serve during a blackout; replayed on the
    /// first round the AP is back.
    std::vector<std::uint32_t> deferred_joins_;
    /// Handshakes stalled by lost ACKs: (device id, round the replayed
    /// response finally gets through).
    std::vector<std::pair<std::uint32_t, std::size_t>> pending_acks_;
    /// Mutable copy of a plan's joins while the fault layer reorders /
    /// defers / times out handshakes (plan itself is const).
    std::vector<std::uint32_t> join_scratch_;
    /// Slot-index staging of the lease sweep and reboot victim draws.
    std::vector<std::size_t> fault_scratch_;
    // --- §3.3.3 group scheduling state (empty when grouping is off) ---
    std::vector<ns::mac::group_span> group_spans_;
    std::vector<group_metrics> group_acc_;  ///< per-group accumulators
    std::size_t misfits_since_regroup_ = 0;
    ns::rx::receiver receiver_;

    // --- Observability (obs/) ------------------------------------------
    // One registry per simulator instance; a replica owns its simulator,
    // so the registry is thread-confined and its snapshot merges at the
    // replica boundary. Handles are fetched once in the constructor; the
    // round loop touches only these pointers (null when runtime-disabled,
    // which also keeps the probes from reading the clock).
    struct obs_probes {
        ns::obs::histogram* round_total = nullptr;  ///< round.total_s
        ns::obs::histogram* round_allocs = nullptr; ///< round.allocs
        /// round.<phase>_s, indexed by phase.
        std::array<ns::obs::histogram*, num_phases> phase_time{};
        ns::obs::counter* rounds = nullptr;
        ns::obs::counter* fast_rounds = nullptr;
        ns::obs::counter* sample_rounds = nullptr;
        ns::obs::counter* alloc_warmup_count = nullptr;
        ns::obs::counter* alloc_steady_count = nullptr;
        ns::obs::counter* alloc_steady_bytes = nullptr;
        ns::obs::counter* alloc_steady_rounds = nullptr;
        ns::obs::gauge* active_devices = nullptr;
        ns::obs::gauge* num_groups = nullptr;
        /// The metric of each outcome_counters row (null: none, metrics
        /// off, or a fault.* row with faults off).
        std::array<ns::obs::counter*, std::size(outcome_counters)> outcome{};
        // fault.* instruments outside the counter table, fetched only
        // when config.faults.enabled().
        ns::obs::counter* fault_blackout_rounds = nullptr;
        ns::obs::histogram* fault_recovery_rounds = nullptr;
        ns::obs::histogram* fault_resync_rounds = nullptr;
        /// Hardware-counter attribution destinations (perf.<phase>.cycles
        /// / .instructions / ...), indexed by phase. Unwired (null) unless
        /// obs.perf is set AND the group opened, so the default round
        /// loop performs zero perf syscalls.
        std::array<ns::obs::perf_phase_counters, num_phases> phase_perf{};
    };
    ns::obs::metrics_registry metrics_;
    ns::obs::trace_buffer trace_;
    obs_probes probes_{};
    /// Per-replica hardware counter group (obs.perf). Opened in the
    /// constructor on the replica's thread — the scenario runner builds
    /// each simulator inside its Monte-Carlo task, so the fds attach to
    /// the thread that runs the rounds. Counter values flow one way,
    /// registry-outward: nothing in the simulation reads them back.
    ns::obs::perf_counter_group perf_group_;

    /// Intra-round symbol-block fan-out (config.intra_round_threads > 1).
    /// Owned by the simulator — NOT the Monte-Carlo pool the replica
    /// itself may be running on — so a replica task blocking in run()
    /// can never starve the workers it is waiting for.
    std::optional<ns::engine::block_runner> round_pool_;

    // --- Per-round workspaces (reused across rounds; the steady-state
    // loop allocates nothing per device once the buffers are warm) ------
    ns::channel::channel_workspace chan_ws_;
    ns::rx::decode_workspace decode_ws_;
    ns::rx::decode_result decoded_;
    std::vector<ns::channel::packet_contribution> packet_contribs_;
    std::vector<bool> payload_scratch_;
    std::vector<bool> frame_scratch_;
    /// Flat 0/1 bytes of every transmitter's frame bits this round, one
    /// fixed-width row per transmitter in transmit order.
    std::vector<std::uint8_t> frame_bits_store_;
    std::vector<std::uint32_t> tx_row_shift_;    ///< row -> cyclic shift
    std::vector<std::int32_t> sent_row_of_shift_;  ///< shift -> row or -1
    std::vector<std::uint32_t> shift_scratch_;   ///< registered-shift staging
    /// Cross-network collision marks, one per transmitter row this round
    /// (empty when the round had no co-channel packets).
    std::vector<std::uint8_t> row_collided_;
    /// Rows a decode report consumed this round (faults only): the
    /// complement is the orphaned transmissions — stale or collided
    /// shifts the schedule no longer decodes.
    std::vector<std::uint8_t> row_scored_;
};

}  // namespace ns::sim
