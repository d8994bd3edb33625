#include "netscatter/channel/superposition.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <span>

#include "netscatter/channel/awgn.hpp"
#include "netscatter/dsp/vector_ops.hpp"
#include "netscatter/engine/thread_pool.hpp"
#include "netscatter/phy/chirp.hpp"
#include "netscatter/util/error.hpp"
#include "netscatter/util/units.hpp"

namespace ns::channel {

void chirp_template_cache::prepare(const ns::phy::css_params& params) {
    if (params == params_ && by_shift_.size() == params.num_bins()) return;
    params_ = params;
    by_shift_.clear();
    by_shift_.resize(params.num_bins());
    built_ = 0;
}

const ns::phy::distributed_modulator& chirp_template_cache::at(std::uint32_t shift) {
    ns::util::require(shift < by_shift_.size(),
                      "combine: packet cyclic shift out of range");
    auto& slot = by_shift_[shift];
    if (!slot) {
        slot.emplace(params_, shift);
        ++built_;
    }
    return *slot;
}

namespace {

/// frequency_shift_into's re-anchoring cadence: the tone phasor restarts
/// from std::polar at every multiple of this local sample index.
constexpr std::size_t reanchor_interval = 1024;

/// Most contributions one sweep pass interleaves, so their phasor
/// recurrences overlap in the pipeline.
constexpr std::size_t max_group = 4;

/// Explicit complex product (ac − bd, ad + bc): for finite operands
/// exactly what std::complex returns, without its NaN-recovery branch.
inline void cmul(double ar, double ai, double br, double bi, double& re, double& im) {
    re = ar * br - ai * bi;
    im = ar * bi + ai * br;
}

/// Two doubles, one per lane of a lane pair (GCC/Clang vector
/// extension: element-wise IEEE arithmetic, so a pair computes exactly
/// what two scalar lanes would).
typedef double lane_pair __attribute__((vector_size(16)));

/// out[i] += (src_l[i] · phasor_l) · gain_l, phasor_l *= rotation_l, for
/// l = 0..G-1 in order — frequency_shift + scale + accumulate for one
/// group of lanes whose phasors already sit at the first sample and see
/// no re-anchor inside the n samples. Unshifted lanes skip the phasor:
/// out[i] += src_l[i] · gain_l. Lanes are computed in pairs; the sums
/// into out[i] stay in lane order.
template <std::size_t G, bool Shifted>
void sweep_lanes(cplx* out, std::size_t n, const cplx* const* src,
                 sample_lane* const* lanes) {
    constexpr std::size_t pairs = (G + 1) / 2;
    const cplx* s[2 * pairs];
    lane_pair gr[pairs], gi[pairs], rr[pairs], ri[pairs], pr[pairs], pi[pairs];
    for (std::size_t p = 0; p < pairs; ++p) {
        // An odd group pads its last pair with a copy of its last lane,
        // computed but never added.
        const std::size_t a = 2 * p;
        const std::size_t b = std::min(2 * p + 1, G - 1);
        s[a] = src[a];
        s[a + 1] = src[b];
        gr[p] = lane_pair{lanes[a]->gain.real(), lanes[b]->gain.real()};
        gi[p] = lane_pair{lanes[a]->gain.imag(), lanes[b]->gain.imag()};
        rr[p] = lane_pair{lanes[a]->rotation.real(), lanes[b]->rotation.real()};
        ri[p] = lane_pair{lanes[a]->rotation.imag(), lanes[b]->rotation.imag()};
        pr[p] = lane_pair{lanes[a]->phasor.real(), lanes[b]->phasor.real()};
        pi[p] = lane_pair{lanes[a]->phasor.imag(), lanes[b]->phasor.imag()};
    }
    for (std::size_t i = 0; i < n; ++i) {
        double ar = out[i].real();
        double ai = out[i].imag();
        for (std::size_t p = 0; p < pairs; ++p) {
            lane_pair tr{s[2 * p][i].real(), s[2 * p + 1][i].real()};
            lane_pair ti{s[2 * p][i].imag(), s[2 * p + 1][i].imag()};
            if constexpr (Shifted) {
                const lane_pair br = tr;
                tr = br * pr[p] - ti * pi[p];
                ti = br * pi[p] + ti * pr[p];
            }
            const lane_pair xr = tr * gr[p] - ti * gi[p];
            const lane_pair xi = tr * gi[p] + ti * gr[p];
            ar += xr[0];
            ai += xi[0];
            if (2 * p + 1 < G) {
                ar += xr[1];
                ai += xi[1];
            }
            if constexpr (Shifted) {
                const lane_pair nr = pr[p] * rr[p] - pi[p] * ri[p];
                const lane_pair ni = pr[p] * ri[p] + pi[p] * rr[p];
                pr[p] = nr;
                pi[p] = ni;
            }
        }
        out[i] = {ar, ai};
    }
    if constexpr (Shifted) {
        for (std::size_t l = 0; l < G; ++l) {
            lanes[l]->phasor = {pr[l / 2][l % 2], pi[l / 2][l % 2]};
            lanes[l]->phasor_at += n;
        }
    }
}

/// Up to max_group lanes sharing one window range [begin, end) and one
/// kind (shifted or not), swept together.
struct lane_group {
    std::size_t size = 0;
    std::size_t begin = 0;
    std::size_t end = 0;
    bool shifted = false;
    const cplx* src[max_group] = {};
    sample_lane* lanes[max_group] = {};
};

/// Brings each shifted lane's phasor to its local sample at the group's
/// first window sample the way the per-sample recurrence would have:
/// re-anchored from std::polar at the last multiple of the interval,
/// then advanced one rotation per sample — also across OFF symbols that
/// were never accumulated. The lanes' catch-up chains run interleaved
/// so their latencies overlap.
void bring_phasors(lane_group& group) {
    double pr[max_group], pi[max_group];
    std::size_t steps[max_group];
    std::size_t longest = 0;
    for (std::size_t l = 0; l < group.size; ++l) {
        sample_lane& lane = *group.lanes[l];
        const std::size_t at = group.begin - lane.offset;
        const std::size_t anchor = at - at % reanchor_interval;
        if (lane.phasor_at <= anchor) {
            lane.phasor = std::polar(1.0, lane.step * static_cast<double>(anchor));
            lane.phasor_at = anchor;
        }
        steps[l] = at - lane.phasor_at;
        longest = std::max(longest, steps[l]);
        lane.phasor_at = at;
        pr[l] = lane.phasor.real();
        pi[l] = lane.phasor.imag();
    }
    for (std::size_t k = 0; k < longest; ++k) {
        for (std::size_t l = 0; l < group.size; ++l) {
            if (k < steps[l]) {
                const cplx rotation = group.lanes[l]->rotation;
                cmul(pr[l], pi[l], rotation.real(), rotation.imag(), pr[l], pi[l]);
            }
        }
    }
    for (std::size_t l = 0; l < group.size; ++l) {
        group.lanes[l]->phasor = {pr[l], pi[l]};
    }
}

void sweep_group(cplx* received, lane_group& group, std::uint64_t& elems) {
    if (group.size == 0) return;
    using kernel = void (*)(cplx*, std::size_t, const cplx* const*, sample_lane* const*);
    static constexpr kernel shifted[max_group] = {
        sweep_lanes<1, true>, sweep_lanes<2, true>, sweep_lanes<3, true>,
        sweep_lanes<4, true>};
    static constexpr kernel scaled[max_group] = {
        sweep_lanes<1, false>, sweep_lanes<2, false>, sweep_lanes<3, false>,
        sweep_lanes<4, false>};
    if (group.shifted) bring_phasors(group);
    const std::size_t n = group.end - group.begin;
    (group.shifted ? shifted : scaled)[group.size - 1](received + group.begin, n,
                                                       group.src, group.lanes);
    elems += group.size * n;
    group.size = 0;
}

/// Adds `lane`'s samples [begin, end) of the window (pointer `src` at
/// window index `begin`) to the pending group, sweeping the group first
/// when the lane cannot join it and afterwards when it is full.
void add_to_group(cplx* received, lane_group& group, sample_lane& lane,
                  const cplx* src, std::size_t begin, std::size_t end,
                  std::uint64_t& elems) {
    if (group.size > 0 &&
        (group.shifted != lane.shifted || group.begin != begin || group.end != end)) {
        sweep_group(received, group, elems);
    }
    group.shifted = lane.shifted;
    group.begin = begin;
    group.end = end;
    group.src[group.size] = src;
    group.lanes[group.size] = &lane;
    if (++group.size == max_group) sweep_group(received, group, elems);
}

/// The chirp a template lane sends in packet symbol `symbol` — the
/// distributed_modulator layout: preamble upchirps, preamble downchirps,
/// then one upchirp per ON payload bit — or nullptr for an OFF symbol.
const cplx* symbol_chirp(const sample_lane& lane, std::size_t symbol) {
    constexpr std::size_t upchirps = ns::phy::distributed_modulator::preamble_upchirps;
    constexpr std::size_t preamble = ns::phy::distributed_modulator::preamble_symbols;
    if (symbol < upchirps) return lane.up;
    if (symbol < preamble) return lane.down;
    return lane.bits[symbol - preamble] != 0 ? lane.up : nullptr;
}

/// Writes one template packet into `out`, sample for sample what
/// distributed_modulator::modulate_packet returns.
void write_template_packet(const sample_lane& lane, std::size_t sps, cvec& out) {
    const std::size_t symbols =
        ns::phy::distributed_modulator::preamble_symbols + lane.bits.size();
    out.resize(symbols * sps);
    for (std::size_t s = 0; s < symbols; ++s) {
        cplx* dst = out.data() + s * sps;
        const cplx* src = symbol_chirp(lane, s);
        if (src != nullptr) {
            std::copy(src, src + sps, dst);
        } else {
            std::fill(dst, dst + sps, cplx{0.0, 0.0});
        }
    }
}

/// Per-contribution properties the planner needs, common to packets and
/// waveforms.
struct lane_source {
    double snr_db = 0.0;
    double timing_offset_s = 0.0;
    double frequency_offset_hz = 0.0;
    bool random_phase = true;
    std::size_t sample_delay = 0;
    std::span<const cplx> taps;
    std::size_t samples = 0;  ///< local length of the contribution
};

/// Plans one contribution: amplitude, tone, filter staging, phase — the
/// rng draws in combine()'s documented order (random taps, then phase). A filtered lane is staged once (template packet, shift,
/// taps) and swept as a plain scaled waveform.
void plan_lane(sample_lane lane, const lane_source& c, std::size_t length,
               const ns::phy::css_params& params, const channel_config& config,
               ns::util::rng& rng, channel_workspace& ws) {
    const double power = config.noise_power * ns::util::db_to_linear(c.snr_db);
    const double amplitude = std::sqrt(power);
    const double tone_hz =
        equivalent_tone_shift_hz(params, c.timing_offset_s, c.frequency_offset_hz);
    std::size_t samples = c.samples;

    const bool filtered = config.enable_multipath || !c.taps.empty();
    if (filtered) {
        std::span<const cplx> source;
        if (lane.up != nullptr) {
            write_template_packet(lane, params.samples_per_symbol(), ws.packet);
            source = ws.packet;
        } else {
            source = std::span<const cplx>(lane.samples, samples);
        }
        if (tone_hz != 0.0) {
            ns::dsp::frequency_shift_into(source, tone_hz, params.bandwidth_hz,
                                          ws.staged);
            source = ws.staged;
        }
        cvec& out = ws.filtered_pool.acquire();
        if (!c.taps.empty()) {
            // Explicit per-device taps (e.g. a tap_delay_line whose
            // state persists across rounds).
            apply_multipath_into(source, c.taps, out);
        } else {
            const cvec taps = config.multipath.sample_taps(params.bandwidth_hz, rng);
            apply_multipath_into(source, taps, out);
        }
        lane.up = lane.down = nullptr;
        lane.samples = out.data();
        samples = out.size();
    }

    lane.gain = cplx{amplitude, 0.0};
    if (c.random_phase) {
        lane.gain = std::polar(amplitude, rng.uniform(0.0, 2.0 * std::numbers::pi));
    }
    lane.shifted = !filtered && tone_hz != 0.0;
    if (lane.shifted) {
        ns::util::require(params.bandwidth_hz > 0.0,
                          "combine: sample rate must be positive");
        lane.step = 2.0 * std::numbers::pi * tone_hz / params.bandwidth_hz;
        lane.rotation = std::polar(1.0, lane.step);
    }
    lane.offset = c.sample_delay;
    if (lane.offset >= length) return;  // entirely past the window
    lane.count = std::min(samples, length - lane.offset);
    ws.lanes.push_back(lane);
}

}  // namespace

const cvec& combine(std::span<const tx_contribution> contributions, std::size_t length,
                    const ns::phy::css_params& params, const channel_config& config,
                    ns::util::rng& rng, channel_workspace& workspace) {
    return combine({}, contributions, length, params, config, rng, workspace);
}

const cvec& combine(std::span<const packet_contribution> packets,
                    std::span<const tx_contribution> waveforms, std::size_t length,
                    const ns::phy::css_params& params, const channel_config& config,
                    ns::util::rng& rng, channel_workspace& workspace) {
    cvec& received = workspace.received;
    received.assign(length, cplx{0.0, 0.0});
    const std::size_t sps = params.samples_per_symbol();
    constexpr std::size_t preamble = ns::phy::distributed_modulator::preamble_symbols;

    // --- Plan: serial, in contribution order (packets, then waveforms),
    // drawing every random tap line and phase from `rng`.
    workspace.lanes.clear();
    workspace.filtered_pool.release_all();
    workspace.templates.prepare(params);
    for (const auto& packet : packets) {
        const ns::phy::distributed_modulator& chirps =
            workspace.templates.at(packet.cyclic_shift);
        sample_lane lane;
        lane.up = chirps.on_symbol().data();
        lane.down = chirps.down_symbol().data();
        lane.bits = packet.frame_bits;
        plan_lane(lane,
                  lane_source{.snr_db = packet.snr_db,
                              .timing_offset_s = packet.timing_offset_s,
                              .frequency_offset_hz = packet.frequency_offset_hz,
                              .random_phase = packet.random_phase,
                              .taps = packet.taps,
                              .samples = (preamble + packet.frame_bits.size()) * sps},
                  length, params, config, rng, workspace);
    }
    for (const auto& tx : waveforms) {
        const std::span<const cplx> samples = tx.waveform;
        sample_lane lane;
        lane.samples = samples.data();
        plan_lane(lane,
                  lane_source{.snr_db = tx.snr_db,
                              .timing_offset_s = tx.timing_offset_s,
                              .frequency_offset_hz = tx.frequency_offset_hz,
                              .random_phase = tx.random_phase,
                              .sample_delay = tx.sample_delay,
                              .taps = tx.taps,
                              .samples = samples.size()},
                  length, params, config, rng, workspace);
    }

    // --- Sweep: the window in segments of one re-anchor interval, or of
    // one symbol when symbols are shorter, so a template lane's segment
    // lies inside one symbol and can re-anchor only at its first sample.
    // Within a segment lanes are added in plan order — every window
    // sample sums its contributions in contribution order, which is what
    // makes the result equal the one-waveform-at-a-time sum bit for bit —
    // and consecutive lanes are interleaved in groups. OFF
    // symbols are skipped: their ±0 adds are no-ops on a sum that is
    // never −0, and bring_phasors catches the recurrence up later.
    const bool timed = workspace.obs.metrics != nullptr;
    const std::uint64_t sweep_t0 = timed ? ns::obs::now_ns() : 0;
    const std::size_t segment = std::min(sps, reanchor_interval);
    std::uint64_t elems = 0;
    lane_group group;
    for (std::size_t begin = 0; begin < length; begin += segment) {
        const std::size_t end = std::min(begin + segment, length);
        for (sample_lane& lane : workspace.lanes) {
            if (lane.up != nullptr) {
                // Template packet: offset 0, local index == window index.
                if (begin >= lane.count) continue;
                const cplx* chirp = symbol_chirp(lane, begin / sps);
                if (chirp == nullptr) continue;  // OFF symbol
                add_to_group(received.data(), group, lane, chirp + begin % sps, begin,
                             std::min(end, lane.count), elems);
                continue;
            }
            // Flat waveform at its own offset: split where its local
            // index crosses a re-anchor point.
            const std::size_t first = std::max(begin, lane.offset);
            const std::size_t last = std::min(end, lane.offset + lane.count);
            for (std::size_t from = first; from < last;) {
                const std::size_t local = from - lane.offset;
                const std::size_t to =
                    lane.shifted
                        ? std::min(last, from + reanchor_interval - local % reanchor_interval)
                        : last;
                add_to_group(received.data(), group, lane, lane.samples + local, from, to,
                             elems);
                from = to;
            }
        }
        sweep_group(received.data(), group, elems);
    }
    const std::uint64_t sweep_t1 = timed ? ns::obs::now_ns() : 0;

    add_noise(received, config.noise_power, rng);
    if (timed) {
        ns::obs::metrics_registry& metrics = *workspace.obs.metrics;
        metrics.get_histogram("phy.sample_sum_s")->record_ns(sweep_t1 - sweep_t0);
        metrics.get_histogram("phy.noise_s")->record_ns(ns::obs::now_ns() - sweep_t1);
        metrics.get_counter("phy.sample_waveforms")->add(packets.size() + waveforms.size());
        metrics.get_counter("phy.sample_elems")->add(elems);
    }
    return received;
}

namespace {

/// Independent noise seed for one symbol of one round — the same
/// splitmix chaining as engine::split_seed (not included here to keep
/// channel below engine in the layering). Deriving noise from (round
/// seed, symbol index) instead of a shared stream is what makes the
/// symbol sweep order-free: any partition of symbols over threads draws
/// the identical noise.
std::uint64_t symbol_noise_seed(std::uint64_t round_seed, std::uint64_t symbol) {
    std::uint64_t state = round_seed;
    const std::uint64_t out = ns::util::splitmix64_next(state);
    state ^= out ^ (symbol * 0x94d049bb133111ebULL);
    return ns::util::splitmix64_next(state);
}

/// Everything a symbol-block sweep needs, shared read-only across
/// blocks (mutable state — spectra, grids, per-block timing slots — is
/// indexed by symbol or block, never shared).
struct sweep_context {
    channel_workspace* ws = nullptr;
    std::uint64_t round_seed = 0;
    std::size_t n = 0;
    std::size_t pad = 0;
    std::size_t total_spectra = 0;
    std::size_t num_blocks = 0;
    std::size_t interp_radius = 0;
    double sigma = 0.0;
    double sigma_grid = 0.0;
    bool banded = false;
    bool time_sweep = false;
};

/// Fills `spectrum` with one symbol's thermal noise (overwrites every
/// padded bin). Identical math to the pre-batch serial path; only the
/// generator is per-symbol now.
void synthesize_noise(const sweep_context& c, cvec& spectrum, cvec& grid,
                      ns::util::rng& srng) {
    const std::size_t n = c.n;
    const std::size_t pad = c.pad;
    if (!c.banded) {
        // Exact path: zero-padded FFT of time-domain white noise.
        for (std::size_t i = 0; i < n; ++i) {
            spectrum[i] =
                cplx{srng.gaussian(0.0, c.sigma), srng.gaussian(0.0, c.sigma)};
        }
        std::fill(spectrum.begin() + static_cast<std::ptrdiff_t>(n),
                  spectrum.end(), cplx{0.0, 0.0});
        ns::dsp::fft_inplace(spectrum);
        return;
    }
    // On-grid draws with ±R wrap margins so the banded interpolation
    // never takes a modulo in its inner loop.
    const std::size_t interp_radius = c.interp_radius;
    for (std::size_t q = 0; q < n; ++q) {
        grid[interp_radius + q] = cplx{srng.gaussian(0.0, c.sigma_grid),
                                       srng.gaussian(0.0, c.sigma_grid)};
    }
    for (std::size_t t = 0; t < interp_radius; ++t) {
        grid[t] = grid[n + t];                                  // wrap low side
        grid[n + interp_radius + t] = grid[interp_radius + t];  // wrap high side
    }
    // One fused pass over the padded spectrum: the on-grid scatter plus
    // every fractional-offset residue's FIR over the wrapped grid,
    // swept by the dispatched vector backend (bit-identical to the
    // scalar loop) — each grid element is loaded once and the spectrum
    // is written front to back.
    interpolate_bands(spectrum.data(), pad, grid.data(), interp_radius,
                      c.ws->noise_taps.data(), n);
}

/// One block of the accumulation stage: noise + kernel sweep for a
/// contiguous symbol range. Runs on block_runner workers or inline;
/// per-symbol seeding makes the result independent of the partition.
void sweep_block(void* context, std::size_t block) {
    const auto& c = *static_cast<const sweep_context*>(context);
    const std::size_t begin = block * c.total_spectra / c.num_blocks;
    const std::size_t end = (block + 1) * c.total_spectra / c.num_blocks;
    cvec& grid = c.ws->noise_grids[block];
    // One clock read per phase boundary: each symbol's noise interval
    // starts where the previous symbol's sweep ended.
    std::uint64_t noise_ns = 0;
    std::uint64_t sweep_ns = 0;
    std::uint64_t mark = c.time_sweep ? ns::obs::now_ns() : 0;
    for (std::size_t k = begin; k < end; ++k) {
        cvec& spectrum = c.ws->symbol_spectra[k];
        ns::util::rng srng(symbol_noise_seed(c.round_seed, k));
        synthesize_noise(c, spectrum, grid, srng);
        const std::uint64_t noise_end = c.time_sweep ? ns::obs::now_ns() : 0;
        accumulate_symbol(c.ws->batch, k, spectrum);
        if (c.time_sweep) {
            const std::uint64_t sweep_end = ns::obs::now_ns();
            noise_ns += noise_end - mark;
            sweep_ns += sweep_end - noise_end;
            mark = sweep_end;
        }
    }
    c.ws->block_noise_ns[block] = noise_ns;
    c.ws->block_kernel_ns[block] = sweep_ns;
}

}  // namespace

void combine_symbol_domain(std::span<const packet_contribution> packets,
                           const ns::phy::css_params& params,
                           const channel_config& config,
                           const symbol_domain_params& sd, ns::util::rng& rng,
                           channel_workspace& workspace) {
    ns::util::require(!config.enable_multipath,
                      "combine_symbol_domain: config-level random multipath is "
                      "sample-only; pass deterministic per-device taps via "
                      "packet_contribution::taps instead");
    ns::util::require(sd.zero_padding >= 1 &&
                          ns::dsp::is_power_of_two(sd.zero_padding),
                      "combine_symbol_domain: zero_padding must be a power of two");
    ns::util::require(sd.preamble_symbols >= sd.preamble_upchirps,
                      "combine_symbol_domain: preamble shorter than its upchirps");

    const std::size_t n = params.samples_per_symbol();
    const std::size_t padded = n * sd.zero_padding;
    const std::size_t total_spectra = sd.preamble_upchirps + sd.payload_symbols;

    // =====================================================================
    // Planning stage — serial, on the caller's thread. Grows every buffer
    // the sweep will touch (so worker threads never allocate and the
    // alloc.* counters are identical at any thread count), derives the
    // round's noise seed, and flattens all kernel placements into the SoA
    // batch.
    // =====================================================================
    workspace.symbol_spectra.resize(total_spectra);
    for (auto& spectrum : workspace.symbol_spectra) {
        spectrum.resize(padded);
    }
    const double sigma = std::sqrt(config.noise_power / 2.0);
    const std::size_t pad = sd.zero_padding;
    const std::size_t interp_radius = sd.noise_interp_radius_bins;
    const bool banded = pad > 1 && interp_radius > 0 && interp_radius < n / 2;

    // Thermal noise is drawn in the frequency domain: the receiver's
    // spectrum of a pure-noise symbol is FFT(noise · downchirp)
    // zero-padded; the unit-modulus dechirp leaves circular Gaussian
    // noise circular, so a spectrum with the identical distribution can
    // be drawn directly — its N on-grid samples are i.i.d.
    // CN(0, N·noise_power) (the unnormalized DFT of white noise) and the
    // off-grid padded bins are their Dirichlet interpolation, either
    // exact (one FFT per symbol) or banded to ±R chip bins.
    if (banded) {
        // C[(r-1)·(2R+1) + t] interpolates offset r in (0, pad) from the
        // on-grid neighbour t - R chip bins away: the device kernel
        // evaluated at x = (t - R)·pad - r padded bins, scaled by 1/N
        // (the IDFT normalization).
        const std::size_t taps = 2 * interp_radius + 1;
        workspace.noise_taps.resize((pad - 1) * taps);
        for (std::size_t r = 1; r < pad; ++r) {
            for (std::size_t t = 0; t < taps; ++t) {
                const double x =
                    (static_cast<double>(t) - static_cast<double>(interp_radius)) *
                        static_cast<double>(pad) -
                    static_cast<double>(r);
                const double theta = x / static_cast<double>(padded);
                const double magnitude =
                    std::sin(std::numbers::pi * x / static_cast<double>(pad)) /
                    std::sin(std::numbers::pi * theta);
                // rho · (cos φ, sin φ), not std::polar: the magnitude's
                // sign alternates with the tap offset, and a negative rho
                // is undefined for std::polar.
                const double rho = magnitude / static_cast<double>(n);
                const double phi =
                    std::numbers::pi * (static_cast<double>(n) - 1.0) * theta;
                workspace.noise_taps[(r - 1) * taps + t] =
                    cplx{rho * std::cos(phi), rho * std::sin(phi)};
            }
        }
    }

    // One raw draw seeds every symbol's noise generator; consuming it
    // before the per-packet phase draws keeps the caller's stream layout
    // fixed regardless of the packet count.
    const std::uint64_t round_seed = rng();

    // --- Plan the device kernels into the SoA batch ---------------------
    // One window per packet (its complex values are identical for every
    // ON symbol; only the leading scalar A·e^{jφ_g} rotates with the
    // global symbol index g — the tone's phase advances across the whole
    // packet, downchirps included), one placement per ON symbol. A
    // multipath device uses the tap-enveloped window instead of the bare
    // Dirichlet one — the taps' per-symbol effect is identical too (each
    // tap is a fixed-bin cyclic shift), so the same scalar applies.
    kernel_batch& batch = workspace.batch;
    batch.begin(total_spectra);
    std::uint64_t kernels_summed = 0;
    std::uint64_t window_elems = 0;
    const bool timed = workspace.obs.metrics != nullptr;
    const std::uint64_t plan_t0 = timed ? ns::obs::now_ns() : 0;
    // The window factors depend only on (N, padding, radius): built on
    // the first round, a no-op afterwards.
    workspace.kernel_table.prepare(n, sd.zero_padding, sd.kernel_radius_bins);
    for (const auto& packet : packets) {
        const double power = config.noise_power * ns::util::db_to_linear(packet.snr_db);
        const double amplitude = std::sqrt(power);
        const double phase0 =
            packet.random_phase ? rng.uniform(0.0, 2.0 * std::numbers::pi) : 0.0;

        const double tone_hz = equivalent_tone_shift_hz(
            params, packet.timing_offset_s, packet.frequency_offset_hz);
        const double tone_bins = tone_hz / params.bin_spacing_hz();
        const double position_bins =
            static_cast<double>(packet.cyclic_shift) + tone_bins;

        std::size_t first;
        const cvec* window;
        if (packet.taps.empty()) {
            first = ns::phy::make_dechirped_tone_kernel(
                workspace.kernel, position_bins, sd.kernel_radius_bins,
                workspace.kernel_table);
            window = &workspace.kernel;
        } else {
            first = ns::phy::make_multipath_tone_kernel(
                workspace.envelope, packet.taps, packet.cyclic_shift, tone_bins,
                sd.kernel_radius_bins, workspace.kernel_table, workspace.kernel);
            window = &workspace.envelope;
        }
        const std::uint32_t window_id = batch.add_window(*window);
        const double symbol_phase_step =
            2.0 * std::numbers::pi * tone_hz * static_cast<double>(n) /
            params.bandwidth_hz;
        const auto symbol_scalar = [&](std::size_t global_symbol) {
            return std::polar(amplitude,
                              phase0 + symbol_phase_step *
                                           static_cast<double>(global_symbol));
        };

        std::uint64_t packet_kernels = sd.preamble_upchirps;
        for (std::size_t k = 0; k < sd.preamble_upchirps; ++k) {
            batch.place(static_cast<std::uint32_t>(k), window_id,
                        static_cast<std::uint32_t>(first), symbol_scalar(k));
        }
        const std::size_t on_bits =
            std::min(packet.frame_bits.size(), sd.payload_symbols);
        for (std::size_t i = 0; i < on_bits; ++i) {
            if (packet.frame_bits[i] == 0) continue;
            batch.place(static_cast<std::uint32_t>(sd.preamble_upchirps + i),
                        window_id, static_cast<std::uint32_t>(first),
                        symbol_scalar(sd.preamble_symbols + i));
            ++packet_kernels;
        }
        kernels_summed += packet_kernels;
        // Accumulated window elements — the deterministic input of the
        // roofline traffic model (48 B and 8 flops per element, see
        // obs/roofline.hpp). Counts the actual window size so multipath
        // envelopes (wider than the bare Dirichlet window) are charged
        // at their real cost.
        window_elems += packet_kernels * window->size();
    }
    batch.seal();
    if (timed) {
        workspace.obs.metrics->get_histogram("phy.kernel_plan_s")
            ->record_ns(ns::obs::now_ns() - plan_t0);
    }

    // =====================================================================
    // Accumulation stage — symbols are self-contained (own noise
    // generator, own placement bucket, own spectrum), so contiguous
    // symbol blocks fan out across the workspace's block_runner when one
    // is attached. Any thread count — including the inline serial sweep —
    // produces bit-identical spectra.
    // =====================================================================
    ns::engine::block_runner* pool = workspace.block_pool;
    const std::size_t pool_threads = pool != nullptr ? pool->size() : 1;
    std::size_t num_blocks = 1;
    if (pool_threads > 1 && total_spectra > 1) {
        // More blocks than threads smooths the load (payload symbols
        // carry different kernel counts); the partition never changes
        // results, only scheduling.
        num_blocks = std::min(total_spectra, pool_threads * 2);
    }
    workspace.noise_grids.resize(num_blocks);
    if (banded) {
        for (auto& grid : workspace.noise_grids) {
            grid.resize(n + 2 * interp_radius);
        }
    }
    workspace.block_noise_ns.assign(num_blocks, 0);
    workspace.block_kernel_ns.assign(num_blocks, 0);

    sweep_context ctx;
    ctx.ws = &workspace;
    ctx.round_seed = round_seed;
    ctx.n = n;
    ctx.pad = pad;
    ctx.total_spectra = total_spectra;
    ctx.num_blocks = num_blocks;
    ctx.interp_radius = interp_radius;
    ctx.sigma = sigma;
    ctx.sigma_grid = std::sqrt(static_cast<double>(n)) * sigma;
    ctx.banded = banded;
    ctx.time_sweep = workspace.obs.metrics != nullptr;

    {
        // The hardware-counter probe wraps the whole stage from the
        // calling thread (perf counters are thread-pinned, so with a
        // pool attached it attributes the caller's share of the sweep);
        // the wall-clock probe below sums each block's sweep time
        // instead, so phy.kernel_sum_s stays the roofline denominator —
        // busy time of the accumulation loops, noise excluded — at any
        // thread count.
        ns::obs::perf_scope batch_perf(workspace.obs.perf,
                                       &workspace.obs.perf_kernel_sum);
        if (pool != nullptr && num_blocks > 1) {
            pool->run(num_blocks, &sweep_block, &ctx);
        } else {
            for (std::size_t block = 0; block < num_blocks; ++block) {
                sweep_block(&ctx, block);
            }
        }
    }

    if (workspace.obs.metrics != nullptr) {
        ns::obs::metrics_registry& metrics = *workspace.obs.metrics;
        ns::obs::histogram* noise_hist = metrics.get_histogram("phy.noise_s");
        ns::obs::histogram* sweep_hist =
            metrics.get_histogram("phy.kernel_sum_s");
        // Per-block noise and sweep times merge deterministically:
        // recorded by the calling thread, in block order, after the join.
        for (std::size_t block = 0; block < num_blocks; ++block) {
            noise_hist->record_ns(workspace.block_noise_ns[block]);
            sweep_hist->record_ns(workspace.block_kernel_ns[block]);
        }
        metrics.get_counter("phy.fast_packets")->add(packets.size());
        metrics.get_counter("phy.kernels_summed")->add(kernels_summed);
        metrics.get_counter("phy.noise_symbols")->add(total_spectra);
        metrics.get_counter("phy.kernel_window_elems")->add(window_elems);
    }
}

}  // namespace ns::channel
