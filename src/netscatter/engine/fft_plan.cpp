#include "netscatter/engine/fft_plan.hpp"

#include <atomic>
#include <cmath>
#include <numbers>

#include "netscatter/obs/metrics.hpp"
#include "netscatter/util/error.hpp"

namespace ns::engine {

namespace {
// Storage exists in every build; under NS_OBS=OFF count() compiles to
// nothing, so the hot path never touches them.
std::atomic<std::uint64_t> g_cache_hits{0};
std::atomic<std::uint64_t> g_cache_misses{0};
std::atomic<std::uint64_t> g_memo_hits{0};
std::atomic<std::uint64_t> g_scratch_requests{0};

inline void count([[maybe_unused]] std::atomic<std::uint64_t>& counter) {
#if NS_OBS_ENABLED
    counter.fetch_add(1, std::memory_order_relaxed);
#endif
}
}  // namespace

fft_plan_cache::cache_stats fft_plan_cache::stats() {
#if NS_OBS_ENABLED
    return {g_cache_hits.load(std::memory_order_relaxed),
            g_cache_misses.load(std::memory_order_relaxed),
            g_memo_hits.load(std::memory_order_relaxed),
            g_scratch_requests.load(std::memory_order_relaxed)};
#else
    return {};
#endif
}

void fft_plan_cache::reset_stats() {
#if NS_OBS_ENABLED
    g_cache_hits.store(0, std::memory_order_relaxed);
    g_cache_misses.store(0, std::memory_order_relaxed);
    g_memo_hits.store(0, std::memory_order_relaxed);
    g_scratch_requests.store(0, std::memory_order_relaxed);
#endif
}

fft_plan::fft_plan(std::size_t n) : n_(n) {
    ns::util::require(ns::dsp::is_power_of_two(n), "fft_plan: size must be a power of two");

    // Bit-reversal permutation: br[i] = br[i >> 1] >> 1, plus the top bit
    // when i is odd.
    bit_reverse_.resize(n);
    bit_reverse_[0] = 0;
    for (std::size_t i = 1; i < n; ++i) {
        bit_reverse_[i] = static_cast<std::uint32_t>(
            (bit_reverse_[i >> 1] >> 1) | ((i & 1) ? n >> 1 : 0));
    }

    // Per-stage forward twiddles, each from std::polar directly (no
    // recurrence) so table accuracy does not degrade with k.
    twiddles_.reserve(n > 0 ? n - 1 : 0);
    for (std::size_t len = 2; len <= n; len <<= 1) {
        const double angle_unit = -2.0 * std::numbers::pi / static_cast<double>(len);
        for (std::size_t k = 0; k < len / 2; ++k) {
            twiddles_.push_back(std::polar(1.0, angle_unit * static_cast<double>(k)));
        }
    }
}

void fft_plan::transform(ns::dsp::cvec& data, bool inverse) const {
    using ns::dsp::cplx;
    ns::util::require(data.size() == n_, "fft_plan: data size does not match plan");

    for (std::size_t i = 1; i < n_; ++i) {
        const std::size_t j = bit_reverse_[i];
        if (i < j) std::swap(data[i], data[j]);
    }

    for (std::size_t len = 2; len <= n_; len <<= 1) {
        const std::size_t half = len / 2;
        const cplx* stage = twiddles_.data() + (half - 1);
        for (std::size_t i = 0; i < n_; i += len) {
            for (std::size_t k = 0; k < half; ++k) {
                const cplx w = inverse ? std::conj(stage[k]) : stage[k];
                const cplx even = data[i + k];
                const cplx odd = data[i + k + half] * w;
                data[i + k] = even + odd;
                data[i + k + half] = even - odd;
            }
        }
    }

    if (inverse) {
        const double scale = 1.0 / static_cast<double>(n_);
        for (auto& value : data) value *= scale;
    }
}

void fft_plan::forward(ns::dsp::cvec& data) const {
    transform(data, false);
}

void fft_plan::inverse(ns::dsp::cvec& data) const {
    transform(data, true);
}

fft_plan_cache& fft_plan_cache::instance() {
    static fft_plan_cache cache;
    return cache;
}

std::shared_ptr<const fft_plan> fft_plan_cache::get(std::size_t n) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (const auto it = plans_.find(n); it != plans_.end()) {
        count(g_cache_hits);
        return it->second;
    }
    count(g_cache_misses);
    // Built under the lock, so each size is built exactly once; misses
    // are one per size per process, and the per-thread memo keeps hot
    // lookups off the lock. The fill is process state, not the calling
    // replica's: it stays out of the thread's allocation tally.
    const ns::obs::untracked_allocations untracked;
    return plans_.emplace(n, std::make_shared<const fft_plan>(n)).first->second;
}

std::size_t fft_plan_cache::cached_sizes() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return plans_.size();
}

void fft_plan_cache::clear() {
    const std::lock_guard<std::mutex> lock(mutex_);
    plans_.clear();
}

ns::dsp::cvec& fft_plan_cache::thread_scratch(std::size_t n) {
    thread_local ns::dsp::cvec scratch;
    count(g_scratch_requests);
    scratch.resize(n);
    return scratch;
}

std::shared_ptr<const fft_plan> get_fft_plan(std::size_t n) {
    thread_local std::shared_ptr<const fft_plan> memo;
    if (!memo || memo->size() != n) {
        memo = fft_plan_cache::instance().get(n);
    } else {
        count(g_memo_hits);
    }
    return memo;
}

}  // namespace ns::engine
