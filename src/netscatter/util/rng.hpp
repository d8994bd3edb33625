// Deterministic pseudo-random number generation.
//
// Every stochastic component in the library takes an explicit seed so that
// simulations, tests and benchmarks are exactly reproducible. We implement
// xoshiro256** (public domain, Blackman & Vigna) seeded via splitmix64
// rather than relying on std::mt19937, whose distributions are not
// guaranteed to be bit-identical across standard library implementations.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace ns::util {

/// splitmix64 step; used to expand a single 64-bit seed into a full
/// xoshiro256** state. Returns the next value and advances `state`.
std::uint64_t splitmix64_next(std::uint64_t& state);

namespace detail {

inline std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
}

/// Ziggurat tables for the standard normal (Marsaglia & Tsang, 128
/// equal-area layers over f(x) = exp(-x^2/2)), defined in rng.cpp;
/// y[i] = f(x[i]). Layer i >= 1 is the rectangle
/// [0, x[i]] x [y[i], y[i+1]]; layer 0 is the base rectangle plus the
/// tail, through the pseudo width x[0]. x[128] = 0, y[128] = 1.
inline constexpr int ziggurat_layers = 128;
struct ziggurat_tables {
    double x[ziggurat_layers + 1];
    double y[ziggurat_layers + 1];
};
extern const ziggurat_tables ziggurat;

}  // namespace detail

/// Deterministic, portable random number generator (xoshiro256**).
///
/// Satisfies the subset of the UniformRandomBitGenerator requirements we
/// need, plus convenience samplers for the distributions used throughout
/// the simulator. All samplers are implemented on top of the raw 64-bit
/// output with fixed algorithms, so results are identical on every
/// platform and standard library.
class rng {
public:
    using result_type = std::uint64_t;

    /// Constructs the generator from a 64-bit seed. Two generators built
    /// from the same seed produce identical streams forever.
    explicit rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }

    /// Next raw 64-bit value (xoshiro256** step; inline so per-bin draw
    /// loops keep the state in registers).
    result_type operator()() {
        const std::uint64_t result = detail::rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = detail::rotl(state_[3], 45);
        return result;
    }

    /// Uniform double in [0, 1).
    double uniform();

    /// Uniform double in [lo, hi).
    double uniform(double lo, double hi);

    /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
    std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

    /// Standard normal sample (ziggurat, 128 layers). One raw 64-bit
    /// draw and one multiply on the ~98% fast path, inline here;
    /// transcendentals only in the out-of-line wedge/tail rejection.
    double gaussian() {
        // One raw draw supplies the layer (low 7 bits), the sign (bit 7)
        // and a 53-bit magnitude uniform (bits 11..63) — disjoint bit
        // fields, so index and magnitude are independent.
        const std::uint64_t bits = (*this)();
        const int i = static_cast<int>(bits & 127);
        const double sign = (bits & 128) ? -1.0 : 1.0;
        const double u = static_cast<double>(bits >> 11) * 0x1.0p-53;
        const double x = u * detail::ziggurat.x[i];
        // Strictly inside the next-narrower layer: under the curve for
        // every y of this layer (and inside the base rectangle for i=0).
        if (x < detail::ziggurat.x[i + 1]) return sign * x;
        return gaussian_reject(bits);
    }

    /// Normal sample with the given mean and standard deviation.
    double gaussian(double mean, double stddev) {
        return mean + stddev * gaussian();
    }

    /// Exponential sample with the given mean. Requires mean > 0.
    double exponential(double mean);

    /// Largest mean poisson() accepts. Knuth's product method costs O(mean)
    /// uniforms per sample, and exp(-mean) underflows to 0 near mean ~745
    /// (the loop would then cap every sample at the product's underflow
    /// point — silently wrong). The spec codec bounds every Poisson-drawn
    /// rate by this same constant, so a bad rate fails at spec load.
    static constexpr double max_poisson_mean = 500.0;

    /// Poisson sample with the given mean (Knuth's product method; meant
    /// for the small rates of the scenario traffic/churn processes).
    /// Requires 0 <= mean <= max_poisson_mean.
    std::uint64_t poisson(double mean);

    /// Bernoulli sample: true with probability p.
    bool bernoulli(double p);

    /// Random bit vector of length n (each bit i.i.d. fair).
    std::vector<bool> bits(std::size_t n);

    /// bits() into a caller-provided vector (resized; capacity reuse
    /// makes repeated calls allocation-free). Draws the identical stream
    /// as bits(), so the two are interchangeable mid-sequence.
    void fill_bits(std::size_t n, std::vector<bool>& out);

    /// Forks an independent child generator. The child stream is decorrelated
    /// from the parent by hashing the parent's next output through splitmix64.
    rng fork();

private:
    /// gaussian()'s wedge/tail branch for a draw `bits` the fast path
    /// did not accept; continues the identical stream.
    double gaussian_reject(std::uint64_t bits);

    std::array<std::uint64_t, 4> state_{};
};

}  // namespace ns::util
