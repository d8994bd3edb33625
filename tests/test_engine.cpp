// Unit tests for ns::engine — thread pool, deterministic Monte-Carlo
// runner, FFT plan cache.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "netscatter/dsp/fft.hpp"
#include "netscatter/engine/fft_plan.hpp"
#include "netscatter/engine/mc_runner.hpp"
#include "netscatter/engine/thread_pool.hpp"
#include "netscatter/util/error.hpp"
#include "netscatter/util/rng.hpp"

namespace {

using namespace ns::engine;

// ---------------------------------------------------------- thread_pool --

TEST(thread_pool, submit_returns_results) {
    thread_pool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    auto a = pool.submit([] { return 19; });
    auto b = pool.submit([] { return std::string("netscatter"); });
    EXPECT_EQ(a.get(), 19);
    EXPECT_EQ(b.get(), "netscatter");
}

TEST(thread_pool, zero_means_hardware_concurrency) {
    thread_pool pool(0);
    EXPECT_EQ(pool.size(), thread_pool::default_thread_count());
    EXPECT_GE(pool.size(), 1u);
}

TEST(thread_pool, parallel_for_visits_every_index_once) {
    thread_pool pool(4);
    constexpr std::size_t n = 1000;
    std::vector<std::atomic<int>> visits(n);
    pool.parallel_for(0, n, [&](std::size_t i) { ++visits[i]; }, /*grain=*/7);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(visits[i].load(), 1) << i;
}

TEST(thread_pool, parallel_for_empty_range_is_noop) {
    thread_pool pool(2);
    bool ran = false;
    pool.parallel_for(5, 5, [&](std::size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(thread_pool, submit_propagates_exceptions) {
    thread_pool pool(2);
    auto future = pool.submit([]() -> int {
        throw std::runtime_error("task failed");
    });
    EXPECT_THROW(future.get(), std::runtime_error);
    // The pool survives a throwing task.
    EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(thread_pool, parallel_for_propagates_exceptions) {
    thread_pool pool(4);
    std::atomic<int> completed{0};
    EXPECT_THROW(
        pool.parallel_for(0, 64,
                          [&](std::size_t i) {
                              if (i == 13) throw std::runtime_error("iteration 13");
                              ++completed;
                          }),
        std::runtime_error);
    // Every other iteration still ran (no early abandonment).
    EXPECT_EQ(completed.load(), 63);
}

TEST(thread_pool, queued_tasks_finish_before_shutdown) {
    std::atomic<int> sum{0};
    {
        thread_pool pool(2);
        for (int i = 0; i < 100; ++i) {
            pool.submit([&sum] { ++sum; });
        }
        pool.shutdown();
        EXPECT_EQ(sum.load(), 100);
    }
}

TEST(thread_pool, submit_after_shutdown_throws) {
    thread_pool pool(1);
    pool.shutdown();
    EXPECT_THROW(pool.submit([] { return 1; }), ns::util::invalid_state);
}

// ----------------------------------------------------------- split_seed --

TEST(split_seed, deterministic_and_distinct) {
    EXPECT_EQ(split_seed(1, 2, 3), split_seed(1, 2, 3));
    std::set<std::uint64_t> seen;
    for (std::uint64_t base : {0ULL, 1ULL, 42ULL}) {
        for (std::uint64_t stream = 0; stream < 4; ++stream) {
            for (std::uint64_t block = 0; block < 8; ++block) {
                seen.insert(split_seed(base, stream, block));
            }
        }
    }
    EXPECT_EQ(seen.size(), 3u * 4u * 8u);  // no collisions across the grid
}

// ------------------------------------------------------------ mc_runner --

mc_runner pooled(std::size_t threads) {
    return mc_runner({.num_threads = threads, .parallel = true});
}

TEST(mc_runner, run_indexed_returns_results_in_index_order) {
    // Later indices finish first (shorter sleeps), so completion order
    // is roughly reversed; the results must still come back by index.
    constexpr std::size_t count = 24;
    const auto results = pooled(4).run_indexed(count, [](std::size_t i) {
        std::this_thread::sleep_for(std::chrono::microseconds(50 * (count - i)));
        return i * i;
    });
    ASSERT_EQ(results.size(), count);
    for (std::size_t i = 0; i < count; ++i) EXPECT_EQ(results[i], i * i) << i;
}

TEST(mc_runner, run_indexed_parallel_is_bit_identical_to_serial) {
    // Each task is a pure function of its index through split_seed; the
    // non-dyadic Gaussian sums would expose any cross-task leakage or
    // reordering, bit for bit.
    const auto task = [](std::size_t i) {
        ns::util::rng gen(split_seed(2024, i, 0));
        std::vector<double> draws(64);
        double acc = 0.0;
        for (double& d : draws) {
            acc += gen.gaussian() * 1.7e-3;
            d = acc;
        }
        return draws;
    };
    constexpr std::size_t count = 37;
    const auto serial = mc_runner({.num_threads = 1, .parallel = false})
                            .run_indexed(count, task);
    ASSERT_EQ(serial.size(), count);
    for (const std::size_t threads : {1, 3, 8}) {
        const auto parallel = pooled(threads).run_indexed(count, task);
        ASSERT_EQ(parallel.size(), count) << threads;
        for (std::size_t i = 0; i < count; ++i) {
            ASSERT_EQ(parallel[i].size(), serial[i].size());
            EXPECT_EQ(0, std::memcmp(parallel[i].data(), serial[i].data(),
                                     serial[i].size() * sizeof(double)))
                << "task " << i << " at " << threads << " threads";
        }
    }
}

TEST(mc_runner, run_indexed_zero_tasks_returns_empty_without_calling) {
    std::atomic<int> calls{0};
    const auto task = [&](std::size_t i) {
        ++calls;
        return i;
    };
    EXPECT_TRUE(pooled(4).run_indexed(0, task).empty());
    EXPECT_TRUE(mc_runner({.parallel = false}).run_indexed(0, task).empty());
    EXPECT_EQ(calls.load(), 0);
}

TEST(mc_runner, run_indexed_single_task_runs_on_the_calling_thread) {
    // One task needs no pool: it runs inline even under a parallel policy.
    const auto results = pooled(4).run_indexed(
        1, [](std::size_t i) { return std::make_pair(i, std::this_thread::get_id()); });
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].first, 0u);
    EXPECT_EQ(results[0].second, std::this_thread::get_id());
}

TEST(mc_runner, run_indexed_task_exception_reaches_the_caller) {
    std::atomic<int> calls{0};
    const auto task = [&](std::size_t i) {
        ++calls;
        if (i == 3 || i == 7) throw std::runtime_error("task " + std::to_string(i));
        return i;
    };
    // Serial: the first failure stops the run.
    try {
        mc_runner({.parallel = false}).run_indexed(10, task);
        FAIL() << "serial run swallowed the exception";
    } catch (const std::runtime_error& error) {
        EXPECT_STREQ(error.what(), "task 3");
    }
    EXPECT_EQ(calls.load(), 4);
    // Parallel: every task runs, and the lowest-index failure surfaces.
    calls = 0;
    try {
        pooled(3).run_indexed(10, task);
        FAIL() << "parallel run swallowed the exception";
    } catch (const std::runtime_error& error) {
        EXPECT_STREQ(error.what(), "task 3");
    }
    EXPECT_EQ(calls.load(), 10);
}

// ------------------------------------------------------------- fft_plan --

ns::dsp::cvec random_vector(std::size_t n, std::uint64_t seed) {
    ns::util::rng gen(seed);
    ns::dsp::cvec v(n);
    for (auto& x : v) x = ns::dsp::cplx{gen.gaussian(), gen.gaussian()};
    return v;
}

TEST(fft_plan, rejects_non_power_of_two) {
    EXPECT_THROW(fft_plan(12), ns::util::invalid_argument);
    EXPECT_THROW(fft_plan(0), ns::util::invalid_argument);
}

TEST(fft_plan, forward_matches_uncached_fft_api) {
    // The plan path and the plan-free path must agree bit-for-bit: they
    // execute the same butterfly code over the same tables.
    for (const std::size_t n : {1u, 2u, 8u, 64u, 512u, 4096u}) {
        const ns::dsp::cvec input = random_vector(n, 1000 + n);

        ns::dsp::set_fft_plan_caching(false);
        const ns::dsp::cvec uncached = ns::dsp::fft(input);
        ns::dsp::set_fft_plan_caching(true);
        const ns::dsp::cvec cached = ns::dsp::fft(input);

        ASSERT_EQ(uncached.size(), cached.size());
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_EQ(uncached[i].real(), cached[i].real()) << n << ":" << i;
            EXPECT_EQ(uncached[i].imag(), cached[i].imag()) << n << ":" << i;
        }
    }
}

TEST(fft_plan, inverse_roundtrip) {
    const std::size_t n = 256;
    const ns::dsp::cvec input = random_vector(n, 5);
    ns::dsp::cvec data = input;
    const fft_plan plan(n);
    plan.forward(data);
    plan.inverse(data);
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(data[i].real(), input[i].real(), 1e-9);
        EXPECT_NEAR(data[i].imag(), input[i].imag(), 1e-9);
    }
}

TEST(fft_plan, plan_rejects_mismatched_size) {
    const fft_plan plan(64);
    ns::dsp::cvec data(32);
    EXPECT_THROW(plan.forward(data), ns::util::invalid_argument);
}

TEST(fft_plan, cache_shares_one_plan_per_size) {
    auto& cache = fft_plan_cache::instance();
    const auto a = cache.get(1024);
    const auto b = cache.get(1024);
    EXPECT_EQ(a.get(), b.get());
    EXPECT_GE(cache.cached_sizes(), 1u);
}

TEST(fft_plan, thread_scratch_resizes) {
    auto& small = fft_plan_cache::thread_scratch(16);
    EXPECT_EQ(small.size(), 16u);
    auto& big = fft_plan_cache::thread_scratch(64);
    EXPECT_EQ(big.size(), 64u);
}

TEST(fft_plan, concurrent_transforms_are_correct) {
    // Many threads hammering the same cached plan must all get the right
    // answer (shared plans are immutable; scratch is per-thread).
    const std::size_t n = 512;
    const ns::dsp::cvec input = random_vector(n, 77);
    const ns::dsp::cvec expected = ns::dsp::fft(input);

    thread_pool pool(8);
    std::atomic<int> mismatches{0};
    pool.parallel_for(0, 64, [&](std::size_t) {
        const ns::dsp::cvec out = ns::dsp::fft(input);
        for (std::size_t i = 0; i < n; ++i) {
            if (out[i] != expected[i]) ++mismatches;
        }
    });
    EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
