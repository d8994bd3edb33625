// Deterministic parallel Monte-Carlo fan-out.
//
// A Monte-Carlo run is a list of independent tasks, each a pure function
// of its index that derives its RNG streams by seed-splitting
// (split_seed). mc_runner::run_indexed executes them serially or across
// a thread pool and returns the results in index order — never
// completion order — so the parallel run is bit-identical to the serial
// run on any thread count. The scenario runner fans its replicas out
// through it, and the spec sweep engine (ns::spec::run_sweep) every
// (cell, replica) pair of a sweep.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "netscatter/engine/thread_pool.hpp"

namespace ns::engine {

/// Derives an independent child seed for (stream, block) from a base
/// seed. Built on splitmix64 so nearby inputs give uncorrelated streams;
/// pure function, identical on every platform.
std::uint64_t split_seed(std::uint64_t base, std::uint64_t stream, std::uint64_t block);

/// Execution policy for a Monte-Carlo run.
struct mc_options {
    /// Unread: run_indexed tasks are whole replicas, never split into
    /// round blocks. The field stays only because the repository
    /// benchmark's runner (perfbench/runner.cpp) names it in a designated
    /// initializer; it goes with the next change to that benchmark.
    std::size_t rounds_per_task = 0;
    /// Worker threads; 0 means hardware_concurrency().
    std::size_t num_threads = 0;
    /// When false every task runs on the calling thread, in task order —
    /// the serial reference the parallel path must match bit-for-bit.
    bool parallel = true;
};

/// Runs independent indexed tasks serially or across a thread pool.
class mc_runner {
public:
    explicit mc_runner(mc_options options = {});

    /// Deterministic fan-out: runs `count` independent tasks — each a
    /// pure function of its index — serially or across a pool per the
    /// runner's options, and returns the results in index order. The
    /// parallel run is bit-identical to the serial run on any thread
    /// count. A task's exception reaches the caller: serially it stops
    /// the run at once; in parallel every task finishes first and the
    /// lowest-index failure is rethrown. The result type must be default-constructible (slots are
    /// pre-allocated) and must not be bool: std::vector<bool> packs bits,
    /// so concurrent writes to distinct indices would race — wrap a bool
    /// in a struct instead.
    template <typename Task>
    auto run_indexed(std::size_t count, Task&& task) const
        -> std::vector<std::invoke_result_t<Task&, std::size_t>> {
        using result_t = std::invoke_result_t<Task&, std::size_t>;
        static_assert(!std::is_same_v<result_t, bool>,
                      "run_indexed: bool results race in vector<bool>; "
                      "wrap the flag in a struct");
        std::vector<result_t> results(count);
        const auto run_one = [&](std::size_t i) { results[i] = task(i); };
        if (options_.parallel && count > 1) {
            thread_pool pool(pool_threads(count));
            pool.parallel_for(0, count, run_one);
        } else {
            for (std::size_t i = 0; i < count; ++i) run_one(i);
        }
        return results;
    }

private:
    /// Configured worker count clamped to the number of tasks.
    std::size_t pool_threads(std::size_t num_tasks) const;

    mc_options options_;
};

}  // namespace ns::engine
