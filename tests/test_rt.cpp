// Tests for the in-process runtime: thread pool, barrier and the SPMD
// process group.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>

#include "fpm/rt/barrier.hpp"
#include "fpm/rt/process_group.hpp"
#include "fpm/rt/thread_pool.hpp"
#include "stress_harness.hpp"

namespace fpm::rt {
namespace {

TEST(ThreadPool, SubmitReturnsResults) {
    ThreadPool pool(3);
    auto future = pool.submit([]() { return 6 * 7; });
    EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPool, ExceptionsPropagateThroughFutures) {
    ThreadPool pool(2);
    auto future = pool.submit([]() -> int { throw fpm::Error("boom"); });
    EXPECT_THROW(future.get(), fpm::Error);
}

TEST(ThreadPool, ManyTasksAllRun) {
    ThreadPool pool(4);
    std::atomic<int> counter{0};
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 200; ++i) {
        futures.push_back(pool.submit([&counter]() { ++counter; }));
    }
    for (auto& f : futures) {
        f.get();
    }
    EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(100);
    pool.parallel_for(10, 90, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < hits.size(); ++i) {
        EXPECT_EQ(hits[i].load(), (i >= 10 && i < 90) ? 1 : 0) << i;
    }
}

TEST(ThreadPool, ParallelForEmptyRange) {
    ThreadPool pool(2);
    bool ran = false;
    pool.parallel_for(5, 5, [&](std::size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(ThreadPool, ParallelForPropagatesFirstException) {
    ThreadPool pool(4);
    EXPECT_THROW(pool.parallel_for(0, 50,
                                   [](std::size_t i) {
                                       if (i == 13) {
                                           throw fpm::Error("unlucky");
                                       }
                                   }),
                 fpm::Error);
}

TEST(ThreadPool, ZeroWorkersRejected) {
    EXPECT_THROW(ThreadPool(0), fpm::Error);
}

TEST(Barrier, SynchronisesRounds) {
    constexpr std::size_t kParties = 4;
    constexpr int kRounds = 25;
    Barrier barrier(kParties);
    std::atomic<int> phase_counter{0};
    std::vector<std::thread> threads;
    std::atomic<bool> ordering_violation{false};

    for (std::size_t p = 0; p < kParties; ++p) {
        threads.emplace_back([&]() {
            for (int round = 0; round < kRounds; ++round) {
                ++phase_counter;
                barrier.arrive_and_wait();
                // After the barrier, every party of this round has
                // incremented: the counter must be a multiple boundary.
                if (phase_counter.load() < (round + 1) * static_cast<int>(kParties)) {
                    ordering_violation = true;
                }
                barrier.arrive_and_wait();
            }
        });
    }
    for (auto& t : threads) {
        t.join();
    }
    EXPECT_FALSE(ordering_violation.load());
    EXPECT_EQ(phase_counter.load(), kRounds * static_cast<int>(kParties));
}

TEST(Barrier, SinglePartyNeverBlocks) {
    Barrier barrier(1);
    barrier.arrive_and_wait();
    barrier.arrive_and_wait();
    SUCCEED();
}

TEST(ProcessGroup, RanksAndSize) {
    ProcessGroup group(5);
    std::vector<std::atomic<int>> seen(5);
    group.run([&](ProcessContext& context) {
        EXPECT_EQ(context.size(), 5U);
        ++seen[context.rank()];
    });
    for (auto& s : seen) {
        EXPECT_EQ(s.load(), 1);
    }
}

TEST(ProcessGroup, BroadcastDeliversRootValue) {
    ProcessGroup group(6);
    std::vector<double> received(6, -1.0);
    group.run([&](ProcessContext& context) {
        const double mine = static_cast<double>(context.rank()) * 10.0;
        received[context.rank()] = context.broadcast(mine, 3);
    });
    for (const double value : received) {
        EXPECT_DOUBLE_EQ(value, 30.0);
    }
}

TEST(ProcessGroup, SequentialBroadcastRounds) {
    ProcessGroup group(4);
    std::vector<double> sums(4, 0.0);
    group.run([&](ProcessContext& context) {
        for (std::size_t root = 0; root < 4; ++root) {
            sums[context.rank()] +=
                context.broadcast(static_cast<double>(context.rank() + 1), root);
        }
    });
    for (const double sum : sums) {
        EXPECT_DOUBLE_EQ(sum, 1.0 + 2.0 + 3.0 + 4.0);
    }
}

TEST(ProcessGroup, AllReduceMax) {
    ProcessGroup group(7);
    std::vector<double> results(7, 0.0);
    group.run([&](ProcessContext& context) {
        results[context.rank()] =
            context.all_reduce_max(static_cast<double>(context.rank()));
    });
    for (const double value : results) {
        EXPECT_DOUBLE_EQ(value, 6.0);
    }
}

TEST(ProcessGroup, CoreBindingBookkeeping) {
    ProcessGroup group(3);
    group.run([&](ProcessContext& context) {
        EXPECT_EQ(context.bound_core(), -1);
        context.bind_to_core(static_cast<unsigned>(context.rank() * 2));
        EXPECT_EQ(context.bound_core(), static_cast<int>(context.rank() * 2));
    });
}

TEST(ProcessGroup, ExceptionFromOneRankPropagates) {
    ProcessGroup group(3);
    EXPECT_THROW(group.run([&](ProcessContext& context) {
        if (context.rank() == 1) {
            throw fpm::Error("rank 1 failed");
        }
        // Other ranks must not deadlock on a barrier here; they simply
        // finish their work.
    }),
                 fpm::Error);
}

// Concurrency stress: the serve layer funnels every partition request
// through the pool, so hammer it from many simultaneous submitters
// (shared harness with test_serve).
TEST(Stress, ThreadPoolSubmitStorm) {
    constexpr std::size_t kSubmitters = 12;
    static constexpr int kPerSubmitter = 200;
    ThreadPool pool(4);
    std::atomic<std::int64_t> executed{0};

    fpm::test::run_concurrently(kSubmitters, [&](std::size_t id) {
        std::vector<std::future<std::int64_t>> futures;
        futures.reserve(kPerSubmitter);
        for (int i = 0; i < kPerSubmitter; ++i) {
            futures.push_back(pool.submit([&executed, id, i]() {
                ++executed;
                return static_cast<std::int64_t>(id) * kPerSubmitter + i;
            }));
        }
        for (int i = 0; i < kPerSubmitter; ++i) {
            EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(),
                      static_cast<std::int64_t>(id) * kPerSubmitter + i);
        }
    });
    EXPECT_EQ(executed.load(),
              static_cast<std::int64_t>(kSubmitters) * kPerSubmitter);
}

TEST(ProcessGroup, Validation) {
    EXPECT_THROW(ProcessGroup(0), fpm::Error);
    ProcessGroup group(2);
    EXPECT_THROW(group.run(nullptr), fpm::Error);
}

} // namespace
} // namespace fpm::rt
