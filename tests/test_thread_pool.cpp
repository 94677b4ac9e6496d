/**
 * @file
 * Tests for the work-stealing thread pool: submit/wait semantics,
 * exception propagation through futures, destruction with pending work,
 * result ordering via futures, concurrent producers, and work stealing
 * past a blocked worker.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"

namespace cgct {
namespace {

TEST(ThreadPool, RunsSubmittedTasks)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);

    std::atomic<int> count{0};
    for (int i = 0; i < 64; ++i)
        pool.post([&count] { count.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, SubmitReturnsValues)
{
    ThreadPool pool(3);
    std::vector<std::future<int>> futures;
    for (int i = 0; i < 32; ++i)
        futures.push_back(pool.submit([i] { return i * i; }));
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture)
{
    ThreadPool pool(2);
    auto ok = pool.submit([] { return 7; });
    auto bad = pool.submit(
        []() -> int { throw std::runtime_error("boom"); });
    EXPECT_EQ(ok.get(), 7);
    EXPECT_THROW(bad.get(), std::runtime_error);
    // The pool survives a throwing task.
    auto after = pool.submit([] { return 11; });
    EXPECT_EQ(after.get(), 11);
}

TEST(ThreadPool, DestructionDrainsPendingWork)
{
    auto count = std::make_shared<std::atomic<int>>(0);
    {
        ThreadPool pool(2);
        for (int i = 0; i < 24; ++i)
            pool.post([count] {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
                count->fetch_add(1);
            });
        // Destroyed while most tasks are still queued.
    }
    EXPECT_EQ(count->load(), 24);
}

TEST(ThreadPool, WaitIsReusable)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    pool.post([&count] { count.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(count.load(), 1);
    pool.post([&count] { count.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPool, SingleThreadPoolStillWorks)
{
    ThreadPool pool(1);
    std::vector<std::future<int>> futures;
    for (int i = 0; i < 8; ++i)
        futures.push_back(pool.submit([i] { return i; }));
    int sum = 0;
    for (auto &f : futures)
        sum += f.get();
    EXPECT_EQ(sum, 28);
}

TEST(ThreadPool, DefaultThreadsNonZero)
{
    EXPECT_GE(ThreadPool::defaultThreads(), 1u);
    ThreadPool pool;
    EXPECT_EQ(pool.size(), ThreadPool::defaultThreads());
}

TEST(ThreadPool, ManyMoreTasksThanThreads)
{
    ThreadPool pool(4);
    std::atomic<std::uint64_t> sum{0};
    for (std::uint64_t i = 1; i <= 1000; ++i)
        pool.post([&sum, i] { sum.fetch_add(i); });
    pool.wait();
    EXPECT_EQ(sum.load(), 500500u);
}

TEST(ThreadPool, WaitWithNothingPendingReturns)
{
    ThreadPool pool(2);
    pool.wait();
    pool.post([] {});
    pool.wait();
    pool.wait();
    SUCCEED();
}

TEST(ThreadPool, ConcurrentProducersLoseNoTasks)
{
    ThreadPool pool(4);
    std::atomic<std::uint64_t> sum{0};
    std::vector<std::thread> producers;
    for (std::uint64_t p = 0; p < 4; ++p) {
        producers.emplace_back([&pool, &sum, p] {
            for (std::uint64_t i = 1; i <= 250; ++i)
                pool.post([&sum, v = p * 250 + i] { sum.fetch_add(v); });
        });
    }
    for (std::thread &t : producers)
        t.join();
    pool.wait();
    EXPECT_EQ(sum.load(), 500500u);
}

/**
 * Counts arrivals and lets a waiter block, with a deadline, until a
 * target is reached — a bounded stand-in for std::latch so that a
 * scheduling bug fails the test instead of hanging it.
 */
class Gate
{
  public:
    void
    arrive()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++arrived_;
        cv_.notify_all();
    }

    bool
    waitFor(int target)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        return cv_.wait_for(lock, std::chrono::seconds(30),
                            [&] { return arrived_ >= target; });
    }

  private:
    std::mutex mutex_;
    std::condition_variable cv_;
    int arrived_ = 0;
};

TEST(ThreadPool, TasksRunConcurrentlyAcrossWorkers)
{
    // Each task waits for all four to have started, which can only
    // happen if four workers run them at the same time.
    ThreadPool pool(4);
    Gate started;
    std::vector<std::future<bool>> results;
    for (int i = 0; i < 4; ++i) {
        results.push_back(pool.submit([&started] {
            started.arrive();
            return started.waitFor(4);
        }));
    }
    for (auto &r : results)
        EXPECT_TRUE(r.get());
}

TEST(ThreadPool, TaskQueuedBehindBlockedTaskStillRuns)
{
    // The first task blocks its worker until the last task has run;
    // round-robin placement queues the last task on the blocked
    // worker's deque, so the idle sibling has to steal it.
    ThreadPool pool(2);
    Gate lastRan;
    auto blocker = pool.submit([&lastRan] { return lastRan.waitFor(1); });
    auto middle = pool.submit([] { return 1; });
    auto last = pool.submit([&lastRan] { lastRan.arrive(); });
    EXPECT_TRUE(blocker.get());
    EXPECT_EQ(middle.get(), 1);
    last.get();
}

TEST(ThreadPool, SingleWorkerSurvivesThrowingTasks)
{
    ThreadPool pool(1);
    std::vector<std::future<int>> futures;
    for (int i = 0; i < 6; ++i) {
        futures.push_back(pool.submit([i]() -> int {
            if (i % 2 == 0)
                throw std::runtime_error("even");
            return i;
        }));
    }
    int sum = 0;
    for (int i = 0; i < 6; ++i) {
        if (i % 2 == 0)
            EXPECT_THROW(futures[i].get(), std::runtime_error);
        else
            sum += futures[i].get();
    }
    EXPECT_EQ(sum, 1 + 3 + 5);
}

} // namespace
} // namespace cgct
