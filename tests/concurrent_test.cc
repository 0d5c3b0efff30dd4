/**
 * @file
 * Unit and concurrency tests for the lock-free queues and the thread
 * pool.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "concurrent/mpmc_queue.h"
#include "concurrent/ms_queue.h"
#include "concurrent/thread_pool.h"

namespace pccheck {
namespace {

TEST(MpmcQueueTest, FifoSingleThread)
{
    MpmcBoundedQueue<int> queue(8);
    for (int i = 0; i < 8; ++i) {
        EXPECT_TRUE(queue.try_enqueue(i));
    }
    EXPECT_FALSE(queue.try_enqueue(99));  // full
    for (int i = 0; i < 8; ++i) {
        const auto v = queue.try_dequeue();
        ASSERT_TRUE(v.has_value());
        EXPECT_EQ(*v, i);
    }
    EXPECT_FALSE(queue.try_dequeue().has_value());  // empty
}

TEST(MpmcQueueTest, CapacityRoundsToPowerOfTwo)
{
    MpmcBoundedQueue<int> queue(5);
    EXPECT_EQ(queue.capacity(), 8u);
}

TEST(MpmcQueueTest, WrapAroundPreservesFifo)
{
    MpmcBoundedQueue<int> queue(4);
    for (int round = 0; round < 100; ++round) {
        EXPECT_TRUE(queue.try_enqueue(round));
        const auto v = queue.try_dequeue();
        ASSERT_TRUE(v.has_value());
        EXPECT_EQ(*v, round);
    }
}

/** Multi-producer multi-consumer: no loss, no duplication. */
template <typename Queue>
void
run_mpmc_stress(Queue& queue, int producers, int consumers,
                int items_per_producer)
{
    std::atomic<int> produced{0};
    std::atomic<int> consumed{0};
    std::atomic<long long> sum_consumed{0};
    std::vector<std::thread> threads;
    for (int producer = 0; producer < producers; ++producer) {
        threads.emplace_back([&, producer] {
            for (int i = 0; i < items_per_producer; ++i) {
                const int value = producer * items_per_producer + i;
                while (!queue.try_enqueue(value)) {
                    std::this_thread::yield();
                }
                produced.fetch_add(1);
            }
        });
    }
    const int total = producers * items_per_producer;
    for (int consumer = 0; consumer < consumers; ++consumer) {
        threads.emplace_back([&] {
            while (consumed.load() < total) {
                const auto v = queue.try_dequeue();
                if (v.has_value()) {
                    sum_consumed.fetch_add(*v);
                    consumed.fetch_add(1);
                } else {
                    std::this_thread::yield();
                }
            }
        });
    }
    for (auto& thread : threads) {
        thread.join();
    }
    EXPECT_EQ(consumed.load(), total);
    const long long expected =
        static_cast<long long>(total) * (total - 1) / 2;
    EXPECT_EQ(sum_consumed.load(), expected);
}

TEST(MpmcQueueTest, MultiProducerMultiConsumerStress)
{
    MpmcBoundedQueue<int> queue(64);
    run_mpmc_stress(queue, 3, 3, 400);
}

TEST(MsQueueTest, FifoSingleThread)
{
    MsQueue<int> queue(8);
    for (int i = 0; i < 8; ++i) {
        EXPECT_TRUE(queue.try_enqueue(i));
    }
    EXPECT_FALSE(queue.try_enqueue(99));  // pool exhausted
    for (int i = 0; i < 8; ++i) {
        const auto v = queue.try_dequeue();
        ASSERT_TRUE(v.has_value());
        EXPECT_EQ(*v, i);
    }
    EXPECT_FALSE(queue.try_dequeue().has_value());
}

TEST(MsQueueTest, NodeReuseAfterDequeue)
{
    MsQueue<int> queue(2);
    for (int round = 0; round < 1000; ++round) {
        EXPECT_TRUE(queue.try_enqueue(round));
        EXPECT_TRUE(queue.try_enqueue(round + 1));
        EXPECT_EQ(queue.try_dequeue().value(), round);
        EXPECT_EQ(queue.try_dequeue().value(), round + 1);
    }
}

TEST(MsQueueTest, MultiProducerMultiConsumerStress)
{
    MsQueue<int> queue(64);
    run_mpmc_stress(queue, 3, 3, 400);
}

TEST(ThreadPoolTest, RunsAllTasks)
{
    ThreadPool pool(4);
    std::atomic<int> ran{0};
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 100; ++i) {
        futures.push_back(pool.submit([&ran] { ran.fetch_add(1); }));
    }
    for (auto& future : futures) {
        future.get();
    }
    EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPoolTest, WaitIdleBlocksUntilDrained)
{
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    for (int i = 0; i < 20; ++i) {
        pool.submit([&ran] {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            ran.fetch_add(1);
        });
    }
    pool.wait_idle();
    EXPECT_EQ(ran.load(), 20);
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks)
{
    std::atomic<int> ran{0};
    {
        ThreadPool pool(1);
        for (int i = 0; i < 10; ++i) {
            pool.submit([&ran] { ran.fetch_add(1); });
        }
    }
    EXPECT_EQ(ran.load(), 10);
}

TEST(ThreadPoolTest, ExceptionPropagatesThroughFuture)
{
    ThreadPool pool(1);
    auto future = pool.submit([] { throw std::runtime_error("task"); });
    EXPECT_THROW(future.get(), std::runtime_error);
}

}  // namespace
}  // namespace pccheck
