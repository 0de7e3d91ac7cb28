/**
 * @file
 * Tests for the task runtime's worker pool: every index exactly once
 * at any worker count and under concurrent callers, the forEach
 * exception contract, pool growth, the ForkGuard quiesce, and the
 * nested-forEach serial fallback that keeps a worker from
 * deadlocking on its own pool.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sim/taskrt.hh"

namespace
{

using namespace ssmt;

TEST(TaskRuntimeTest, ForEachRunsEveryIndexOnceAtAnyWorkerCount)
{
    for (unsigned workers : {1u, 2u, 5u}) {
        sim::TaskRuntime rt(workers);
        EXPECT_EQ(rt.workers(), workers);
        std::vector<std::atomic<int>> hits(97);
        rt.forEach(hits.size(),
                   [&](size_t i) { hits[i].fetch_add(1); });
        for (size_t i = 0; i < hits.size(); i++)
            EXPECT_EQ(hits[i].load(), 1) << "index " << i
                                         << " workers " << workers;
    }
}

TEST(TaskRuntimeTest, ForEachRethrowsLowestIndexedException)
{
    sim::TaskRuntime rt(4);
    std::atomic<int> completed{0};
    try {
        rt.forEach(32, [&](size_t i) {
            if (i == 5)
                throw std::runtime_error("low failure");
            if (i == 23)
                throw std::runtime_error("high failure");
            completed.fetch_add(1);
        });
        FAIL() << "expected the exception to propagate";
    } catch (const std::runtime_error &err) {
        EXPECT_STREQ(err.what(), "low failure");
    }
    // The batch drained before rethrow: every healthy index ran.
    EXPECT_EQ(completed.load(), 30);
}

TEST(TaskRuntimeTest, NestedForEachFallsBackToSerial)
{
    // A task body calling forEach on its own pool must not deadlock:
    // the inner call detects the worker context and runs serially.
    sim::TaskRuntime rt(2);
    std::atomic<int> inner_hits{0};
    rt.forEach(4, [&](size_t) {
        rt.forEach(8, [&](size_t) { inner_hits.fetch_add(1); });
    });
    EXPECT_EQ(inner_hits.load(), 32);
}

TEST(TaskRuntimeTest, EnsureWorkersGrowsButNeverShrinks)
{
    sim::TaskRuntime rt(2);
    rt.ensureWorkers(5);
    EXPECT_EQ(rt.workers(), 5u);
    rt.ensureWorkers(3);
    EXPECT_EQ(rt.workers(), 5u);

    // The grown pool still schedules correctly.
    std::atomic<int> hits{0};
    rt.forEach(64, [&](size_t) { hits.fetch_add(1); });
    EXPECT_EQ(hits.load(), 64);
}

TEST(TaskRuntimeTest, ConcurrentCallersShareOnePool)
{
    // Two client threads on one 4-wide pool, each capped at 2 — the
    // shape ssmt_server runs under two concurrent campaigns. Each
    // call must see every one of its own indices exactly once before
    // it returns.
    sim::TaskRuntime rt(4);
    constexpr size_t kIndices = 500;
    std::vector<std::atomic<int>> hits[2] = {
        std::vector<std::atomic<int>>(kIndices),
        std::vector<std::atomic<int>>(kIndices)};
    std::vector<int> miscounted[2];
    auto client = [&](int c) {
        for (int round = 0; round < 20; round++) {
            for (std::atomic<int> &h : hits[c])
                h.store(0);
            rt.forEach(
                kIndices, [&](size_t i) { hits[c][i].fetch_add(1); },
                2);
            for (size_t i = 0; i < kIndices; i++)
                if (hits[c][i].load() != 1)
                    miscounted[c].push_back(static_cast<int>(i));
        }
    };
    std::thread a(client, 0);
    std::thread b(client, 1);
    a.join();
    b.join();
    EXPECT_TRUE(miscounted[0].empty()) << miscounted[0].size();
    EXPECT_TRUE(miscounted[1].empty()) << miscounted[1].size();
}

TEST(TaskRuntimeTest, ForkGuardQuiescesInFlightTasks)
{
    // Start the shared pool, then take a ForkGuard while tasks are
    // in flight: the guard must block until they finish, and tasks
    // queued after it must still run once it releases.
    sim::TaskRuntime &rt = sim::TaskRuntime::shared();
    rt.ensureWorkers(2);
    std::atomic<int> done{0};
    std::atomic<int> in_flight{0};
    std::thread caller([&] {
        rt.forEach(16, [&](size_t) {
            in_flight.fetch_add(1);
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            done.fetch_add(1);
            in_flight.fetch_sub(1);
        }, 2);
    });
    {
        sim::TaskRuntime::ForkGuard guard;
        // Under the guard no worker is mid-task; anything observable
        // as started has fully finished its body.
        EXPECT_EQ(in_flight.load(), 0);
    }
    caller.join();
    EXPECT_EQ(done.load(), 16);
}

} // namespace
