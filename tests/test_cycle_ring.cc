/**
 * @file
 * Unit tests for the cycle ring behind the MSHR files and the
 * hierarchy's outstanding-miss counters. The ring replaced plain
 * vectors with erase_if + min-scan, so most tests here cross-check
 * against exactly that naive model, including under fuzzed inputs —
 * any divergence would show up as a stat-gate break in the simulator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/cycle_ring.hh"
#include "common/random.hh"
#include "common/types.hh"

using namespace cdfsim;

// --- MonotonicCycleRing ---

TEST(MonotonicCycleRing, PushPruneEarliest)
{
    MonotonicCycleRing r(4);
    EXPECT_TRUE(r.empty());
    r.push(30);
    r.push(10);
    r.push(20);
    EXPECT_EQ(r.size(), 3u);
    EXPECT_EQ(r.earliest(), 10u);
    r.pruneUpTo(10); // boundary: cycle == now expires
    EXPECT_EQ(r.size(), 2u);
    EXPECT_EQ(r.earliest(), 20u);
    r.pruneUpTo(19); // boundary: cycle == now + 1 survives
    EXPECT_EQ(r.earliest(), 20u);
    r.pruneUpTo(100);
    EXPECT_TRUE(r.empty());
}

TEST(MonotonicCycleRing, DuplicateCyclesAllExpireTogether)
{
    MonotonicCycleRing r(4);
    r.push(50);
    r.push(50);
    r.push(50);
    r.pruneUpTo(49);
    EXPECT_EQ(r.size(), 3u);
    r.pruneUpTo(50);
    EXPECT_TRUE(r.empty());
}

TEST(MonotonicCycleRing, WrapsAroundWithoutGrowing)
{
    // Prune/push cycles push head_ far past the capacity, so the
    // live window straddles the physical end of the buffer.
    MonotonicCycleRing r(4);
    ASSERT_EQ(r.capacity(), 4u);
    Cycle t = 0;
    for (int lap = 0; lap < 100; ++lap) {
        r.push(t + 7);
        r.push(t + 3);
        r.push(t + 5);
        EXPECT_EQ(r.earliest(), t + 3);
        r.pruneUpTo(t + 4);
        EXPECT_EQ(r.size(), 2u);
        EXPECT_EQ(r.earliest(), t + 5);
        r.pruneUpTo(t + 10);
        EXPECT_TRUE(r.empty());
        t += 10;
    }
    EXPECT_EQ(r.capacity(), 4u); // never needed to grow
}

TEST(MonotonicCycleRing, GrowsAtCapacityPreservingOrder)
{
    MonotonicCycleRing r(2);
    ASSERT_EQ(r.capacity(), 2u);
    // Insert in descending order so every push shifts, and force
    // growth mid-stream with a wrapped head.
    r.push(1);
    r.pruneUpTo(1); // head_ now nonzero
    for (Cycle c = 40; c > 0; --c)
        r.push(c);
    EXPECT_EQ(r.size(), 40u);
    EXPECT_GE(r.capacity(), 40u);
    for (Cycle c = 1; c <= 40; ++c) {
        EXPECT_EQ(r.earliest(), c);
        r.pruneUpTo(c);
    }
    EXPECT_TRUE(r.empty());
}

TEST(MonotonicCycleRing, FuzzAgainstVectorModel)
{
    // The MSHR file used to be: vector of in-flight completion
    // cycles, erase_if(c <= now), then *min_element for the
    // backpressure decision. Replay a mixed workload against that.
    MonotonicCycleRing r(2);
    std::vector<Cycle> model;
    Random rng(0xC0FFEE);
    Cycle now = 0;
    for (int step = 0; step < 20000; ++step) {
        if (rng.below(3) != 0) {
            // Mostly near-in-order arrivals, like DRAM ready times.
            const Cycle c = now + 1 + rng.below(200);
            r.push(c);
            model.push_back(c);
        } else {
            now += rng.below(64);
            r.pruneUpTo(now);
            std::erase_if(model,
                          [&](Cycle c) { return c <= now; });
        }
        ASSERT_EQ(r.size(), model.size()) << "step " << step;
        if (!model.empty()) {
            ASSERT_EQ(r.earliest(),
                      *std::min_element(model.begin(), model.end()))
                << "step " << step;
        }
    }
}

// --- The MLP-counter usage: prune to "now", then read size() ---

TEST(MonotonicCycleRing, NonMonotonePruneIsSticky)
{
    // The old erase_if model never resurrected entries when queried
    // with an earlier cycle; the ring must behave the same way.
    MonotonicCycleRing r(8);
    r.push(10);
    r.pruneUpTo(10);
    EXPECT_TRUE(r.empty());
    r.pruneUpTo(3); // no-op, not a rewind
    EXPECT_TRUE(r.empty());
    r.push(12);
    r.pruneUpTo(3);
    EXPECT_EQ(r.size(), 1u);
    EXPECT_EQ(r.earliest(), 12u);
}

TEST(MonotonicCycleRing, LatePushExpiresAtNextPrune)
{
    // A completion at or before the last prune is already over: the
    // next sample at that cycle must not count it.
    MonotonicCycleRing r(8);
    r.pruneUpTo(100);
    r.push(100);
    r.push(99);
    r.pruneUpTo(100);
    EXPECT_TRUE(r.empty());
    r.push(101);
    r.pruneUpTo(100);
    EXPECT_EQ(r.size(), 1u);
}

TEST(MonotonicCycleRing, KeepsFarFutureCompletions)
{
    // DRAM bank queueing can put a completion thousands of cycles
    // out; the ring holds it however far ahead it lands.
    MonotonicCycleRing r(4);
    r.push(2);
    r.push(3);
    r.push(5000);
    EXPECT_EQ(r.size(), 3u);
    EXPECT_EQ(r.capacity(), 4u); // far-future does not mean growth
    r.pruneUpTo(3);
    EXPECT_EQ(r.size(), 1u);
    EXPECT_EQ(r.earliestOrNever(), 5000u);
    r.pruneUpTo(4999);
    EXPECT_EQ(r.size(), 1u);
    r.pruneUpTo(5000);
    EXPECT_TRUE(r.empty());
    EXPECT_EQ(r.earliestOrNever(), kNeverCycle);
}

TEST(MonotonicCycleRing, FuzzSampledEveryCycleAgainstVectorModel)
{
    // The hierarchy's outstanding-miss queues used to be vectors of
    // completion cycles with erase_if(c <= now) on every sample;
    // size() after pruneUpTo(now) must match that count exactly
    // under arbitrary interleavings of pushes, samples and idle
    // stretches, and earliestOrNever() must give the next change.
    MonotonicCycleRing r(2);
    std::vector<Cycle> model;
    Random rng(0xFEED);
    Cycle now = 0;
    for (int step = 0; step < 20000; ++step) {
        const auto action = rng.below(4);
        if (action == 0) {
            now += rng.below(300); // idle gap, possibly huge
        } else if (action == 1) {
            // Occasionally a completion far in the future (DRAM
            // bank-queue drift).
            const Cycle c = now + 1 + rng.below(5000);
            r.push(c);
            model.push_back(c);
        } else {
            const Cycle c = now + 1 + rng.below(250);
            r.push(c);
            model.push_back(c);
        }
        r.pruneUpTo(now);
        std::erase_if(model, [&](Cycle c) { return c <= now; });
        ASSERT_EQ(r.size(), model.size()) << "step " << step;
        ASSERT_EQ(r.earliestOrNever(),
                  model.empty()
                      ? kNeverCycle
                      : *std::min_element(model.begin(), model.end()))
            << "step " << step;
        ++now;
    }
}
