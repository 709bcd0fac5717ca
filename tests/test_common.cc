/**
 * @file
 * Unit tests for the foundation utilities: saturating counters,
 * circular queues, the stat registry, the running mean, the PRNG and
 * the logging helpers.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>

#include "common/circular_queue.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/sat_counter.hh"
#include "common/stats.hh"

using namespace cdfsim;

// --- SatCounter ---

TEST(SatCounter, SaturatesAtMax)
{
    SatCounter c(2);
    EXPECT_EQ(c.maxValue(), 3u);
    for (int i = 0; i < 10; ++i)
        c.increment();
    EXPECT_EQ(c.value(), 3u);
    EXPECT_TRUE(c.isSaturated());
}

TEST(SatCounter, SaturatesAtZero)
{
    SatCounter c(3, 2);
    for (int i = 0; i < 10; ++i)
        c.decrement();
    EXPECT_EQ(c.value(), 0u);
}

TEST(SatCounter, IncrementByStep)
{
    SatCounter c(4);
    c.increment(6);
    EXPECT_EQ(c.value(), 6u);
    c.increment(100);
    EXPECT_EQ(c.value(), 15u);
    c.decrement(3);
    EXPECT_EQ(c.value(), 12u);
}

TEST(SatCounter, IsSetAtUpperHalf)
{
    SatCounter c(2);
    EXPECT_FALSE(c.isSet());
    c.increment();
    EXPECT_FALSE(c.isSet()); // 1 of 3
    c.increment();
    EXPECT_TRUE(c.isSet()); // 2 of 3
}

TEST(SatCounter, InitialValueClamped)
{
    SatCounter c(2, 100);
    EXPECT_EQ(c.value(), 3u);
}

TEST(SatCounter, RejectsBadWidth)
{
    EXPECT_THROW(SatCounter(0), PanicError);
    EXPECT_THROW(SatCounter(17), PanicError);
}

// --- CircularQueue ---

TEST(CircularQueue, FifoOrder)
{
    CircularQueue<int> q(4);
    q.push(1);
    q.push(2);
    q.push(3);
    EXPECT_EQ(q.pop(), 1);
    EXPECT_EQ(q.pop(), 2);
    q.push(4);
    q.push(5);
    q.push(6);
    EXPECT_TRUE(q.full());
    EXPECT_EQ(q.pop(), 3);
    EXPECT_EQ(q.pop(), 4);
    EXPECT_EQ(q.pop(), 5);
    EXPECT_EQ(q.pop(), 6);
    EXPECT_TRUE(q.empty());
}

TEST(CircularQueue, IndexedAccessFromHead)
{
    CircularQueue<int> q(8);
    for (int i = 0; i < 5; ++i)
        q.push(i * 10);
    EXPECT_EQ(q.at(0), 0);
    EXPECT_EQ(q.at(4), 40);
    EXPECT_EQ(q.front(), 0);
    EXPECT_EQ(q.back(), 40);
}

TEST(CircularQueue, TruncateDropsYoungest)
{
    CircularQueue<int> q(8);
    for (int i = 0; i < 6; ++i)
        q.push(i);
    q.truncate(3);
    EXPECT_EQ(q.size(), 3u);
    EXPECT_EQ(q.back(), 2);
    q.push(77);
    EXPECT_EQ(q.back(), 77);
}

TEST(CircularQueue, TruncateAcrossWrapAround)
{
    CircularQueue<int> q(4);
    for (int i = 0; i < 4; ++i)
        q.push(i);
    q.pop();
    q.pop();
    q.push(4);
    q.push(5); // buffer has wrapped: 2,3,4,5
    q.truncate(2);
    EXPECT_EQ(q.at(0), 2);
    EXPECT_EQ(q.at(1), 3);
}

TEST(CircularQueue, OverflowAndUnderflowPanic)
{
    CircularQueue<int> q(2);
    q.push(1);
    q.push(2);
    EXPECT_THROW(q.push(3), PanicError);
    q.clear();
    EXPECT_THROW(q.pop(), PanicError);
}

// --- StatRegistry ---

TEST(StatRegistry, CounterReferenceIsStable)
{
    StatRegistry s;
    std::uint64_t &a = s.counter("a");
    for (int i = 0; i < 100; ++i)
        s.counter("x" + std::to_string(i)) = i;
    a = 42;
    EXPECT_EQ(s.get("a"), 42u);
    EXPECT_EQ(s.get("x57"), 57u);
}

TEST(StatRegistry, PrefixQuery)
{
    StatRegistry s;
    s.counter("cache.hits") = 1;
    s.counter("cache.misses") = 2;
    s.counter("dram.reads") = 3;
    auto got = s.withPrefix("cache.");
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0].first, "cache.hits");
    EXPECT_EQ(got[1].first, "cache.misses");
}

TEST(StatRegistry, ResetAllZeroes)
{
    StatRegistry s;
    s.counter("a") = 7;
    s.counter("b") = 9;
    s.resetAll();
    EXPECT_EQ(s.get("a"), 0u);
    EXPECT_EQ(s.get("b"), 0u);
    EXPECT_TRUE(s.has("a"));
}

TEST(StatRegistry, MissingCounterReadsZero)
{
    StatRegistry s;
    EXPECT_EQ(s.get("never"), 0u);
    EXPECT_FALSE(s.has("never"));
}

TEST(StatRegistry, ReferencesSurviveResetAllAndPrefixQueries)
{
    // Components cache counter references for the lifetime of the
    // registry; resetAll() and the read-side queries must never
    // invalidate them (warmup reset happens mid-run with every
    // cached reference live).
    StatRegistry s;
    std::uint64_t &hits = s.counter("cache.hits");
    std::uint64_t &reads = s.counter("dram.reads");
    hits = 11;
    reads = 22;

    s.resetAll();
    EXPECT_EQ(hits, 0u);
    hits = 5;
    EXPECT_EQ(s.get("cache.hits"), 5u);

    auto pre = s.withPrefix("cache.");
    ASSERT_EQ(pre.size(), 1u);
    reads = 7;
    hits = 9;
    EXPECT_EQ(s.get("dram.reads"), 7u);
    EXPECT_EQ(s.get("cache.hits"), 9u);
}

TEST(StatRegistry, WithPrefixDoesNotMatchNeighbours)
{
    StatRegistry s;
    s.counter("rob.flushes") = 1;
    s.counter("rob_ext.flushes") = 2;
    s.counter("rs.issued") = 3;
    auto got = s.withPrefix("rob.");
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].first, "rob.flushes");
    EXPECT_TRUE(s.withPrefix("zzz.").empty());
}

TEST(StatRegistry, ToJsonSortedAndComplete)
{
    StatRegistry s;
    s.counter("b") = 2;
    s.counter("a") = 1;
    Json j = s.toJson();
    EXPECT_EQ(j.dump(-1), "{\"a\":1,\"b\":2}");
}

// --- Json ---

TEST(Json, ScalarsAndCompactDump)
{
    EXPECT_EQ(Json().dump(-1), "null");
    EXPECT_EQ(Json(true).dump(-1), "true");
    EXPECT_EQ(Json(false).dump(-1), "false");
    EXPECT_EQ(Json(std::int64_t{-42}).dump(-1), "-42");
    EXPECT_EQ(Json(std::uint64_t{18446744073709551615ull}).dump(-1),
              "18446744073709551615");
    EXPECT_EQ(Json("hi").dump(-1), "\"hi\"");
}

TEST(Json, DoubleFormattingRoundTripsAndStaysTyped)
{
    EXPECT_EQ(Json(0.1).dump(-1), "0.1");
    EXPECT_EQ(Json(2.0).dump(-1), "2.0")
        << "doubles must not collapse to bare integers";
    EXPECT_EQ(Json(1e-9).dump(-1), "1e-09");
    const double v = 1.0 / 3.0;
    EXPECT_EQ(std::strtod(Json(v).dump(-1).c_str(), nullptr), v);
}

TEST(Json, StringEscaping)
{
    EXPECT_EQ(Json("a\"b\\c\n").dump(-1), "\"a\\\"b\\\\c\\n\"");
    EXPECT_EQ(Json(std::string(1, '\x01')).dump(-1), "\"\\u0001\"");
}

TEST(Json, ObjectsKeepInsertionOrder)
{
    Json j = Json::object();
    j["zeta"] = 1;
    j["alpha"] = 2;
    j["zeta"] = 3; // overwrite keeps the original slot
    EXPECT_EQ(j.dump(-1), "{\"zeta\":3,\"alpha\":2}");
}

TEST(Json, NestedDumpIsDeterministic)
{
    Json j = Json::object();
    Json arr = Json::array();
    arr.push_back(1);
    arr.push_back("two");
    Json inner = Json::object();
    inner["ok"] = true;
    arr.push_back(std::move(inner));
    j["items"] = std::move(arr);
    EXPECT_EQ(j.dump(-1), "{\"items\":[1,\"two\",{\"ok\":true}]}");
    EXPECT_EQ(j.dump(-1), j.dump(-1));
    EXPECT_EQ(j.dump(2),
              "{\n  \"items\": [\n    1,\n    \"two\",\n    {\n"
              "      \"ok\": true\n    }\n  ]\n}\n");
}

// --- RunningMean ---

TEST(RunningMean, Basics)
{
    RunningMean m;
    EXPECT_DOUBLE_EQ(m.mean(), 0.0);
    m.add(2.0);
    m.add(4.0);
    EXPECT_DOUBLE_EQ(m.mean(), 3.0);
    m.reset();
    EXPECT_EQ(m.samples(), 0u);
}

// --- Random ---

TEST(Random, DeterministicGivenSeed)
{
    Random a(123), b(123), c(124);
    bool all_same = true;
    bool any_diff_seed_diff = false;
    for (int i = 0; i < 100; ++i) {
        auto va = a.next();
        if (va != b.next())
            all_same = false;
        if (va != c.next())
            any_diff_seed_diff = true;
    }
    EXPECT_TRUE(all_same);
    EXPECT_TRUE(any_diff_seed_diff);
}

TEST(Random, BelowStaysInRange)
{
    Random r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Random, BetweenInclusive)
{
    Random r(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 200; ++i) {
        auto v = r.between(3, 5);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 5u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 3u);
}

TEST(Random, UniformInUnitInterval)
{
    Random r(11);
    double sum = 0;
    for (int i = 0; i < 1000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 1000.0, 0.5, 0.05);
}

// --- Logging ---

TEST(Logging, PanicThrowsWithMessage)
{
    try {
        panic("value was ", 42);
        FAIL() << "panic returned";
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find("value was 42"),
                  std::string::npos);
    }
}

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("bad config"), FatalError);
}

TEST(Logging, SimAssertPassesAndFails)
{
    SIM_ASSERT(1 + 1 == 2);
    EXPECT_THROW(SIM_ASSERT(false, "boom"), PanicError);
}
