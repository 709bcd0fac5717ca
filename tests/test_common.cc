/**
 * @file
 * Unit tests for the foundation utilities: saturating counters,
 * circular queues, the stat registry, the running mean, the PRNG,
 * the logging helpers and the snapshot archive primitives.
 */

#include <gtest/gtest.h>

#include <array>
#include <bitset>
#include <cstdlib>
#include <deque>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/circular_queue.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/sat_counter.hh"
#include "common/serialize.hh"
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

// --- Snapshot archive primitives ---

namespace
{

enum class SmallEnum : std::uint8_t { A, B = 200 };
enum class WideEnum : std::uint32_t { X = 0xDEADBEEFu };

/** A field-list type with derived state and a nested member. */
struct Probe
{
    std::uint16_t a = 0;
    SatCounter nested{4};
    unsigned twiceA = 0; //!< derived: rebuilt by afterRestore()

    template <class Self, class Ar>
    static void
    snapFields(Self &p, Ar &ar)
    {
        ar.io(p.a, p.nested);
    }

    void afterRestore() { twiceA = 2u * a; }
};

/** io() @p v, read it back into @p back; returns the bytes written. */
template <typename T>
std::size_t
roundTrip(const T &v, T &back)
{
    SnapWriter w;
    w.io(v);
    SnapReader r(w.bytes());
    r.io(back);
    EXPECT_TRUE(r.done());
    return w.size();
}

} // namespace

TEST(Snapshot, IoWidthComesFromTheFieldType)
{
    bool b = false;
    EXPECT_EQ(roundTrip(true, b), 1u);
    EXPECT_TRUE(b);
    std::uint8_t u8 = 0;
    EXPECT_EQ(roundTrip<std::uint8_t>(0xAB, u8), 1u);
    EXPECT_EQ(u8, 0xAB);
    std::int8_t i8 = 0;
    EXPECT_EQ(roundTrip<std::int8_t>(-5, i8), 1u);
    EXPECT_EQ(i8, -5);
    std::uint16_t u16 = 0;
    EXPECT_EQ(roundTrip<std::uint16_t>(0xBEEF, u16), 2u);
    EXPECT_EQ(u16, 0xBEEF);
    std::uint32_t u32 = 0;
    EXPECT_EQ(roundTrip<std::uint32_t>(0xCAFEF00Du, u32), 4u);
    EXPECT_EQ(u32, 0xCAFEF00Du);
    std::uint64_t u64 = 0;
    EXPECT_EQ(roundTrip<std::uint64_t>(~std::uint64_t{0} - 7, u64), 8u);
    EXPECT_EQ(u64, ~std::uint64_t{0} - 7);
    std::int64_t i64 = 0;
    EXPECT_EQ(roundTrip<std::int64_t>(-123'456'789'012, i64), 8u);
    EXPECT_EQ(i64, -123'456'789'012);
    double f64 = 0.0;
    EXPECT_EQ(roundTrip(-1.0 / 3.0, f64), 8u);
    EXPECT_EQ(f64, -1.0 / 3.0); // bit-exact
    SmallEnum small = SmallEnum::A;
    EXPECT_EQ(roundTrip(SmallEnum::B, small), 1u);
    EXPECT_EQ(small, SmallEnum::B);
    WideEnum wide{};
    EXPECT_EQ(roundTrip(WideEnum::X, wide), 4u);
    EXPECT_EQ(wide, WideEnum::X);
    std::string str;
    EXPECT_EQ(roundTrip(std::string("cdf"), str), 8u + 3u);
    EXPECT_EQ(str, "cdf");
}

TEST(Snapshot, IoCompositesAndFieldLists)
{
    std::array<std::uint16_t, 3> arr{};
    EXPECT_EQ(roundTrip(std::array<std::uint16_t, 3>{1, 2, 3}, arr), 6u);
    EXPECT_EQ(arr, (std::array<std::uint16_t, 3>{1, 2, 3}));
    std::pair<std::uint32_t, std::uint64_t> pair;
    EXPECT_EQ(roundTrip(std::make_pair(7u, std::uint64_t{9}), pair), 12u);
    EXPECT_EQ(pair, std::make_pair(7u, std::uint64_t{9}));

    // Bitsets travel as 64-bit chunks, lowest first.
    std::bitset<70> bits;
    bits.set(0).set(63).set(69);
    std::bitset<70> bitsBack;
    EXPECT_EQ(roundTrip(bits, bitsBack), 16u);
    EXPECT_EQ(bitsBack, bits);

    // A field list recurses into nested members, and the reader
    // rebuilds derived state afterwards.
    Probe probe;
    probe.a = 21;
    probe.nested.set(9);
    Probe probeBack;
    EXPECT_EQ(roundTrip(probe, probeBack), 2u + 4u);
    EXPECT_EQ(probeBack.a, 21);
    EXPECT_EQ(probeBack.nested.value(), 9u);
    EXPECT_EQ(probeBack.twiceA, 42u);
}

TEST(Snapshot, LittleEndianAndExplicitWidths)
{
    SnapWriter w;
    w.io(std::uint32_t{0x01020304});
    EXPECT_EQ(w.bytes(), (std::vector<std::uint8_t>{4, 3, 2, 1}));

    // Fields stored wider than their in-memory type.
    const int signedField = -7;
    const unsigned unsignedField = 5;
    SnapWriter wide;
    wide.i64(signedField);
    wide.u64(unsignedField);
    EXPECT_EQ(wide.size(), 16u);
    int signedBack = 0;
    unsigned unsignedBack = 0;
    SnapReader r(wide.bytes());
    r.i64(signedBack);
    r.u64(unsignedBack);
    EXPECT_TRUE(r.done());
    EXPECT_EQ(signedBack, -7);
    EXPECT_EQ(unsignedBack, 5u);
}

TEST(Snapshot, SequencePrefixesAreU32OrU64)
{
    const std::vector<std::uint16_t> v{1, 2, 3};
    SnapWriter w32;
    w32.seq32(v);
    EXPECT_EQ(w32.size(), 4u + 3u * 2u);
    SnapWriter w64;
    w64.seq64(v);
    EXPECT_EQ(w64.size(), 8u + 3u * 2u);

    std::vector<std::uint16_t> back32{9, 9, 9, 9, 9}; // replaced
    SnapReader r32(w32.bytes());
    r32.seq32(back32);
    EXPECT_EQ(back32, v);
    std::deque<std::uint16_t> back64;
    SnapReader r64(w64.bytes());
    r64.seq64(back64);
    EXPECT_EQ(std::vector<std::uint16_t>(back64.begin(), back64.end()),
              v);

    // vector<bool> elements, a custom element codec, and a bare
    // length prefix whose elements follow other fields.
    const std::vector<bool> bits{true, false, true};
    const std::vector<std::uint64_t> wideVals{5, 6};
    SnapWriter w;
    w.seq32(bits);
    w.seq32(wideVals, [](auto &a, auto &e) { a.u64(e + 1); });
    w.len64(v);
    w.io(std::uint8_t{77});
    for (std::uint16_t e : v)
        w.io(e);
    EXPECT_EQ(w.size(), (4u + 3u) + (4u + 16u) + (8u + 1u + 6u));

    std::vector<bool> bitsBack;
    std::vector<std::uint64_t> wideBack;
    std::vector<std::uint16_t> lenBack;
    std::uint8_t between = 0;
    SnapReader r(w.bytes());
    r.seq32(bitsBack);
    r.seq32(wideBack, [](auto &a, auto &e) { e = a.u64() - 1; });
    r.len64(lenBack);
    r.io(between);
    for (std::uint16_t &e : lenBack)
        r.io(e);
    EXPECT_TRUE(r.done());
    EXPECT_EQ(bitsBack, bits);
    EXPECT_EQ(wideBack, wideVals);
    EXPECT_EQ(between, 77);
    EXPECT_EQ(lenBack, v);
}

TEST(Snapshot, KeySortedMapBytesIgnoreHashOrder)
{
    std::unordered_map<std::uint64_t, std::uint64_t> a;
    std::unordered_map<std::uint64_t, std::uint64_t> b;
    for (std::uint64_t k = 0; k < 64; ++k) {
        a[k * 977] = k;
        b[(63 - k) * 977] = 63 - k;
    }
    SnapWriter wa;
    wa.keySorted(a);
    SnapWriter wb;
    wb.keySorted(b);
    EXPECT_EQ(wa.bytes(), wb.bytes());
    EXPECT_EQ(wa.size(), 8u + 64u * 16u);

    std::unordered_map<std::uint64_t, std::uint64_t> back{{1, 1}};
    SnapReader r(wa.bytes());
    r.keySorted(back);
    EXPECT_TRUE(r.done());
    EXPECT_EQ(back, a);
}

TEST(Snapshot, EachCodesContainerElements)
{
    // Pointers into a pool travel as indices (the core's DynInst
    // handle encoding in miniature).
    std::array<int, 4> pool{10, 20, 30, 40};
    CircularQueue<int *> q(4);
    q.push(&pool[2]);
    q.push(&pool[0]);
    SnapWriter w;
    w.each(q, [&](auto &a, int *const &p) {
        a.u32(static_cast<std::uint32_t>(p - pool.data()));
    });
    EXPECT_EQ(w.size(), 3u * 8u + 2u * 4u);

    CircularQueue<int *> back(4);
    SnapReader r(w.bytes());
    r.each(back, [&](auto &a, int *&p) { p = &pool[a.u32()]; });
    EXPECT_TRUE(r.done());
    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(*back.at(0), 30);
    EXPECT_EQ(*back.at(1), 10);
}

TEST(Snapshot, EchoMismatchPanics)
{
    SnapWriter w;
    w.echo(std::uint32_t{512}, "phys reg count");
    EXPECT_EQ(w.size(), 4u);
    {
        SnapReader r(w.bytes());
        EXPECT_NO_THROW(r.echo(std::uint32_t{512}, "phys reg count"));
        EXPECT_TRUE(r.done());
    }
    SnapReader r(w.bytes());
    EXPECT_THROW(r.echo(std::uint32_t{256}, "phys reg count"),
                 PanicError);

    // A capacity echoed by a container's field list.
    CircularQueue<std::uint8_t> q(8);
    SnapWriter wq;
    wq.io(q);
    CircularQueue<std::uint8_t> smaller(4);
    SnapReader rq(wq.bytes());
    EXPECT_THROW(rq.io(smaller), PanicError);
}

TEST(Snapshot, TruncatedStreamUnderruns)
{
    SnapWriter w;
    w.io(std::uint64_t{42}, std::string("abc"));
    w.seq32(std::vector<std::uint64_t>{1, 2, 3});
    const std::vector<std::uint8_t> &full = w.bytes();

    // Every strict prefix of the stream fails loudly, never silently.
    for (std::size_t cut = 0; cut < full.size(); ++cut) {
        const std::vector<std::uint8_t> part(full.begin(),
                                             full.begin() + cut);
        SnapReader r(part);
        std::uint64_t u = 0;
        std::string s;
        std::vector<std::uint64_t> v;
        EXPECT_THROW(
            {
                r.io(u, s);
                r.seq32(v);
            },
            PanicError)
            << "prefix of " << cut << " bytes";
    }

    // A corrupt length is rejected before anything is allocated.
    SnapWriter huge;
    huge.u32(0xFFFF'FFFFu);
    std::vector<std::uint64_t> v;
    SnapReader r(huge.bytes());
    EXPECT_THROW(r.seq32(v), PanicError);
    EXPECT_TRUE(v.empty());
}
