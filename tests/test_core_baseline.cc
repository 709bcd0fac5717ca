/**
 * @file
 * End-to-end tests of the baseline OoO core: programs retire
 * completely and in order, results match the functional
 * interpreter, and the pipeline recovers from mispredicts and
 * memory-order violations.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "isa/interpreter.hh"
#include "ooo/core.hh"
#include "workloads/workloads.hh"

using namespace cdfsim;

namespace cdfsim
{

/** Test-only read access to the core's in-flight window (the core
 *  befriends this name, forward-declared in common/audit.hh). */
struct AuditPeer
{
    /** Addresses of the wrong-path loads in flight, oldest first. */
    static std::vector<Addr>
    wrongPathLoadAddrs(const ooo::Core &c)
    {
        std::vector<Addr> addrs;
        for (std::uint32_t i = c.inflightHead_; i != ooo::kNoInst;
             i = c.inflightPool_.at(i).nextIdx) {
            const ooo::DynInst &inst = c.inflightPool_.at(i);
            if (!inst.onPath && inst.isLoad())
                addrs.push_back(inst.memAddr);
        }
        return addrs;
    }
};

} // namespace cdfsim

namespace
{

/** Small config so tests run fast and stress capacity limits. */
ooo::CoreConfig
testConfig()
{
    ooo::CoreConfig cfg;
    cfg.deadlockCycles = 200'000;
    return cfg;
}

/** Run a program to completion on the baseline core. */
ooo::CoreResult
runToHalt(const isa::Program &prog, isa::MemoryImage &mem,
          ooo::CoreConfig cfg = testConfig())
{
    StatRegistry stats;
    ooo::Core core(cfg, prog, mem, stats);
    auto r = core.run(10'000'000, 50'000'000);
    EXPECT_TRUE(core.halted()) << "program did not halt";
    return r;
}

/** Dynamic instruction count per the functional interpreter. */
std::uint64_t
functionalLength(const workloads::Workload &w, std::uint64_t cap)
{
    isa::MemoryImage mem = w.makeMemory();
    isa::Interpreter interp(w.program, mem);
    std::uint64_t n = 0;
    while (!interp.halted() && n < cap) {
        interp.step();
        ++n;
    }
    return n;
}

} // namespace

TEST(CoreBaseline, TrivialStraightLineProgram)
{
    isa::ProgramBuilder b("trivial");
    b.movi(1, 5);
    b.movi(2, 7);
    b.add(3, 1, 2);
    b.halt();
    auto prog = b.build();
    isa::MemoryImage mem;
    auto r = runToHalt(prog, mem);
    EXPECT_EQ(r.retiredInstrs, 4u);
    EXPECT_TRUE(r.halted);
}

TEST(CoreBaseline, CountedLoopRetiresExactDynamicLength)
{
    isa::ProgramBuilder b("loop");
    auto loop = b.makeLabel();
    b.movi(0, 100);
    b.bind(loop);
    b.addi(1, 1, 3);
    b.addi(0, 0, -1);
    b.bnez(0, loop);
    b.halt();
    auto prog = b.build();

    isa::MemoryImage mem;
    auto r = runToHalt(prog, mem);
    // 1 movi + 100 * (addi, addi, bnez) + halt
    EXPECT_EQ(r.retiredInstrs, 1u + 300u + 1u);
}

TEST(CoreBaseline, LoadStoreRoundTrip)
{
    isa::ProgramBuilder b("mem");
    b.movi(1, 0x1000);
    b.movi(2, 42);
    b.store(1, 0, 2);
    b.load(3, 1, 0);
    b.add(4, 3, 3);
    b.halt();
    auto prog = b.build();
    isa::MemoryImage mem;
    auto r = runToHalt(prog, mem);
    EXPECT_EQ(r.retiredInstrs, 6u);
}

TEST(CoreBaseline, DataDependentBranchesRecover)
{
    // Alternating-direction branch that TAGE cannot fully learn at
    // first: exercises wrong-path fetch and recovery.
    isa::ProgramBuilder b("branchy");
    auto loop = b.makeLabel();
    auto skip = b.makeLabel();
    b.movi(0, 500);
    b.movi(5, 0);
    b.bind(loop);
    b.movi(6, 1);
    b.and_(7, 0, 6);
    b.beqz(7, skip);
    b.addi(5, 5, 1);
    b.bind(skip);
    b.addi(0, 0, -1);
    b.bnez(0, loop);
    b.halt();
    auto prog = b.build();
    isa::MemoryImage mem;
    auto r = runToHalt(prog, mem);
    // 2 setup + 500 iterations x 5 uops + 250 taken-path addis + halt.
    EXPECT_EQ(r.retiredInstrs, 2753u);
    EXPECT_TRUE(r.halted);
}

TEST(CoreBaseline, RandomWorkloadsRetireFunctionalLength)
{
    for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
        auto w = workloads::makeRandomWorkload(seed, 6, 50);
        const std::uint64_t want = functionalLength(w, 5'000'000);
        ASSERT_LT(want, 5'000'000u) << "random program does not halt";

        isa::MemoryImage mem = w.makeMemory();
        StatRegistry stats;
        ooo::Core core(testConfig(), w.program, mem, stats);
        auto r = core.run(10'000'000, 50'000'000);
        EXPECT_TRUE(core.halted()) << "seed " << seed;
        EXPECT_EQ(r.retiredInstrs, want) << "seed " << seed;
    }
}

TEST(CoreBaseline, IpcIsPlausibleOnAluKernel)
{
    // A pure ALU loop with independent chains should sustain a
    // reasonable IPC on a 6-wide core.
    isa::ProgramBuilder b("alu");
    auto loop = b.makeLabel();
    b.movi(0, 20000);
    b.bind(loop);
    for (RegId r = 8; r < 20; ++r)
        b.addi(r, r, 1);
    b.addi(0, 0, -1);
    b.bnez(0, loop);
    b.halt();
    auto prog = b.build();
    isa::MemoryImage mem;
    auto r = runToHalt(prog, mem);
    EXPECT_GT(r.ipc, 2.0) << "suspiciously low ALU IPC";
    EXPECT_LE(r.ipc, 6.01);
}

TEST(CoreBaseline, PaperWorkloadsRunUnderBaseline)
{
    for (const auto &name : {"astar", "mcf", "lbm"}) {
        auto w = workloads::makeWorkload(name);
        isa::MemoryImage mem = w.makeMemory();
        StatRegistry stats;
        ooo::Core core(testConfig(), w.program, mem, stats);
        auto r = core.run(30'000, 50'000'000);
        EXPECT_GE(r.retiredInstrs, 30'000u) << name;
        EXPECT_GT(r.ipc, 0.01) << name;
    }
}

TEST(CoreBaseline, WrongPathRecordExecutesOnceAcrossIcacheMiss)
{
    // A cold branch, predicted taken, that falls through and resolves
    // late (its condition waits on two dependent DRAM loads) sends
    // fetch down its target: a cold I-cache line opening with a
    // self-dependent addi and a load through its result. The record
    // the walker produces there must survive the I-cache miss and be
    // fetched after the fill, not walked a second time, so the load
    // sees r5 advanced by 8 exactly once.
    constexpr Addr kPtr = 0x100000;
    constexpr Addr kFlag = 0x180000;
    constexpr Addr kWrongBase = 0x200000;
    isa::ProgramBuilder b("wrongpath_icache_miss");
    auto wrong = b.makeLabel();
    b.movi(1, static_cast<std::int64_t>(kPtr));
    b.movi(5, static_cast<std::int64_t>(kWrongBase));
    b.load(2, 1, 0); // r2 = kFlag
    b.load(3, 2, 0); // r3 = 1: the branch falls through
    while (b.here() % 8 != 7)
        b.nop();
    b.beqz(3, wrong);
    b.halt();
    while (b.here() % 8 != 0) // the target opens its own I-cache line
        b.nop();
    b.bind(wrong);
    b.addi(5, 5, 8);
    b.load(6, 5, 0);
    b.halt();
    auto prog = b.build();

    isa::MemoryImage mem;
    mem.write(kPtr, kFlag);
    mem.write(kFlag, 1);
    StatRegistry stats;
    ooo::Core core(testConfig(), prog, mem, stats);
    std::set<Addr> seen;
    while (!core.halted() && core.cycle() < 100'000) {
        core.run(~std::uint64_t{0}, core.cycle() + 1);
        for (Addr a : AuditPeer::wrongPathLoadAddrs(core))
            seen.insert(a);
    }
    ASSERT_TRUE(core.halted());
    EXPECT_GT(stats.get("core.mispredicts"), 0u)
        << "the branch did not mispredict";
    ASSERT_FALSE(seen.empty()) << "the wrong-path load was never fetched";
    // A second walk of the addi would put the load at kWrongBase + 16.
    EXPECT_EQ(seen, std::set<Addr>{kWrongBase + 8});
}
