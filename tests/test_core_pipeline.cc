/**
 * @file
 * Timing-core tests: architectural correctness (co-simulation with
 * the functional executor), IPC bounds, misprediction penalties,
 * window and I-cache behaviour.
 */

#include <gtest/gtest.h>

#include "cpu/ssmt_core.hh"
#include "isa/builder.hh"
#include "isa/executor.hh"
#include "sim/sim_runner.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace ssmt;
using namespace ssmt::isa;

Program
straightLine(int n)
{
    ProgramBuilder b;
    b.li(R(1), 0);
    for (int i = 0; i < n; i++)
        b.addi(R(2), R(1), i);      // independent ops
    b.halt();
    return b.build("straight");
}

TEST(PipelineTest, ArchStateMatchesFunctionalExecutor)
{
    // Co-simulation: the timing core must compute exactly the same
    // architectural state as the plain functional executor.
    Program prog =
        workloads::makeSynthetic(workloads::SyntheticSpec{});
    RegFile ref_regs;
    MemoryImage ref_mem;
    prog.loadData(ref_mem);
    run(prog, ref_regs, ref_mem, 100'000'000);

    sim::MachineConfig cfg;
    cpu::SsmtCore core(prog, cfg);
    core.run();
    for (int r = 0; r < kNumRegs; r++) {
        EXPECT_EQ(core.archRegs().read(static_cast<RegIndex>(r)),
                  ref_regs.read(static_cast<RegIndex>(r)))
            << "r" << r;
    }
}

TEST(PipelineTest, RetiredCountMatchesFunctionalCount)
{
    Program prog =
        workloads::makeSynthetic(workloads::SyntheticSpec{});
    RegFile regs;
    MemoryImage mem;
    prog.loadData(mem);
    uint64_t functional = run(prog, regs, mem, 100'000'000);

    sim::MachineConfig cfg;
    sim::Stats stats = sim::runProgramChecked(prog, cfg, "prog");
    EXPECT_EQ(stats.retiredInsts, functional);
}

TEST(PipelineTest, IpcBoundedByFetchWidth)
{
    // A warm loop of independent ops flows wide.
    ProgramBuilder b;
    b.li(R(20), 500);
    b.label("top");
    for (int i = 0; i < 32; i++)
        b.addi(R(2), R(1), i);
    b.addi(R(20), R(20), -1);
    b.bne(R(20), R(0), "top");
    b.halt();
    sim::MachineConfig cfg;
    sim::Stats stats = sim::runProgramChecked(b.build("wide"), cfg, "wide");
    EXPECT_LE(stats.ipc(), cfg.fetchWidth);
    EXPECT_GT(stats.ipc(), 4.0);
}

TEST(PipelineTest, DependentChainSerializes)
{
    ProgramBuilder b;
    b.li(R(1), 0);
    b.li(R(20), 500);
    b.label("top");
    for (int i = 0; i < 32; i++)
        b.addi(R(1), R(1), 1);      // serial dependency
    b.addi(R(20), R(20), -1);
    b.bne(R(20), R(0), "top");
    b.halt();
    sim::MachineConfig cfg;
    sim::Stats stats = sim::runProgramChecked(b.build("chain"), cfg, "chain");
    // One-per-cycle dataflow limit (plus loop overhead and fill).
    EXPECT_LE(stats.ipc(), 1.4);
}

TEST(PipelineTest, DivChainSlowerThanAddChain)
{
    auto chain = [](Opcode op) {
        ProgramBuilder b;
        b.li(R(1), 1 << 20);
        b.li(R(2), 3);
        b.li(R(20), 100);
        b.label("top");
        for (int i = 0; i < 32; i++)
            b.raw(Inst{op, 1, 1, 2, 0});
        b.addi(R(20), R(20), -1);
        b.bne(R(20), R(0), "top");
        b.halt();
        return b.build("c");
    };
    sim::MachineConfig cfg;
    sim::Stats add_stats =
        sim::runProgramChecked(chain(Opcode::Add), cfg, "add-chain");
    sim::Stats div_stats =
        sim::runProgramChecked(chain(Opcode::Div), cfg, "div-chain");
    // The serial div chain runs ~12x slower once the I-cache warms.
    EXPECT_GT(div_stats.cycles, add_stats.cycles * 5);
}

TEST(PipelineTest, MispredictPenaltyVisible)
{
    // A branch whose direction is pseudo-random (data-driven LCG)
    // against the same loop with an always-taken branch.
    auto loop = [](bool random) {
        ProgramBuilder b;
        b.li(R(1), 12345);
        b.li(R(20), 4000);
        b.label("top");
        if (random) {
            // x = x*6364136223846793005 + 1442695040888963407
            b.li(R(2), 0x5851f42d4c957f2dll);
            b.mul(R(1), R(1), R(2));
            b.li(R(3), 0x14057b7ef767814fll);
            b.add(R(1), R(1), R(3));
            b.srli(R(4), R(1), 40);
            b.andi(R(4), R(4), 1);
        } else {
            b.li(R(4), 1);
        }
        b.beq(R(4), R(0), "skip");
        b.nop();
        b.label("skip");
        b.addi(R(20), R(20), -1);
        b.bne(R(20), R(0), "top");
        b.halt();
        return b.build(random ? "rand" : "biased");
    };
    sim::MachineConfig cfg;
    sim::Stats biased = sim::runProgramChecked(loop(false), cfg, "biased");
    sim::Stats random = sim::runProgramChecked(loop(true), cfg, "random");
    EXPECT_GT(random.usedMispredictRate(), 0.1);
    EXPECT_LT(biased.usedMispredictRate(), 0.02);
    // Each mispredict costs at least the 20-cycle redirect.
    uint64_t extra = random.cycles > biased.cycles
                         ? random.cycles - biased.cycles
                         : 0;
    EXPECT_GT(extra, random.usedMispredicts * 15);
}

TEST(PipelineTest, ColdICacheStallsFetch)
{
    // A program much larger than one I-cache line shows cold fetch
    // misses as bubbles.
    sim::MachineConfig cfg;
    sim::Stats stats =
        sim::runProgramChecked(straightLine(3000), cfg, "straight");
    EXPECT_GT(stats.fetchBubbleCycles, 0u);
}

TEST(PipelineTest, DramBoundLoopIsSlow)
{
    // Pointer-stride loop touching 8MB: every load misses.
    ProgramBuilder b;
    b.li(R(1), 0x1000000);
    b.li(R(20), 2000);
    b.label("top");
    b.ld(R(2), R(1), 0);
    b.add(R(3), R(3), R(2));
    b.addi(R(1), R(1), 4096);   // new page, new line
    b.addi(R(20), R(20), -1);
    b.bne(R(20), R(0), "top");
    b.halt();
    sim::MachineConfig cfg;
    sim::Stats stats = sim::runProgramChecked(b.build("dram"), cfg, "dram");
    // Not latency-bound per load (they are independent), but misses
    // must show up in the cache stats.
    EXPECT_GT(stats.l2Misses, 1900u);
}

TEST(PipelineTest, DeterministicAcrossRuns)
{
    Program prog =
        workloads::makeSynthetic(workloads::SyntheticSpec{});
    sim::MachineConfig cfg;
    cfg.mode = sim::Mode::Microthread;
    sim::Stats a = sim::runProgramChecked(prog, cfg, "prog");
    sim::Stats b = sim::runProgramChecked(prog, cfg, "prog");
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.retiredInsts, b.retiredInsts);
    EXPECT_EQ(a.spawns, b.spawns);
    EXPECT_EQ(a.predEarly, b.predEarly);
}

TEST(PipelineTest, MaxInstsStopsRun)
{
    ProgramBuilder b;
    b.label("forever");
    b.j("forever");
    sim::MachineConfig cfg;
    cfg.maxInsts = 5000;
    sim::Stats stats = sim::runProgramChecked(b.build("loop"), cfg, "loop");
    EXPECT_GE(stats.retiredInsts, 5000u);
    EXPECT_LT(stats.retiredInsts, 5000u + 64);
}

TEST(PipelineTest, TickGranularityExposed)
{
    Program prog = straightLine(50);
    sim::MachineConfig cfg;
    cpu::SsmtCore core(prog, cfg);
    EXPECT_EQ(core.cycle(), 0u);
    core.tick();
    EXPECT_EQ(core.cycle(), 1u);
    while (!core.done())
        core.tick();
    EXPECT_GT(core.stats().retiredInsts, 50u);
}

TEST(PipelineTest, StoreLoadForwardingThroughMemory)
{
    // A store followed by a dependent load must produce the stored
    // value architecturally.
    ProgramBuilder b;
    b.li(R(1), 0x2000);
    b.li(R(2), 77);
    b.st(R(2), R(1), 0);
    b.ld(R(3), R(1), 0);
    b.halt();
    sim::MachineConfig cfg;
    cpu::SsmtCore core(b.build("fw"), cfg);
    core.run();
    EXPECT_EQ(core.archRegs().read(3), 77u);
}

} // namespace
