/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot components:
 * DRAM channel scheduling, TLB lookups, page-table walk paths,
 * first-touch frame allocation, the fast path's per-page translation,
 * trace generation, and a small end-to-end simulation. These track
 * simulator performance itself (simulated-cycles-per-second), not
 * paper results.
 *
 * Perf-baseline mode (no google-benchmark involved):
 *
 *   bench_micro_components --baseline-out FILE
 *     runs a fixed set of golden mixes under both fidelities and
 *     writes one JSON line per (case, fidelity) with the wall clock
 *     (median of 5 timed runs), run-loop iterations, and global
 *     cycles. The committed result (bench/BENCH_micro.json) is the
 *     PR-over-PR speed ratchet.
 *
 *   bench_micro_components --baseline-check FILE
 *     re-runs the same cases and compares: loop_iterations and
 *     global_cycles must match the baseline exactly (they are
 *     deterministic; a mismatch means behavior or loop-visit
 *     regressions, regenerate alongside the goldens), while wall
 *     clocks are compared RELATIVELY — normalized by the ratio of
 *     total exact-fidelity wall clock, so a uniformly faster/slower
 *     machine cancels out — and any case slower than baseline by
 *     >15% (+0.1 s absolute slack against sub-second jitter) fails.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/experiment.hh"
#include "analysis/golden.hh"
#include "common/atomic_file.hh"
#include "common/fidelity.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "dram/dram_system.hh"
#include "mem/memory_backend.hh"
#include "mmu/mmu.hh"
#include "mmu/paging.hh"
#include "mmu/tlb.hh"
#include "sim/multi_core_system.hh"
#include "sw/arch_config.hh"
#include "sw/trace_generator.hh"
#include "workloads/models.hh"

namespace
{

using namespace mnpu;

void
BM_DramChannelStream(benchmark::State &state)
{
    DramSystem dram(DramTiming::hbm2(), 1, 1, 32);
    std::uint64_t completed = 0;
    dram.setCallback([&](const DramRequest &, Cycle) { ++completed; });
    Addr addr = 0;
    Cycle now = 0;
    for (auto _ : state) {
        DramRequest request;
        request.paddr = addr;
        addr += 64;
        request.op = MemOp::Read;
        request.core = 0;
        while (!dram.tryEnqueue(request, now)) {
            dram.tick(now);
            ++now;
        }
        dram.tick(now);
        ++now;
    }
    state.counters["completed"] = static_cast<double>(completed);
}
BENCHMARK(BM_DramChannelStream);

/** Eight interleaved sequential streams on one event-driven channel:
 *  two of them write, and one request in 16 is a priority walk read
 *  to a scattered address. The streams sit on different rows of
 *  shared banks, so the queue holds hits and row conflicts on several
 *  banks at once — the shape of a co-run's FR-FCFS queue. One
 *  iteration = one admitted request. */
void
BM_DramChannelMixed(benchmark::State &state)
{
    DramSystem dram(DramTiming::hbm2(), 1, 4, 32);
    dram.setEventDriven(true);
    std::uint64_t completed = 0;
    dram.setCallback([&](const DramRequest &, Cycle) { ++completed; });
    std::array<Addr, 8> cursor{};
    for (std::size_t k = 0; k < cursor.size(); ++k)
        cursor[k] = k * ((Addr{3} << 20) + 4096);
    std::uint64_t lcg = 1;
    Cycle now = 0;
    for (auto _ : state) {
        lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
        std::size_t k = lcg >> 61;
        DramRequest request;
        request.core = static_cast<CoreId>(k % 4);
        if ((lcg >> 40) % 16 == 0) {
            request.paddr = (lcg >> 8) % (Addr{1} << 28) & ~Addr{63};
            request.op = MemOp::Read;
            request.priority = true;
        } else {
            request.paddr = cursor[k];
            cursor[k] += 64;
            request.op = k >= 6 ? MemOp::Write : MemOp::Read;
        }
        while (!dram.tryEnqueue(request, now)) {
            dram.tick(now);
            ++now;
        }
        dram.tick(now);
        ++now;
    }
    state.counters["completed"] = static_cast<double>(completed);
}
BENCHMARK(BM_DramChannelMixed);

void
BM_TlbLookupHit(benchmark::State &state)
{
    Tlb tlb(2048, 8, "bench.tlb");
    for (Addr vpn = 0; vpn < 2048; ++vpn)
        tlb.insert(0, vpn);
    Addr vpn = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(tlb.lookup(0, vpn));
        vpn = (vpn + 1) & 2047;
    }
}
BENCHMARK(BM_TlbLookupHit);

void
BM_WalkPath(benchmark::State &state)
{
    PageAllocator allocator(0, 1ULL << 30, 4096);
    PageTableModel table(allocator);
    Addr vaddr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(table.walkPath(0, vaddr));
        vaddr += 4096;
    }
}
BENCHMARK(BM_WalkPath);

/** Fresh pages per allocator before it is rebuilt (untimed), so the
 *  first-touch rows measure steady-state cost in bounded memory. */
constexpr std::uint64_t kPagesPerAllocator = 1ULL << 20;

/** First-touch translate of a dense sequential stream: the shape of
 *  every bump-allocated tensor. One iteration = one page. */
void
BM_PageAllocatorSequential(benchmark::State &state)
{
    auto allocator = std::make_unique<PageAllocator>(0, 1ULL << 40, 4096);
    Addr page = 0;
    for (auto _ : state) {
        if (page == kPagesPerAllocator) {
            state.PauseTiming();
            allocator =
                std::make_unique<PageAllocator>(0, 1ULL << 40, 4096);
            page = 0;
            state.ResumeTiming();
        }
        benchmark::DoNotOptimize(allocator->translate(0, page * 4096));
        ++page;
    }
}
BENCHMARK(BM_PageAllocatorSequential);

/** Mmu::fastTranslate over fresh 256-page runs (a typical tile
 *  phase): translate, TLB miss, walk and insert per page. The
 *  per_page counter is the host time per page. */
void
BM_FastTranslateRun(benchmark::State &state)
{
    constexpr std::uint64_t kRunPages = 256;
    struct Stack
    {
        std::unique_ptr<MemoryBackend> dram =
            makeMemoryBackend(MemBackendKind::Dram, DramTiming::hbm2(), 1,
                              1, 32, PcmConfig{}, FabricConfig{});
        PageAllocator allocator{0, 1ULL << 40, 4096};
        PageTableModel table{allocator};
        Mmu mmu{MmuConfig{}, allocator, table, *dram};
    };
    auto stack = std::make_unique<Stack>();
    Addr vpn = 0;
    std::uint64_t pages = 0;
    for (auto _ : state) {
        if (vpn == kPagesPerAllocator) {
            state.PauseTiming();
            stack = std::make_unique<Stack>();
            vpn = 0;
            state.ResumeTiming();
        }
        const Mmu::PageRun run{vpn, kRunPages};
        benchmark::DoNotOptimize(stack->mmu.fastTranslate(
            0, 0, std::span<const Mmu::PageRun>(&run, 1), 0));
        vpn += kRunPages;
        pages += kRunPages;
    }
    state.counters["per_page"] = benchmark::Counter(
        static_cast<double>(pages),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_FastTranslateRun);

void
BM_TraceGeneration(benchmark::State &state)
{
    Network network = buildModel("alex", ModelScale::Mini);
    ArchConfig arch = ArchConfig::miniNpu();
    for (auto _ : state) {
        TraceGenerator trace(arch, network);
        benchmark::DoNotOptimize(trace.tiles().size());
    }
}
BENCHMARK(BM_TraceGeneration);

void
BM_EndToEndNcf(benchmark::State &state)
{
    ArchConfig arch = ArchConfig::miniNpu();
    Network network = buildModel("ncf", ModelScale::Mini);
    auto trace = std::make_shared<TraceGenerator>(arch, network);
    for (auto _ : state) {
        SimResult result = runIdeal(trace, 1);
        state.counters["sim_cycles"] =
            static_cast<double>(result.cores[0].localCycles);
    }
}
BENCHMARK(BM_EndToEndNcf)->Unit(benchmark::kMillisecond);

// --- perf baseline mode ---

/** The ratcheted mixes: one small dual, one larger DDR4 dual, one
 *  quad — enough spread that a regression in the core loop, the DRAM
 *  scan, or the fast path moves at least one row, while a full
 *  baseline run stays under ~10 s. */
const char *const kBaselineCases[] = {
    "hbm2-dual-res-ncf-dwt",
    "ddr4-dual-ds2-gpt2-static",
    "hbm2-quad-res-yt-dlrm-ncf-dwt",
};

struct BaselineRow
{
    std::string name;
    FidelityKind fidelity = FidelityKind::Exact;
    double wallSeconds = 0;
    std::uint64_t loopIterations = 0;
    std::uint64_t globalCycles = 0;
};

/** Timed runs per case; the row reports their median wall clock. */
constexpr int kBaselineRepeats = 5;

/** Run one golden mix at @p fidelity and time runMix() alone (trace
 *  generation is pre-warmed so both fidelities measure simulation,
 *  not the shared one-time setup). The wall clock is the median of
 *  kBaselineRepeats timed runs, which all must agree on the loop
 *  iterations and cycles (they are deterministic). */
BaselineRow
runBaselineCase(const std::string &name, FidelityKind fidelity)
{
    const GoldenCase &golden = goldenCase(name);
    NpuMemConfig mem = NpuMemConfig::cloudNpu();
    mem.timing = DramTiming::preset(golden.protocol);
    ExperimentContext context(ArchConfig::miniNpu(), mem,
                              ModelScale::Mini);

    SystemConfig config;
    config.level = golden.level;
    config.dramBandwidthShares = golden.dramBandwidthShares;
    config.fidelity = fidelity;

    // Warm the trace/Ideal caches; the timed run below then measures
    // the simulation loop only.
    context.runMix(config, golden.models);

    BaselineRow row;
    row.name = name;
    row.fidelity = fidelity;
    std::vector<double> walls;
    for (int run = 0; run < kBaselineRepeats; ++run) {
        auto start = std::chrono::steady_clock::now();
        MixOutcome outcome = context.runMix(config, golden.models);
        auto stop = std::chrono::steady_clock::now();
        walls.push_back(
            std::chrono::duration<double>(stop - start).count());
        if (run > 0 && (outcome.raw.loopIterations != row.loopIterations ||
                        outcome.raw.globalCycles != row.globalCycles)) {
            fatal(name, "/", toString(fidelity),
                  ": repeated runs disagree on loop iterations or cycles");
        }
        row.loopIterations = outcome.raw.loopIterations;
        row.globalCycles = outcome.raw.globalCycles;
    }
    std::sort(walls.begin(), walls.end());
    row.wallSeconds = walls[walls.size() / 2];
    return row;
}

std::vector<BaselineRow>
runAllBaselineCases()
{
    std::vector<BaselineRow> rows;
    for (const char *name : kBaselineCases) {
        for (FidelityKind fidelity :
             {FidelityKind::Exact, FidelityKind::Fast}) {
            std::printf("  running %-32s %s\n", name,
                        toString(fidelity));
            rows.push_back(runBaselineCase(name, fidelity));
        }
    }
    return rows;
}

std::string
baselineLine(const BaselineRow &row)
{
    std::string line = "{\"case\":";
    json::appendString(line, row.name);
    json::appendField(line, "fidelity", toString(row.fidelity));
    line += ",\"wall_seconds\":";
    json::appendFixed(line, row.wallSeconds, 6);
    json::appendField(line, "loop_iterations", row.loopIterations);
    json::appendField(line, "global_cycles", row.globalCycles);
    line += "}\n";
    return line;
}

bool
parseBaselineLine(const std::string &line, BaselineRow &out)
{
    json::Value row;
    std::string fidelity;
    if (!json::parse(line, row) || !row.getField("case", out.name) ||
        !row.getField("fidelity", fidelity) ||
        !row.getField("wall_seconds", out.wallSeconds) ||
        !row.getField("loop_iterations", out.loopIterations) ||
        !row.getField("global_cycles", out.globalCycles))
        return false;
    out.fidelity = fidelitySetting().parse(fidelity);
    return true;
}

int
baselineOut(const std::string &path)
{
    std::vector<BaselineRow> rows = runAllBaselineCases();
    std::string content;
    for (const BaselineRow &row : rows)
        content += baselineLine(row);
    std::string error;
    if (!atomicWriteFile(path, content, &error)) {
        std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(),
                     error.c_str());
        return 1;
    }
    std::printf("wrote %zu baseline rows to %s\n", rows.size(),
                path.c_str());
    return 0;
}

int
baselineCheck(const std::string &path)
{
    std::map<std::pair<std::string, int>, BaselineRow> committed;
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "cannot read baseline %s\n", path.c_str());
        return 1;
    }
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        BaselineRow row;
        if (!parseBaselineLine(line, row)) {
            std::fprintf(stderr, "unparseable baseline line: %s\n",
                         line.c_str());
            return 1;
        }
        committed[{row.name, static_cast<int>(row.fidelity)}] = row;
    }

    std::vector<BaselineRow> current = runAllBaselineCases();

    // Normalize machine speed out: the exact-fidelity total is the
    // yardstick (it dominates the run and exercises the whole
    // simulator), so only RELATIVE shifts — one case or the fast path
    // regressing against the rest — fail the check.
    double committed_exact = 0, current_exact = 0;
    for (const BaselineRow &row : current) {
        auto it = committed.find(
            {row.name, static_cast<int>(row.fidelity)});
        if (it == committed.end()) {
            std::fprintf(stderr,
                         "no baseline row for %s/%s — regenerate with "
                         "--baseline-out\n",
                         row.name.c_str(), toString(row.fidelity));
            return 1;
        }
        if (row.fidelity == FidelityKind::Exact) {
            committed_exact += it->second.wallSeconds;
            current_exact += row.wallSeconds;
        }
    }
    if (committed_exact <= 0) {
        std::fprintf(stderr, "baseline has no exact-fidelity rows\n");
        return 1;
    }
    const double scale = current_exact / committed_exact;

    int failures = 0;
    std::printf("%-32s %-6s %10s %10s %8s\n", "case", "mode",
                "base(s)", "norm(s)", "ratio");
    for (const BaselineRow &row : current) {
        const BaselineRow &base =
            committed.at({row.name, static_cast<int>(row.fidelity)});
        if (row.loopIterations != base.loopIterations ||
            row.globalCycles != base.globalCycles) {
            std::fprintf(
                stderr,
                "%s/%s: determinism mismatch (loops %llu vs %llu, "
                "cycles %llu vs %llu) — behavior changed; regenerate "
                "the baseline alongside the golden fixtures\n",
                row.name.c_str(), toString(row.fidelity),
                static_cast<unsigned long long>(row.loopIterations),
                static_cast<unsigned long long>(base.loopIterations),
                static_cast<unsigned long long>(row.globalCycles),
                static_cast<unsigned long long>(base.globalCycles));
            ++failures;
            continue;
        }
        double normalized = row.wallSeconds / scale;
        double ratio = normalized / base.wallSeconds;
        std::printf("%-32s %-6s %10.3f %10.3f %8.2f\n",
                    row.name.c_str(), toString(row.fidelity),
                    base.wallSeconds, normalized, ratio);
        // 15% relative band + 0.1 s absolute slack: sub-second rows
        // (the fast fidelity) jitter more than 15% on a noisy CI box.
        if (normalized > base.wallSeconds * 1.15 + 0.1) {
            std::fprintf(stderr,
                         "%s/%s: wall-clock regression: %.3f s "
                         "normalized vs %.3f s baseline (>15%%)\n",
                         row.name.c_str(), toString(row.fidelity),
                         normalized, base.wallSeconds);
            ++failures;
        }
    }
    if (failures) {
        std::fprintf(stderr, "%d baseline check failure(s)\n", failures);
        return 1;
    }
    std::printf("baseline check ok (%zu rows, scale %.2f)\n",
                current.size(), scale);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Baseline modes bypass google-benchmark entirely.
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--baseline-out") == 0 &&
            i + 1 < argc) {
            return baselineOut(argv[i + 1]);
        }
        if (std::strcmp(argv[i], "--baseline-check") == 0 &&
            i + 1 < argc) {
            return baselineCheck(argv[i + 1]);
        }
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
