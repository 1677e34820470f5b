/**
 * @file
 * Component replays for the traced corun_exact run. The co-run loop
 * interleaves every component, so its host time cannot be split by
 * layer from outside; these replays push the corun_exact traces'
 * streams through one component each and time it alone:
 *   - the 64-B page stream through Tlb::lookup/insert, and every miss
 *     through PageTableModel::walkPath;
 *   - a prefix of the 64-B request stream through the hbm2 DRAM and the
 *     pcm backends (tryEnqueue/tick until drained).
 */

#include <memory>

#include "bench.hh"
#include "mem/memory_backend.hh"
#include "mmu/paging.hh"
#include "mmu/tlb.hh"
#include "sw/trace_generator.hh"

namespace npubench
{

using namespace mnpu;

namespace
{

constexpr std::uint64_t kLineBytes = 64;
constexpr std::uint64_t kPageBytes = 4096;
constexpr std::uint64_t kBytesPerNpu = 4ULL << 30;
/** Requests replayed per mix through each backend (a cycle-level
 *  backend takes microseconds per request; the whole stream would take
 *  minutes). */
constexpr std::size_t kRequestsPerMix = 16384;

struct Line
{
    Asid asid;
    Addr vaddr;
    MemOp op;
};

/** One core's 64-B lines in trace order. */
std::vector<Line>
linesOf(const TraceGenerator &trace, Asid asid)
{
    std::vector<Line> lines;
    const auto emit = [&](const std::vector<AccessRange> &ranges, MemOp op) {
        for (const AccessRange &range : ranges) {
            const Addr first = range.vaddr / kLineBytes * kLineBytes;
            for (Addr line = first; line < range.vaddr + range.bytes;
                 line += kLineBytes)
                lines.push_back(Line{asid, line, op});
        }
    };
    for (const TileTrace &tile : trace.tiles()) {
        emit(tile.reads, MemOp::Read);
        emit(tile.writes, MemOp::Write);
    }
    return lines;
}

/** The mix's cores' line streams, interleaved one line per core. */
std::vector<Line>
interleave(const std::vector<std::vector<Line>> &cores, std::size_t limit)
{
    std::vector<Line> out;
    for (std::size_t i = 0; out.size() < limit; ++i) {
        bool any = false;
        for (const auto &core : cores) {
            if (i < core.size() && out.size() < limit) {
                out.push_back(core[i]);
                any = true;
            }
        }
        if (!any)
            break;
    }
    return out;
}

/** Drive @p requests through a fresh backend; false if any is lost. */
bool
replayBackend(MemBackendKind kind, std::uint32_t cores,
              const std::vector<DramRequest> &requests)
{
    auto backend = makeMemoryBackend(kind, DramTiming::hbm2(), 4 * cores,
                                     cores, 32, PcmConfig{}, FabricConfig{});
    std::uint64_t completed = 0;
    backend->setCallback([&](const DramRequest &, Cycle) { ++completed; });
    Cycle now = 0;
    for (const DramRequest &request : requests) {
        while (!backend->tryEnqueue(request, now))
            backend->tick(now++);
        backend->tick(now++);
    }
    while (backend->busy())
        backend->tick(now++);
    return completed == requests.size();
}

} // namespace

void
runComponentReplays(
    const std::vector<std::vector<std::shared_ptr<const TraceGenerator>>>
        &mixes,
    SpanLog &spans, Report &report)
{
    Span replay_span(spans, "replay");
    double lookup_s = 0, walk_s = 0, hbm2_s = 0, pcm_s = 0;
    std::uint64_t lookups = 0, walks = 0, requests_total = 0;

    for (const auto &mix : mixes) {
        const auto cores = static_cast<std::uint32_t>(mix.size());
        std::vector<std::vector<Line>> streams;
        for (std::uint32_t core = 0; core < cores; ++core)
            streams.push_back(linesOf(*mix[core], core));

        // Page stream: one TLB lookup per 64-B line, a walk per miss.
        std::vector<Line> missed;
        {
            Span tlb_span(spans, "replay.tlb");
            Tlb tlb(2048 * cores, 8, "replay.tlb");
            const auto start = Clock::now();
            for (const auto &stream : streams) {
                for (const Line &line : stream) {
                    const Addr vpn = line.vaddr / kPageBytes;
                    if (!tlb.lookup(line.asid, vpn)) {
                        tlb.insert(line.asid, vpn);
                        missed.push_back(line);
                    }
                    ++lookups;
                }
            }
            lookup_s += secondsSince(start);
            report.job(tlb.misses() == missed.size(),
                       "TLB replay miss count disagrees with its stream");
        }
        {
            Span walk_span(spans, "replay.walk");
            PageAllocator allocator(0, kBytesPerNpu * cores, kPageBytes);
            PageTableModel table(allocator);
            std::size_t steps = 0;
            const auto start = Clock::now();
            for (const Line &line : missed)
                steps += table.walkPath(line.asid, line.vaddr).size();
            walk_s += secondsSince(start);
            walks += missed.size();
            report.job(steps == missed.size() * table.levels(),
                       "page-table replay walked a short path");
        }

        // Request stream: physical 64-B requests, cores interleaved.
        PageAllocator allocator(0, kBytesPerNpu * cores, kPageBytes);
        std::vector<DramRequest> requests;
        for (const Line &line : interleave(streams, kRequestsPerMix)) {
            DramRequest request;
            request.paddr = allocator.translate(line.asid, line.vaddr);
            request.op = line.op;
            request.core = line.asid;
            request.tag = requests.size();
            requests.push_back(request);
        }
        requests_total += requests.size();
        {
            Span mem_span(spans, "replay.hbm2");
            const auto start = Clock::now();
            report.job(replayBackend(MemBackendKind::Dram, cores, requests),
                       "hbm2 replay lost requests");
            hbm2_s += secondsSince(start);
        }
        {
            Span mem_span(spans, "replay.pcm");
            const auto start = Clock::now();
            report.job(replayBackend(MemBackendKind::Pcm, cores, requests),
                       "pcm replay lost requests");
            pcm_s += secondsSince(start);
        }
    }

    report.set("mmu.replay_lookups", static_cast<double>(lookups), "count");
    report.set("mmu.replay_ns_per_lookup",
               lookup_s * 1e9 / static_cast<double>(lookups), "ns");
    report.set("mmu.replay_ns_per_walk",
               walk_s * 1e9 / static_cast<double>(walks), "ns");
    report.set("mem.replay_requests", static_cast<double>(requests_total),
               "count");
    report.set("mem.hbm2.replay_ns_per_request",
               hbm2_s * 1e9 / static_cast<double>(requests_total), "ns");
    report.set("mem.pcm.replay_ns_per_request",
               pcm_s * 1e9 / static_cast<double>(requests_total), "ns");
}

} // namespace npubench
