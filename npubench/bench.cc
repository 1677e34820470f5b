#include "bench.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "sw/arch_config.hh"
#include "sw/trace_generator.hh"
#include "workloads/models.hh"

namespace npubench
{

using namespace mnpu;

SpanLog::SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

std::size_t
SpanLog::open(const char *name)
{
    if (!enabled_ || paused_)
        return kNoSpan;
    const std::size_t parent = stack_.empty() ? kNoSpan : stack_.back();
    spans_.push_back(Record{name, parent, secondsSince(origin_), -1.0});
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
}

void
SpanLog::close(std::size_t id)
{
    if (id == kNoSpan)
        return;
    spans_[id].end = secondsSince(origin_);
    // Spans are scoped, so the closing span is always the innermost.
    stack_.pop_back();
}

std::map<std::string, double>
SpanLog::selfSecondsPerRoot() const
{
    std::vector<double> child(spans_.size(), 0.0);
    std::map<std::string, int> roots;
    for (const Record &span : spans_) {
        if (span.parent != kNoSpan)
            child[span.parent] += span.end - span.start;
        else
            ++roots[span.name];
    }
    std::map<std::string, double> self;
    std::map<std::string, std::string> root_of;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        std::size_t root = i;
        while (spans_[root].parent != kNoSpan)
            root = spans_[root].parent;
        self[spans_[i].name] += spans_[i].end - spans_[i].start - child[i];
        root_of[spans_[i].name] = spans_[root].name;
    }
    for (auto &[name, seconds] : self)
        seconds /= roots[root_of[name]];
    return self;
}

double
PassTimes::wall(bool traced, bool raw) const
{
    double total = 0;
    for (const std::vector<double> &job : (raw ? raw_ : scaled_)[traced])
        total += median(job);
    return total;
}

void
SpanLog::writeChromeTrace(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write span file " + path);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    char buf[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Record &span = spans_[i];
        std::snprintf(buf, sizeof(buf),
                      "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                      "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                      "\"args\":{\"id\":%zu,\"parent\":%lld}}",
                      i ? "," : "", span.name, span.start * 1e6,
                      (span.end - span.start) * 1e6, i,
                      span.parent == kNoSpan
                          ? -1LL
                          : static_cast<long long>(span.parent));
        out << buf;
    }
    out << "\n]}\n";
    if (!out.flush())
        throw std::runtime_error("short write to span file " + path);
}

void
logPass(const Options &options, int pass, double seconds, bool traced)
{
    std::fprintf(stderr, "npubench: %s pass %d%s: %.3f s\n",
                 options.workload.c_str(), pass, traced ? " (traced)" : "",
                 seconds);
}

void
Report::job(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        std::cerr << "npubench: FAILED " << what << "\n";
    }
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(values.size())));
    return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double
peakRssMb()
{
    // VmHWM, not RUSAGE_SELF: ru_maxrss carries over across exec, so it
    // would report the launching process's footprint when that is larger.
    long self_kb = 0;
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);) {
        if (line.rfind("VmHWM:", 0) == 0)
            self_kb = std::strtol(line.c_str() + 6, nullptr, 10);
    }
    rusage children{};
    getrusage(RUSAGE_CHILDREN, &children); // ru_maxrss is in KiB
    return static_cast<double>(std::max(self_kb, children.ru_maxrss)) /
           1024.0;
}

SystemConfig
pinnedConfig(const GoldenCase &golden, FidelityKind fidelity)
{
    SystemConfig config;
    config.level = golden.level;
    config.mem.timing = DramTiming::preset(golden.protocol);
    config.mem.backend = MemBackendKind::Dram;
    config.dramBandwidthShares = golden.dramBandwidthShares;
    config.fidelity = fidelity;
    config.checkLevel = CheckLevel::Off;
    return config;
}

namespace
{

/** Read tests/golden/<name>.json; throws on a missing/torn fixture. */
SweepCheckpointRecord
readGolden(const Options &options, const std::string &name)
{
    const std::string path = goldenFixturePath(options.goldenDir(), name);
    std::ifstream in(path);
    std::string line;
    SweepCheckpointRecord record;
    if (!in || !std::getline(in, line) || !parseJsonLine(line, record))
        throw std::runtime_error("cannot read golden fixture " + path);
    return record;
}

/** Read tests/golden/fidelity_envelope.json, keyed by case name. */
std::map<std::string, FidelityEnvelopeEntry>
readEnvelope(const Options &options)
{
    const std::string path = fidelityEnvelopePath(options.goldenDir());
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::map<std::string, FidelityEnvelopeEntry> envelope;
    std::string line;
    while (std::getline(in, line)) {
        FidelityEnvelopeEntry entry;
        if (!parseFidelityEnvelopeLine(line, entry))
            throw std::runtime_error("malformed line in " + path);
        envelope[entry.name] = entry;
    }
    return envelope;
}

double
relativeError(std::uint64_t exact, std::uint64_t fast)
{
    if (exact == 0)
        return fast == 0 ? 0.0 : 1.0;
    return std::fabs(static_cast<double>(fast) - static_cast<double>(exact)) /
           static_cast<double>(exact);
}

} // namespace

double
fastDeviation(const SimResult &fast, const SweepCheckpointRecord &exact)
{
    double deviation = relativeError(exact.globalCycles, fast.globalCycles);
    const std::size_t cores =
        std::min(exact.localCycles.size(), fast.cores.size());
    for (std::size_t i = 0; i < cores; ++i) {
        deviation = std::max(
            deviation,
            relativeError(exact.localCycles[i], fast.cores[i].localCycles));
    }
    return deviation;
}

Goldens
loadGoldens(const Options &options, SpanLog &spans)
{
    const auto envelope = readEnvelope(options);
    Goldens goldens;
    std::map<std::string, std::shared_ptr<const TraceGenerator>> traces;
    {
        Span trace_span(spans, "trace_gen");
        const auto start = Clock::now();
        for (const GoldenCase &golden : goldenCases()) {
            for (const std::string &model : golden.models) {
                if (traces.count(model))
                    continue;
                auto trace = std::make_shared<TraceGenerator>(
                    ArchConfig::miniNpu(),
                    buildModel(model, ModelScale::Mini));
                goldens.tiles += trace->tiles().size();
                goldens.traceBytes += trace->totalTrafficBytes();
                traces[model] = std::move(trace);
            }
        }
        goldens.traceGenSeconds = secondsSince(start);
    }
    for (const GoldenCase &golden : goldenCases()) {
        const auto bound = envelope.find(golden.name);
        if (bound == envelope.end())
            throw std::runtime_error("no fidelity envelope row for " +
                                     golden.name);
        GoldenJob job{&golden, {}, readGolden(options, golden.name),
                      bound->second.bound};
        for (const std::string &model : golden.models) {
            CoreBinding binding;
            binding.trace = traces.at(model);
            job.bindings.push_back(std::move(binding));
        }
        goldens.cases.push_back(std::move(job));
    }
    return goldens;
}

void
reportFastErrorProbe(const Goldens &goldens, Report &report)
{
    double worst = 0;
    for (const GoldenJob &job : goldens.cases) {
        MultiCoreSystem system(pinnedConfig(*job.golden, FidelityKind::Fast),
                               job.bindings);
        const double deviation = fastDeviation(system.run(), job.exact);
        report.job(deviation <= job.bound,
                   job.golden->name + " fast twin outside its envelope bound");
        worst = std::max(worst, deviation);
    }
    report.set("fast_err_max", worst, "ratio");
}

namespace
{

std::uint64_t
counterOr(const TelemetrySnapshot &snapshot, const std::string &name,
          std::uint64_t fallback)
{
    return snapshot.has(name) ? snapshot.counter(name) : fallback;
}

} // namespace

void
SimTotals::add(const SimResult &result)
{
    const TelemetrySnapshot &t = result.telemetry;
    std::uint64_t tlb_hits = 0, tlb_misses = 0, walks = 0;
    for (const CoreResult &core : result.cores) {
        localCycles += core.localCycles;
        peUtilizationSum += core.peUtilization;
        walkBytes += core.walkBytes;
        trafficBytes += core.trafficBytes;
        tlb_hits += core.tlbHits;
        tlb_misses += core.tlbMisses;
        walks = std::max<std::uint64_t>(walks, core.walks);
        ++cores;
    }
    // System-wide MMU counters where the snapshot has them: the per-core
    // view repeats shared-TLB and walk totals on every core.
    tlbHits += counterOr(t, "mmu.tlb_hits", tlb_hits);
    tlbMisses += counterOr(t, "mmu.tlb_misses", tlb_misses);
    this->walks += counterOr(t, "mmu.walks", walks);
    loopIterations += result.loopIterations;
    globalCycles += result.globalCycles;
    rowHits += result.dramRowHits;
    rowMisses += result.dramRowMisses;
    energyPj += result.dramEnergyPj;
    for (const auto &metric : t.metrics) {
        if (metric.isCounter && metric.name.rfind("fabric.", 0) == 0)
            fabric[metric.name] += metric.counter;
    }
}

void
SimTotals::report(Report &report) const
{
    const auto ratio = [](std::uint64_t part, std::uint64_t whole) {
        return whole ? static_cast<double>(part) / static_cast<double>(whole)
                     : 0.0;
    };
    report.set("sim.loop_iterations", static_cast<double>(loopIterations),
               "count");
    report.set("sim.global_cycles", static_cast<double>(globalCycles),
               "cycles");
    report.set("core.local_cycles", static_cast<double>(localCycles),
               "cycles");
    report.set("core.pe_utilization",
               cores ? peUtilizationSum / static_cast<double>(cores) : 0.0,
               "ratio");
    report.set("mmu.tlb_hits", static_cast<double>(tlbHits), "count");
    report.set("mmu.tlb_misses", static_cast<double>(tlbMisses), "count");
    report.set("mmu.tlb_hit_ratio", ratio(tlbHits, tlbHits + tlbMisses),
               "ratio");
    report.set("mmu.walks", static_cast<double>(walks), "count");
    report.set("mmu.walk_bytes", static_cast<double>(walkBytes), "bytes");
    report.set("dram.row_hits", static_cast<double>(rowHits), "count");
    report.set("dram.row_misses", static_cast<double>(rowMisses), "count");
    report.set("dram.row_hit_ratio", ratio(rowHits, rowHits + rowMisses),
               "ratio");
    report.set("dram.bytes", static_cast<double>(trafficBytes), "bytes");
    report.set("dram.energy_pj", energyPj, "pJ");
    for (const auto &[name, value] : fabric)
        report.set(name, static_cast<double>(value),
                   name == "fabric.wait_cycles" ? "cycles" : "count");
}

} // namespace npubench
