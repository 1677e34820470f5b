/**
 * @file
 * corun_exact: the eight committed golden mixes as directly built
 * MultiCoreSystems at exact fidelity, each followed by its fast twin,
 * plus the HBM2 quad mix re-run on the tiered (PCM weights) backend
 * behind the XBar fabric. Construction is sub-millisecond, so host time
 * here is almost all cycle loop: core tick, TLB and walkers, DRAM
 * FR-FCFS, PCM and fabric arbitration.
 */

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>

#include "bench.hh"
#include "sw/trace_generator.hh"

namespace npubench
{

using namespace mnpu;

namespace
{

const char *const kTieredCase = "hbm2-quad-res-yt-dlrm-ncf-dwt";

enum class JobKind { Exact, Fast, Tiered };

struct Job
{
    std::string name;
    JobKind kind = JobKind::Exact;
    SystemConfig config;
    std::vector<CoreBinding> bindings;
    SweepCheckpointRecord golden; //!< committed exact outcome
    double bound = 0;             //!< fast twin's envelope bound
};

struct Setup
{
    Goldens goldens;
    std::vector<Job> jobs;
};

/** Golden inputs (fixtures, envelope, traces) and the job configs. */
Setup
buildSetup(const Options &options, SpanLog &spans)
{
    Span span(spans, "setup");
    Setup setup;
    setup.goldens = loadGoldens(options, spans);
    const GoldenJob *quad = nullptr;
    for (const GoldenJob &golden : setup.goldens.cases) {
        Job exact{golden.golden->name, JobKind::Exact,
                  pinnedConfig(*golden.golden, FidelityKind::Exact),
                  golden.bindings, golden.exact, 0};
        Job fast = exact;
        fast.kind = JobKind::Fast;
        fast.config.fidelity = FidelityKind::Fast;
        fast.bound = golden.bound;
        setup.jobs.push_back(std::move(exact));
        setup.jobs.push_back(std::move(fast));
        if (golden.golden->name == kTieredCase)
            quad = &golden;
    }
    if (quad == nullptr)
        throw std::runtime_error(std::string("no golden case ") +
                                 kTieredCase);
    Job tiered{std::string(kTieredCase) + "+tiered-xbar", JobKind::Tiered,
               pinnedConfig(*quad->golden, FidelityKind::Exact),
               quad->bindings, {}, 0};
    tiered.config.mem.backend = MemBackendKind::Tiered;
    tiered.config.mem.fabric.enabled = true;
    setup.jobs.push_back(std::move(tiered));
    return setup;
}

/** Every Ideal-independent field the golden fixture pins. */
bool
matchesGolden(const SimResult &result, const SweepCheckpointRecord &golden)
{
    if (result.globalCycles != golden.globalCycles ||
        result.dramRowHits != golden.dramRowHits ||
        result.dramRowMisses != golden.dramRowMisses ||
        result.dramEnergyPj != golden.dramEnergyPj ||
        result.cores.size() != golden.localCycles.size()) {
        return false;
    }
    for (std::size_t i = 0; i < result.cores.size(); ++i) {
        const CoreResult &core = result.cores[i];
        if (core.localCycles != golden.localCycles[i] ||
            core.trafficBytes != golden.trafficBytes[i] ||
            core.walkBytes != golden.walkBytes[i] ||
            core.tlbHits != golden.tlbHits[i] ||
            core.tlbMisses != golden.tlbMisses[i] ||
            core.walks != golden.walks[i] ||
            core.layerFinishLocal != golden.layerFinishLocal[i]) {
            return false;
        }
    }
    return true;
}

/** Bit-identity of two runs of one job (the tiered repeat check). */
bool
sameRun(const SimResult &a, const SimResult &b)
{
    if (a.globalCycles != b.globalCycles ||
        a.loopIterations != b.loopIterations ||
        a.dramRowHits != b.dramRowHits ||
        a.dramRowMisses != b.dramRowMisses ||
        a.dramEnergyPj != b.dramEnergyPj || !(a.telemetry == b.telemetry) ||
        a.cores.size() != b.cores.size()) {
        return false;
    }
    for (std::size_t i = 0; i < a.cores.size(); ++i) {
        if (a.cores[i].localCycles != b.cores[i].localCycles ||
            a.cores[i].layerFinishLocal != b.cores[i].layerFinishLocal) {
            return false;
        }
    }
    return true;
}

} // namespace

void
runCorunExact(const Options &options, SpanLog &spans, Report &report)
{
    Calibrator calibrator;
    Setup setup;
    std::vector<double> trace_gen_seconds;
    const double setup_seconds = medianSetupSeconds(calibrator, [&] {
        setup = buildSetup(options, spans);
        trace_gen_seconds.push_back(setup.goldens.traceGenSeconds);
    });

    std::vector<Job> &jobs = setup.jobs;
    PassTimes wall(jobs.size());
    std::vector<std::vector<double>> construct_s(jobs.size()),
        run_s(jobs.size());
    std::optional<SimResult> first_tiered;
    SimTotals totals;
    double fast_err_max = 0;
    int passes = 0;

    // Whole passes until the time is up; at least two (four when traced)
    // so the tiered run has a repeat and each tracing state a median.
    const auto start = Clock::now();
    while (passes < (options.trace ? 4 : 2) ||
           secondsSince(start) < options.seconds) {
        const bool traced = tracedPass(options, passes);
        spans.setPaused(!traced);
        Span pass_span(spans, "workload");
        const auto pass_start = Clock::now();
        double scale = 1;
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            Job &job = jobs[j];
            // A fast twin (milliseconds) shares its exact run's sample.
            if (job.kind != JobKind::Fast) {
                Span calibrate(spans, "calibrate");
                scale = calibrator.sample();
            }
            Span job_span(spans, "job");
            const auto t0 = Clock::now();
            std::optional<MultiCoreSystem> system;
            {
                Span construct(spans, "construct");
                system.emplace(job.config, job.bindings);
            }
            const auto t1 = Clock::now();
            SimResult result;
            {
                Span run(spans, "run");
                result = system->run();
            }
            const auto t2 = Clock::now();
            construct_s[j].push_back(
                std::chrono::duration<double>(t1 - t0).count());
            run_s[j].push_back(std::chrono::duration<double>(t2 - t1).count());
            wall.add(j, std::chrono::duration<double>(t2 - t0).count(), scale,
                     traced);

            switch (job.kind) {
            case JobKind::Exact:
                report.job(matchesGolden(result, job.golden),
                           job.name + " differs from its golden fixture");
                break;
            case JobKind::Fast: {
                const double deviation = fastDeviation(result, job.golden);
                fast_err_max = std::max(fast_err_max, deviation);
                report.job(deviation <= job.bound,
                           job.name + " fast twin outside its envelope");
                break;
            }
            case JobKind::Tiered:
                if (!first_tiered) {
                    report.job(result.globalCycles > 0,
                               job.name + " simulated no cycles");
                    first_tiered = result;
                } else {
                    report.job(sameRun(*first_tiered, result),
                               job.name + " did not repeat identically");
                }
                break;
            }
            if (passes == 0 && job.kind != JobKind::Fast)
                totals.add(result);
        }
        logPass(options, passes, secondsSince(pass_start), traced);
        ++passes;
    }
    spans.setPaused(false);

    report.set("wall_s", wall.wall(false), "s");
    report.set("setup_s", setup_seconds, "s");
    report.set("peak_rss_mb", peakRssMb(), "MB");
    report.set("fast_err_max", fast_err_max, "ratio");
    report.set("bench.wall_raw_s", wall.wall(false, true), "s");
    report.set("bench.calibration_s", median(calibrator.seconds()), "s");
    if (!options.trace)
        return;

    report.set("trace.overhead_s", wall.wall(true) - wall.wall(false), "s");
    report.set("bench.passes", passes, "count");
    report.set("sw.trace_gen_s", median(trace_gen_seconds), "s");
    report.set("sw.tiles", static_cast<double>(setup.goldens.tiles), "count");
    report.set("sw.trace_bytes",
               static_cast<double>(setup.goldens.traceBytes), "bytes");
    // The co-run layer alone: exact and tiered jobs, not the fast twins.
    double construct = 0, run = 0;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        if (jobs[j].kind != JobKind::Fast) {
            construct += median(construct_s[j]);
            run += median(run_s[j]);
        }
    }
    report.set("sim.construct_s", construct, "s");
    report.set("sim.run_s", run, "s");
    totals.report(report);
    report.set("sim.ns_per_iteration",
               run * 1e9 / static_cast<double>(totals.loopIterations), "ns");
    report.set("sim.mcycles_per_s",
               static_cast<double>(totals.globalCycles) / run / 1e6,
               "Mcycles/s");

    std::vector<std::vector<std::shared_ptr<const TraceGenerator>>> mixes;
    for (const Job &job : jobs) {
        if (job.kind != JobKind::Exact)
            continue;
        mixes.emplace_back();
        for (const CoreBinding &binding : job.bindings)
            mixes.back().push_back(binding.trace);
    }
    runComponentReplays(mixes, spans, report);
}

} // namespace npubench
