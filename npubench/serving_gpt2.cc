/**
 * @file
 * serving_gpt2: the committed serving golden scenario (DDR4 dual-core
 * +DWT, GPT-2, Poisson 40 req/Mcycle, batch cap 2) with more requests
 * and the arrival seed taken from --seed. Every continuous-batching
 * round lowers its phases into a fresh, cold MultiCoreSystem, so this
 * is many short cold-state co-runs with KV-cache writes beside weight
 * reads.
 *
 * The engine receives the scenario as an arrival trace: arrival cycles
 * from the Poisson process at --seed, request shapes from the golden's
 * own seed. When the seed also drew the shapes, the simulated work of a
 * 16-request scenario (and with it host time) varied by up to 25 %
 * between seeds; with fixed shapes the seed moves arrival times and
 * latencies but not the work.
 */

#include <cmath>
#include <optional>

#include "bench.hh"
#include "serving/arrival.hh"
#include "serving/engine.hh"
#include "sw/arch_config.hh"
#include "workloads/models.hh"

namespace npubench
{

using namespace mnpu;

namespace
{

/** Requests per scenario (the golden has 4): about 4 s over 7 rounds. */
constexpr std::uint32_t kRequests = 8;

struct Setup
{
    Goldens goldens;
    SystemConfig config;
    std::uint32_t cores = 0;
    std::uint64_t prefillTokens = 0; //!< over the generated arrivals
    std::uint64_t decodeTokens = 0;
    std::uint64_t tiles = 0;
    std::uint64_t traceBytes = 0;
    double traceGenSeconds = 0;
};

/**
 * Golden inputs, then the scenario config, its arrival trace and the
 * GPT-2 model it lowers.
 */
Setup
buildSetup(const Options &options, SpanLog &spans)
{
    Span span(spans, "setup");
    const ServingGoldenCase &golden = servingGoldenCases().front();
    Setup setup;
    setup.goldens = loadGoldens(options, spans);
    setup.cores = golden.cores;
    setup.config.level = golden.level;
    setup.config.mem = NpuMemConfig::cloudNpu();
    setup.config.mem.timing = DramTiming::preset(golden.protocol);
    setup.config.mem.backend = MemBackendKind::Dram;
    setup.config.fidelity = FidelityKind::Exact;
    setup.config.checkLevel = CheckLevel::Off;
    ServingConfig serving = golden.serving;
    serving.numRequests = kRequests;
    const std::vector<ServingRequest> shapes = generateArrivals(serving);
    serving.seed = options.seed;
    const std::vector<ServingRequest> arrivals = generateArrivals(serving);
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
        serving.arrivalTrace += std::to_string(arrivals[i].arrivalCycle) +
                                "," + std::to_string(shapes[i].promptTokens) +
                                "," + std::to_string(shapes[i].decodeTokens) +
                                "\n";
        setup.prefillTokens += shapes[i].promptTokens;
        setup.decodeTokens += shapes[i].decodeTokens;
    }
    setup.config.serving = serving;
    {
        Span trace_span(spans, "trace_gen");
        const auto start = Clock::now();
        TraceGenerator trace(ArchConfig::miniNpu(),
                             buildModel("gpt2", ModelScale::Mini));
        setup.tiles = setup.goldens.tiles + trace.tiles().size();
        setup.traceBytes =
            setup.goldens.traceBytes + trace.totalTrafficBytes();
        setup.traceGenSeconds =
            setup.goldens.traceGenSeconds + secondsSince(start);
    }
    return setup;
}

} // namespace

void
runServingGpt2(const Options &options, SpanLog &spans, Report &report)
{
    Calibrator calibrator;
    Setup setup;
    std::vector<double> trace_gen_seconds;
    const double setup_seconds = medianSetupSeconds(calibrator, [&] {
        setup = buildSetup(options, spans);
        trace_gen_seconds.push_back(setup.traceGenSeconds);
    });

    PassTimes wall(1);
    std::optional<ServingSummary> first;
    SimTotals totals;
    int passes = 0;
    const auto start = Clock::now();
    while (passes < (options.trace ? 2 : 1) ||
           secondsSince(start) < options.seconds) {
        const bool traced = tracedPass(options, passes);
        spans.setPaused(!traced);
        Span pass_span(spans, "workload");
        double before = 0;
        {
            Span calibrate(spans, "calibrate");
            before = calibrator.sample();
        }
        const auto t0 = Clock::now();
        ServingResult result;
        {
            Span serving_span(spans, "serving");
            result = runServing(ArchConfig::miniNpu(), ModelScale::Mini,
                                setup.config, setup.cores);
        }
        const double seconds = secondsSince(t0);
        {
            Span calibrate(spans, "calibrate");
            wall.add(0, seconds, std::sqrt(before * calibrator.sample()),
                     traced);
        }
        logPass(options, passes, seconds, traced);

        const ServingSummary &summary = result.summary;
        report.job(summary.offered == kRequests &&
                       summary.completed == summary.offered &&
                       summary.prefillTokens == setup.prefillTokens &&
                       summary.decodeTokens == setup.decodeTokens,
                   "serving scenario lost requests or tokens");
        if (!first) {
            first = summary;
            totals.add(result.aggregate);
        } else {
            report.job(summary == *first,
                       "serving scenario did not repeat identically");
        }
        ++passes;
    }
    spans.setPaused(false);

    report.set("wall_s", wall.wall(false), "s");
    report.set("setup_s", setup_seconds, "s");
    report.set("peak_rss_mb", peakRssMb(), "MB");
    reportFastErrorProbe(setup.goldens, report);
    report.set("bench.wall_raw_s", wall.wall(false, true), "s");
    report.set("bench.calibration_s", median(calibrator.seconds()), "s");
    if (!options.trace)
        return;

    report.set("trace.overhead_s", wall.wall(true) - wall.wall(false), "s");
    report.set("bench.passes", passes, "count");
    report.set("sw.trace_gen_s", median(trace_gen_seconds), "s");
    report.set("sw.tiles", static_cast<double>(setup.tiles), "count");
    report.set("sw.trace_bytes", static_cast<double>(setup.traceBytes),
               "bytes");
    totals.report(report);
    report.set("serving.rounds", static_cast<double>(first->rounds), "count");
    report.set("serving.s_per_round",
               wall.wall(false) / static_cast<double>(first->rounds), "s");
    report.set("serving.tokens.prefill",
               static_cast<double>(first->prefillTokens), "count");
    report.set("serving.tokens.decode",
               static_cast<double>(first->decodeTokens), "count");
    report.set("serving.ttft.p50", first->ttftP50, "cycles");
    report.set("serving.ttft.p99", first->ttftP99, "cycles");
    report.set("serving.tpot.p50", first->tpotP50, "cycles");
    report.set("serving.goodput_per_mcycle", first->goodputPerMcycle,
               "1/Mcycle");
}

} // namespace npubench
