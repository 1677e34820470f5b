/**
 * @file
 * npubench entry point:
 *
 *   npubench --workload corun_exact|sweep_fast_full|serving_gpt2
 *            --seed N --seconds S --trace 0|1 [--root DIR] [--out DIR]
 *
 * Runs one workload, checks its outputs, and prints one JSON line
 * {"correct","attempted","failed","metrics"} as the last line of
 * stdout: host-time end-to-end metrics with --trace 0, per-layer
 * metrics (counters, component replays, span self time, tracing
 * overhead) with --trace 1, which also writes the spans as Chrome
 * trace-event JSON under --out. Exits 1 without a result when the
 * workload cannot run (missing fixtures, simulator error).
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "bench.hh"

using namespace npubench;

namespace
{

[[noreturn]] void
usage(const char *why)
{
    std::cerr << "npubench: " << why
              << "\nusage: npubench --workload corun_exact|sweep_fast_full|"
                 "serving_gpt2 --seed N --seconds S --trace 0|1 "
                 "[--root DIR] [--out DIR]\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const std::string value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            options.workload = value;
        } else if (arg == "--seed") {
            options.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (arg == "--seconds") {
            options.seconds = std::strtod(value.c_str(), &end);
            if (!(options.seconds > 0))
                usage("--seconds must be positive");
        } else if (arg == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            options.trace = value == "1";
        } else if (arg == "--root") {
            options.root = value;
        } else if (arg == "--out") {
            options.outDir = value;
        } else {
            usage(("unknown option " + arg).c_str());
        }
        if (end != nullptr && *end != '\0')
            usage(("malformed value for " + arg).c_str());
    }
    return options;
}

void
printResult(const Report &report)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                report.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(report.attempted),
                static_cast<unsigned long long>(report.failed));
    const char *sep = "";
    for (const auto &[name, metric] : report.metrics) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                    name.c_str(), metric.value, metric.unit.c_str());
        sep = ", ";
    }
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    const Options options = parseArgs(argc, argv);
    SpanLog spans(options.trace);
    Report report;
    try {
        if (options.workload == "corun_exact")
            runCorunExact(options, spans, report);
        else if (options.workload == "sweep_fast_full")
            runSweepFastFull(options, spans, report);
        else if (options.workload == "serving_gpt2")
            runServingGpt2(options, spans, report);
        else
            usage(("unknown workload '" + options.workload + "'").c_str());

        if (options.trace) {
            for (const auto &[name, seconds] : spans.selfSecondsPerRoot())
                report.set("span." + name + ".self_s", seconds, "s");
            report.set("trace.spans", static_cast<double>(spans.size()),
                       "count");
            spans.writeChromeTrace(options.outDir + "/npubench-" +
                                   options.workload + ".trace.json");
        }
    } catch (const std::exception &error) {
        std::cerr << "npubench: " << options.workload
                  << " could not run: " << error.what() << "\n";
        return 1;
    }
    printResult(report);
    return 0;
}
