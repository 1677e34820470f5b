/**
 * @file
 * Figure 12: DRAM bandwidth utilization over time for ds2 and gpt2 run
 * separately on the Ideal dual-core-budget configuration, plus their
 * sum (ds2+gpt2). Paper observation: each workload alone demands more
 * than half the peak bandwidth for most of its execution, and the sum
 * exceeds peak (y > 1.0) — which is why equal static partitioning hurts
 * and dynamic sharing can't fully reach Ideal either.
 */

#include "bench_common.hh"

using namespace mnpu;
using namespace mnpu::bench;

namespace
{

/** Per-window fraction of peak bandwidth for a solo Ideal run. */
std::vector<double>
soloUtilization(const BenchOptions &options, const std::string &model,
                Cycle window)
{
    ExperimentContext context(options.archConfig(),
                              NpuMemConfig::cloudNpu(), options.scale());
    SystemConfig config;
    config.level = SharingLevel::Ideal;
    config.idealResourceMultiplier = 2;
    config.mem = context.mem();
    config.telemetryWindow = window;
    std::vector<CoreBinding> bindings(1);
    bindings[0].trace = context.trace(model);
    MultiCoreSystem system(config, std::move(bindings));
    SimResult result = system.run();

    const MemoryBackend &dram = system.memory();
    double peak_per_window =
        dram.peakBandwidthBytesPerSec() /
        (dram.timing().clockMhz * 1e6) * static_cast<double>(window);
    const TelemetrySnapshot::Series *bytes_per_window =
        result.telemetry.findSeries("dram.total.bytes");
    if (bytes_per_window == nullptr)
        fatal("dram.total.bytes series missing from telemetry snapshot");
    std::vector<double> fractions;
    for (std::uint64_t bytes : bytes_per_window->values)
        fractions.push_back(static_cast<double>(bytes) / peak_per_window);
    return fractions;
}

double
fractionAbove(const std::vector<double> &series, double threshold)
{
    if (series.empty())
        return 0.0;
    std::size_t count = 0;
    for (double value : series)
        if (value > threshold)
            ++count;
    return static_cast<double>(count) / series.size();
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOptions options = parseOptions(argc, argv);
    printHeader("Figure 12: DRAM bandwidth utilization timeline "
                "(ds2, gpt2, ds2+gpt2, Ideal)", options);

    const Cycle window = 1000;
    // The two solo timelines are independent runs; fan them out.
    const std::vector<std::string> solo_models = {"ds2", "gpt2"};
    SweepRunner runner;
    auto series = runner.map<std::vector<double>>(
        solo_models.size(), [&](std::size_t index) {
            return soloUtilization(options, solo_models[index], window);
        });
    auto &ds2 = series[0];
    auto &gpt2 = series[1];

    std::size_t length = std::max(ds2.size(), gpt2.size());
    std::vector<double> sum(length, 0.0);
    for (std::size_t i = 0; i < length; ++i) {
        sum[i] = (i < ds2.size() ? ds2[i] : 0.0) +
                 (i < gpt2.size() ? gpt2[i] : 0.0);
    }

    // Print a compressed timeline (32 buckets) for each series.
    auto print_series = [&](const char *label,
                            const std::vector<double> &series) {
        std::printf("%-10s", label);
        std::size_t buckets = 32;
        for (std::size_t b = 0; b < buckets; ++b) {
            std::size_t lo = b * series.size() / buckets;
            std::size_t hi = (b + 1) * series.size() / buckets;
            double acc = 0;
            for (std::size_t i = lo; i < hi && i < series.size(); ++i)
                acc += series[i];
            double avg = hi > lo ? acc / (hi - lo) : 0.0;
            std::printf("%c", avg > 1.0    ? '#'
                              : avg > 0.75 ? '@'
                              : avg > 0.5  ? '+'
                              : avg > 0.25 ? '-'
                              : avg > 0.05 ? '.'
                                           : ' ');
        }
        std::printf("  (mean %.2f, peak %.2f)\n",
                    mean(series),
                    *std::max_element(series.begin(), series.end()));
    };
    std::printf("\nutilization vs time (32 buckets; #>1.0 @>0.75 +>0.5 "
                "->0.25 .>0.05 of peak):\n");
    print_series("ds2", ds2);
    print_series("gpt2", gpt2);
    print_series("ds2+gpt2", sum);

    std::printf("\nheadline comparison (paper -> measured):\n");
    std::printf("  each workload demands >0.5 peak for the majority of "
                "time:\n");
    std::printf("    ds2:  majority -> %4.1f%% of windows\n",
                100.0 * fractionAbove(ds2, 0.5));
    std::printf("    gpt2: majority -> %4.1f%% of windows\n",
                100.0 * fractionAbove(gpt2, 0.5));
    std::printf("  combined demand exceeds peak (y > 1.0) part of the "
                "time: %4.1f%% of windows\n",
                100.0 * fractionAbove(sum, 1.0));
    return 0;
}
