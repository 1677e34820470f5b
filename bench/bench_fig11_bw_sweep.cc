/**
 * @file
 * Figure 11: single-core speedup as DRAM bandwidth grows from 32 to
 * 256 GB/s, normalized to 32 GB/s. Paper observation: performance is
 * sub-linear in bandwidth — even memory-intensive workloads are not
 * memory-bound their whole lifetime, but bursts profit from headroom.
 */

#include "bench_common.hh"

using namespace mnpu;
using namespace mnpu::bench;

int
main(int argc, char **argv)
{
    BenchOptions options = parseOptions(argc, argv);
    printHeader("Figure 11: single-core bandwidth sweep", options);

    const std::uint32_t channel_counts[] = {1, 2, 4, 8}; // 32 GB/s each
    const auto &names = modelNames();

    std::printf("\n%-8s%10s%10s%10s%10s\n", "model", "32GB/s", "64GB/s",
                "128GB/s", "256GB/s");

    // One context per bandwidth point; the models fan out over the pool.
    SweepRunner runner;
    std::vector<std::vector<double>> cycles_by_point;
    for (std::uint32_t channels : channel_counts) {
        NpuMemConfig mem = NpuMemConfig::cloudNpu();
        mem.channelsPerNpu = channels;
        ExperimentContext context(options.archConfig(), mem,
                                  options.scale());
        cycles_by_point.push_back(runner.map<double>(
            names.size(), [&](std::size_t index) {
                return context.idealCycles(names[index], 1);
            }));
        progress(options, "  %u channels done", channels);
    }

    std::vector<double> top_speedups;
    for (std::size_t m = 0; m < names.size(); ++m) {
        std::vector<double> cycles;
        for (const auto &point : cycles_by_point)
            cycles.push_back(point[m]);
        std::printf("%-8s", names[m].c_str());
        for (double c : cycles)
            std::printf("%10.3f", cycles[0] / c);
        std::printf("\n");
        top_speedups.push_back(cycles[0] / cycles.back());
    }

    std::printf("\nsub-linearity check: 8x bandwidth should give far "
                "less than 8x speedup for every model (paper: yes):\n");
    bool all_sublinear = true;
    for (double s : top_speedups)
        all_sublinear = all_sublinear && s < 8.0;
    double max_speedup = *std::max_element(top_speedups.begin(),
                                           top_speedups.end());
    double min_speedup = *std::min_element(top_speedups.begin(),
                                           top_speedups.end());
    std::printf("  %s (256 vs 32 GB/s speedups span %.2fx .. %.2fx)\n",
                all_sublinear ? "yes" : "NO", min_speedup, max_speedup);
    return 0;
}
