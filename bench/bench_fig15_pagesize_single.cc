/**
 * @file
 * Figure 15: single-core speedup of 64 KB and 1 MB pages over 4 KB
 * pages. Paper headlines: 64 KB is 17.6% faster than 4 KB on average
 * but 1 MB adds only 1.6% more; sensitivity is workload-dependent —
 * gpt2 gains at most 5.8% while dlrm runs up to 30% faster.
 */

#include "bench_common.hh"

using namespace mnpu;
using namespace mnpu::bench;

int
main(int argc, char **argv)
{
    BenchOptions options = parseOptions(argc, argv);
    printHeader("Figure 15: page-size sweep (single core)", options);

    const std::uint64_t page_sizes[] = {4096, 64 << 10, 1 << 20};
    const auto &names = modelNames();

    std::printf("\n%-8s%10s%10s%10s\n", "model", "4KB", "64KB", "1MB");
    // One context per page size; the models fan out over the pool.
    SweepRunner runner;
    std::vector<std::vector<double>> cycles_by_page;
    for (std::uint64_t page : page_sizes) {
        NpuMemConfig mem = NpuMemConfig::cloudNpu();
        mem.pageBytes = page;
        ExperimentContext context(options.archConfig(), mem,
                                  options.scale());
        cycles_by_page.push_back(runner.map<double>(
            names.size(), [&](std::size_t index) {
                return context.idealCycles(names[index], 1);
            }));
        progress(options, "  %llu B pages done",
                 static_cast<unsigned long long>(page));
    }

    std::vector<double> gain64, gain1m;
    for (std::size_t m = 0; m < names.size(); ++m) {
        std::vector<double> cycles = {cycles_by_page[0][m],
                                      cycles_by_page[1][m],
                                      cycles_by_page[2][m]};
        std::printf("%-8s%10.3f%10.3f%10.3f\n", names[m].c_str(), 1.0,
                    cycles[0] / cycles[1], cycles[0] / cycles[2]);
        gain64.push_back(cycles[0] / cycles[1]);
        gain1m.push_back(cycles[0] / cycles[2]);
    }

    double g64 = geomean(gain64);
    double g1m = geomean(gain1m);
    std::printf("\nheadline comparison (paper -> measured):\n");
    std::printf("  64KB speedup over 4KB (avg):   17.6%% -> %5.1f%%\n",
                100.0 * (g64 - 1.0));
    std::printf("  1MB extra over 64KB (avg):      1.6%% -> %5.1f%%\n",
                100.0 * (g1m / g64 - 1.0));
    std::printf("  gpt2 gain (<=5.8%%):                  -> %5.1f%%\n",
                100.0 * (gain1m[7] - 1.0));
    std::printf("  dlrm gain (~30%%):                    -> %5.1f%%\n",
                100.0 * (gain1m[5] - 1.0));
    return 0;
}
