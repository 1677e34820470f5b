/**
 * @file
 * Ablation: output-stationary vs weight-stationary dataflow (the paper
 * implements OS and lists WS as future work). Runs each model
 * single-core under both dataflows and compares end-to-end cycles and
 * PE utilization. Expected shape: WS favors tall GEMMs (large M, e.g.
 * batched MLPs), OS favors deep reductions (large K convs); skinny
 * M=1 RNN steps collapse under WS because every weight fold streams a
 * single row.
 */

#include "bench_common.hh"

using namespace mnpu;
using namespace mnpu::bench;

int
main(int argc, char **argv)
{
    BenchOptions options = parseOptions(argc, argv);
    printHeader("Ablation: output-stationary vs weight-stationary",
                options);

    const auto &names = modelNames();
    SweepRunner runner;
    // One context per dataflow; the models fan out over the pool.
    struct Point
    {
        double cycles = 0;
        double util = 0;
    };
    std::vector<std::vector<Point>> points; // [dataflow][model]
    for (Dataflow dataflow : {Dataflow::OutputStationary,
                              Dataflow::WeightStationary}) {
        ArchConfig arch = options.archConfig();
        arch.dataflow = dataflow;
        ExperimentContext context(arch, NpuMemConfig::cloudNpu(),
                                  options.scale());
        points.push_back(runner.map<Point>(
            names.size(), [&](std::size_t index) {
                const CoreResult &result =
                    context.idealResult(names[index], 1);
                return Point{
                    static_cast<double>(result.localCycles),
                    result.peUtilization};
            }));
        progress(options, "  %s done",
                 dataflow == Dataflow::OutputStationary ? "OS" : "WS");
    }

    std::printf("\n%-8s %14s %14s %10s %10s %8s\n", "model", "OS cycles",
                "WS cycles", "OS util", "WS util", "WS/OS");
    for (std::size_t m = 0; m < names.size(); ++m) {
        const Point &os = points[0][m];
        const Point &ws = points[1][m];
        std::printf("%-8s %14.0f %14.0f %9.1f%% %9.1f%% %8.3f\n",
                    names[m].c_str(), os.cycles, ws.cycles,
                    100.0 * os.util, 100.0 * ws.util,
                    ws.cycles / os.cycles);
    }
    std::printf("\nWS/OS < 1 means weight stationary is faster for that "
                "model on this architecture.\n");
    return 0;
}
