/**
 * @file
 * Figures 17 and 18: workload mapping onto four dual-core NPUs (§4.6).
 *
 * Pipeline: (1) measure the dual-core +DWT slowdown of every model pair
 * (36 mixes); (2) train the multi-factor regression predictor on
 * randomly generated networks co-run in pairs (DeepSniffer-style, so
 * the training set is disjoint from the eight benchmark models);
 * (3) over all M(8,8) = 6435 eight-workload sets, evaluate the mapping
 * chosen by the predictor against the oracle / worst / random mappings,
 * reporting performance (Fig. 17) and fairness (Fig. 18) CDFs
 * normalized to the no-mapping (random expectation) baseline.
 *
 * Paper headlines: the predictor beats random selection in 50.04% of
 * scenarios for performance and 60.90% for fairness, while mostly
 * avoiding the worst mapping.
 */

#include "analysis/predictor.hh"
#include "bench_common.hh"
#include "common/rng.hh"
#include "workloads/random_network.hh"

using namespace mnpu;
using namespace mnpu::bench;

int
main(int argc, char **argv)
{
    BenchOptions options = parseOptions(argc, argv);
    printHeader("Figures 17/18: co-runner mapping with a performance "
                "model", options);

    ExperimentContext context(options.archConfig(),
                              NpuMemConfig::cloudNpu(), options.scale());
    const auto &names = modelNames();

    // --- (1) measured pair table + solo profiles of the 8 models ---
    progress(options, "measuring the 36 model pairs (+DWT) ...");
    SweepRunner runner;
    MappingEvaluator evaluator;
    auto solo_profile = [&context](const std::string &model) {
        const CoreResult &ideal = context.idealResult(model, 2);
        SoloProfile profile;
        profile.name = model;
        profile.soloCycles = static_cast<double>(ideal.localCycles);
        profile.peUtilization = ideal.peUtilization;
        profile.trafficBytes = static_cast<double>(ideal.trafficBytes);
        return profile;
    };
    std::vector<SoloProfile> profiles = runner.map<SoloProfile>(
        names.size(),
        [&](std::size_t index) { return solo_profile(names[index]); });
    auto pair_mixes = enumerateMultisets(
        static_cast<std::uint32_t>(names.size()), 2);
    std::vector<SweepJob> pair_jobs;
    for (const auto &mix : pair_mixes) {
        SweepJob job;
        job.config.level = SharingLevel::ShareDWT;
        job.models = {names[mix[0]], names[mix[1]]};
        pair_jobs.push_back(std::move(job));
    }
    auto pair_records = runner.run(context, pair_jobs);
    reportSweepStats(options, runner);
    for (std::size_t i = 0; i < pair_mixes.size(); ++i) {
        const MixOutcome &outcome = pair_records[i].outcome;
        evaluator.setMeasuredPair(pair_mixes[i][0], pair_mixes[i][1],
                                  outcome.slowdowns[0],
                                  outcome.slowdowns[1]);
    }

    // --- (2) train on random networks ---
    const std::uint32_t train_nets = options.full ? 16 : 12;
    const std::uint32_t train_pairs = options.full ? 40 : 30;
    progress(options, "training on %u random nets, %u random pairs ...",
             train_nets, train_pairs);
    Rng rng(20230917);
    // Draw all random networks and pair indices up front so the RNG
    // sequence is unchanged by the parallel execution below.
    std::vector<Network> train_networks;
    std::vector<std::string> train_names;
    for (std::uint32_t i = 0; i < train_nets; ++i) {
        Network net = randomNetwork(rng);
        net.name = "rnd" + std::to_string(i);
        train_names.push_back(net.name);
        train_networks.push_back(std::move(net));
    }
    std::vector<SoloProfile> train_profiles =
        runner.map<SoloProfile>(train_networks.size(),
                                [&](std::size_t index) {
                                    context.registerNetwork(
                                        train_networks[index]);
                                    return solo_profile(
                                        train_names[index]);
                                });
    std::vector<SweepJob> train_jobs;
    for (std::uint32_t p = 0; p < train_pairs; ++p) {
        std::uint32_t a = static_cast<std::uint32_t>(
            rng.range(0, train_nets - 1));
        std::uint32_t b = static_cast<std::uint32_t>(
            rng.range(0, train_nets - 1));
        SweepJob job;
        job.config.level = SharingLevel::ShareDWT;
        job.models = {train_names[a], train_names[b]};
        train_jobs.push_back(std::move(job));
    }
    auto train_records =
        runner.run(context, train_jobs, progressEvery16(options));
    reportSweepStats(options, runner);
    CorunPredictor predictor;
    auto profile_of = [&](const std::string &name) -> SoloProfile & {
        for (std::size_t i = 0; i < train_names.size(); ++i)
            if (train_names[i] == name)
                return train_profiles[i];
        fatal("unknown training profile '", name, "'");
    };
    for (const auto &record : train_records) {
        const MixOutcome &outcome = record.outcome;
        predictor.addSample(profile_of(outcome.models[0]),
                            profile_of(outcome.models[1]),
                            outcome.slowdowns[0]);
        predictor.addSample(profile_of(outcome.models[1]),
                            profile_of(outcome.models[0]),
                            outcome.slowdowns[1]);
    }
    predictor.train();
    std::printf("predictor trained: %zu samples, training MSE %.4f\n",
                predictor.sampleCount(), predictor.trainingMse());

    // --- (3) evaluate all 6435 eight-workload sets ---
    progress(options, "evaluating all M(8,8) = 6435 sets x 105 pairings");
    auto sets = enumerateMultisets(
        static_cast<std::uint32_t>(names.size()), 8);
    std::size_t predicted_beats_random_perf = 0;
    std::size_t predicted_beats_random_fair = 0;
    std::size_t predicted_is_worst = 0;
    std::vector<double> perf_pred, perf_oracle, perf_worst;
    std::vector<double> fair_pred, fair_oracle, fair_worst;
    // study() is const over shared tables, so the sets fan out too.
    std::vector<MappingEvaluator::Study> studies =
        runner.map<MappingEvaluator::Study>(
            sets.size(), [&](std::size_t index) {
                return evaluator.study(sets[index], &profiles,
                                       &predictor);
            });
    for (const MappingEvaluator::Study &study : studies) {
        if (study.predicted.perf > study.random.perf)
            ++predicted_beats_random_perf;
        if (study.predicted.fair > study.random.fair)
            ++predicted_beats_random_fair;
        if (study.predicted.perf <= study.worst.perf)
            ++predicted_is_worst;
        perf_pred.push_back(study.predicted.perf / study.random.perf);
        perf_oracle.push_back(study.oracle.perf / study.random.perf);
        perf_worst.push_back(study.worst.perf / study.random.perf);
        double fr = study.random.fair;
        if (fr > 1e-9) {
            fair_pred.push_back(study.predicted.fair / fr);
            fair_oracle.push_back(study.oracle.fair / fr);
            fair_worst.push_back(study.worst.fair / fr);
        }
    }

    auto print_cdf = [](const char *label, std::vector<double> values) {
        std::sort(values.begin(), values.end());
        std::printf("  %-10s", label);
        for (int decile = 10; decile <= 90; decile += 20)
            std::printf(" p%02d=%.3f", decile,
                        quantileSorted(values, decile / 100.0));
        std::printf("\n");
    };
    std::printf("\nFig 17 (perf, normalized to no-mapping baseline):\n");
    print_cdf("worst", perf_worst);
    print_cdf("predicted", perf_pred);
    print_cdf("oracle", perf_oracle);
    std::printf("Fig 18 (fairness, normalized to no-mapping "
                "baseline):\n");
    print_cdf("worst", fair_worst);
    print_cdf("predicted", fair_pred);
    print_cdf("oracle", fair_oracle);

    double n = static_cast<double>(sets.size());
    std::printf("\nheadline comparison (paper -> measured):\n");
    std::printf("  predictor beats random (perf):     50.04%% -> "
                "%5.2f%%\n",
                100.0 * predicted_beats_random_perf / n);
    std::printf("  predictor beats random (fairness): 60.90%% -> "
                "%5.2f%%\n",
                100.0 * predicted_beats_random_fair / n);
    std::printf("  predictor picks the worst mapping: rarely -> "
                "%5.2f%%\n",
                100.0 * predicted_is_worst / n);
    return 0;
}
