/**
 * @file
 * Tests for the analysis library: metrics (including the paper's Eq. 1
 * fairness), mix enumeration, linear regression, the co-runner
 * predictor, and the mapping evaluator.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>

#include "analysis/metrics.hh"
#include "analysis/mixes.hh"
#include "analysis/predictor.hh"
#include "analysis/regression.hh"
#include "common/logging.hh"
#include "common/rng.hh"

namespace mnpu
{
namespace
{

// --- metrics ---

TEST(MetricsTest, SpeedupSlowdownInverse)
{
    EXPECT_DOUBLE_EQ(speedup(100, 200), 0.5);
    EXPECT_DOUBLE_EQ(slowdown(100, 200), 2.0);
    EXPECT_THROW(speedup(0, 1), FatalError);
    EXPECT_THROW(speedup(1, -2), FatalError);
}

TEST(MetricsTest, GeomeanKnownValues)
{
    EXPECT_DOUBLE_EQ(geomean({4.0}), 4.0);
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
    EXPECT_THROW(geomean({}), FatalError);
    EXPECT_THROW(geomean({1.0, 0.0}), FatalError);
}

TEST(MetricsTest, FairnessEquationOne)
{
    // Equal slowdowns: sigma = 0 -> fairness = 1.
    EXPECT_DOUBLE_EQ(fairness({2.0, 2.0}), 1.0);
    // slowdowns {1, 3}: mu = 2, sigma = 1 -> fairness = 0.5.
    EXPECT_DOUBLE_EQ(fairness({1.0, 3.0}), 0.5);
    // More imbalance -> lower fairness.
    EXPECT_GT(fairness({1.0, 1.2}), fairness({1.0, 2.0}));
}

TEST(MetricsTest, BoxStatsQuartiles)
{
    BoxStats stats = boxStats({1, 2, 3, 4, 5});
    EXPECT_DOUBLE_EQ(stats.min, 1);
    EXPECT_DOUBLE_EQ(stats.q1, 2);
    EXPECT_DOUBLE_EQ(stats.median, 3);
    EXPECT_DOUBLE_EQ(stats.q3, 4);
    EXPECT_DOUBLE_EQ(stats.max, 5);
    BoxStats single = boxStats({7});
    EXPECT_DOUBLE_EQ(single.min, 7);
    EXPECT_DOUBLE_EQ(single.max, 7);
    EXPECT_THROW(boxStats({}), FatalError);
}

TEST(MetricsTest, CdfMonotoneEndsAtOne)
{
    auto points = cdf({3.0, 1.0, 2.0});
    ASSERT_EQ(points.size(), 3u);
    EXPECT_DOUBLE_EQ(points[0].value, 1.0);
    EXPECT_DOUBLE_EQ(points.back().value, 3.0);
    EXPECT_DOUBLE_EQ(points.back().fraction, 1.0);
    for (std::size_t i = 1; i < points.size(); ++i) {
        EXPECT_GE(points[i].value, points[i - 1].value);
        EXPECT_GT(points[i].fraction, points[i - 1].fraction);
    }
}

TEST(MetricsTest, QuantileInterpolates)
{
    std::vector<double> sorted = {0, 10};
    EXPECT_DOUBLE_EQ(quantileSorted(sorted, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(quantileSorted(sorted, 0.5), 5.0);
    EXPECT_DOUBLE_EQ(quantileSorted(sorted, 1.0), 10.0);
}

// --- mixes ---

TEST(MixesTest, PaperMixCounts)
{
    EXPECT_EQ(multisetCount(8, 2), 36u);
    EXPECT_EQ(multisetCount(8, 4), 330u);
    EXPECT_EQ(multisetCount(8, 8), 6435u);
    EXPECT_EQ(enumerateMultisets(8, 2).size(), 36u);
    EXPECT_EQ(enumerateMultisets(8, 4).size(), 330u);
    EXPECT_EQ(enumerateMultisets(8, 8).size(), 6435u);
    // The closed form and the enumeration must agree exactly.
    EXPECT_EQ(multisetCount(8, 2), enumerateMultisets(8, 2).size());
    EXPECT_EQ(multisetCount(8, 4), enumerateMultisets(8, 4).size());
    EXPECT_EQ(multisetCount(8, 8), enumerateMultisets(8, 8).size());
}

TEST(MixesTest, MultisetCountOverflowIsFatal)
{
    // C(n+k-1, k) for these exceeds uint64_t; the guard must diagnose
    // instead of silently wrapping.
    EXPECT_THROW(multisetCount(1u << 30, 8), FatalError);
    EXPECT_THROW(multisetCount(5000, 64), FatalError);
    // Large but representable values still work: C(64, 63) = 64.
    EXPECT_EQ(multisetCount(2, 63), 64u);
}

TEST(MixesTest, MultisetsSortedAndUnique)
{
    auto mixes = enumerateMultisets(5, 3);
    EXPECT_EQ(mixes.size(), multisetCount(5, 3));
    std::set<std::vector<std::uint32_t>> seen;
    for (const auto &mix : mixes) {
        ASSERT_EQ(mix.size(), 3u);
        for (std::size_t i = 1; i < mix.size(); ++i)
            EXPECT_LE(mix[i - 1], mix[i]);
        EXPECT_TRUE(seen.insert(mix).second);
    }
}

TEST(MixesTest, PairingsOf8CoverAllSlots)
{
    const auto &pairings = allPairingsOf8();
    EXPECT_EQ(pairings.size(), 105u);
    std::set<std::array<std::array<std::uint32_t, 2>, 4>> unique;
    for (const auto &pairing : pairings) {
        std::set<std::uint32_t> slots;
        for (const auto &pair : pairing) {
            EXPECT_LT(pair[0], pair[1]); // normalized order
            slots.insert(pair[0]);
            slots.insert(pair[1]);
        }
        EXPECT_EQ(slots.size(), 8u); // perfect matching
        EXPECT_TRUE(unique.insert(pairing).second);
    }
}

// --- regression ---

TEST(RegressionTest, RecoversExactLinearFunction)
{
    // y = 3 + 2a - b
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    Rng rng(17);
    for (int i = 0; i < 50; ++i) {
        double a = rng.uniform() * 10;
        double b = rng.uniform() * 5;
        x.push_back({1.0, a, b});
        y.push_back(3 + 2 * a - b);
    }
    LinearRegression model;
    model.fit(x, y);
    EXPECT_NEAR(model.weights()[0], 3.0, 1e-4);
    EXPECT_NEAR(model.weights()[1], 2.0, 1e-4);
    EXPECT_NEAR(model.weights()[2], -1.0, 1e-4);
    EXPECT_NEAR(model.predict({1.0, 4.0, 2.0}), 9.0, 1e-4);
    EXPECT_LT(model.mse(x, y), 1e-6);
}

TEST(RegressionTest, ValidationErrors)
{
    LinearRegression model;
    EXPECT_THROW(model.fit({}, {}), FatalError);
    EXPECT_THROW(model.fit({{1.0}}, {1.0, 2.0}), FatalError);
    EXPECT_THROW(model.fit({{1.0}, {1.0, 2.0}}, {1.0, 2.0}), FatalError);
    EXPECT_THROW(model.predict({1.0}), FatalError);
}

TEST(RegressionTest, SolverRejectsSingular)
{
    // Two identical equations with inconsistent third column.
    std::vector<std::vector<double>> a = {{1, 1}, {2, 2}};
    EXPECT_THROW(solveLinearSystem(a, {1, 3}), FatalError);
    auto w = solveLinearSystem({{2, 0}, {0, 4}}, {4, 8});
    EXPECT_DOUBLE_EQ(w[0], 2.0);
    EXPECT_DOUBLE_EQ(w[1], 2.0);
}

// --- predictor + mapping ---

SoloProfile
profile(const std::string &name, double cycles, double pe, double bytes)
{
    SoloProfile p;
    p.name = name;
    p.soloCycles = cycles;
    p.peUtilization = pe;
    p.trafficBytes = bytes;
    return p;
}

TEST(PredictorTest, LearnsBandwidthAdditiveSlowdown)
{
    // Synthetic law: slowdown = 1 + bw_self * bw_other.
    std::vector<SoloProfile> profiles;
    for (int i = 0; i < 6; ++i) {
        std::string name = "p";
        name += std::to_string(i);
        profiles.push_back(profile(name, 1e6, 0.1 * (i + 1),
                                   1e6 * 20 * (i + 1)));
    }
    CorunPredictor predictor;
    for (const auto &a : profiles) {
        for (const auto &b : profiles) {
            double sd = 1.0 + a.bwDemand() * b.bwDemand() / 1000.0;
            predictor.addSample(a, b, sd);
        }
    }
    predictor.train();
    EXPECT_LT(predictor.trainingMse(), 1e-3);
    // Heavier co-runner predicted to hurt more.
    double light = predictor.predictSlowdown(profiles[2], profiles[0]);
    double heavy = predictor.predictSlowdown(profiles[2], profiles[5]);
    EXPECT_GT(heavy, light);
}

TEST(PredictorTest, ClampsToAtLeastOne)
{
    CorunPredictor predictor;
    SoloProfile a = profile("a", 1e6, 0.5, 1e6);
    predictor.addSample(a, a, 1.0);
    predictor.addSample(a, a, 1.0);
    predictor.train();
    EXPECT_GE(predictor.predictSlowdown(a, a), 1.0);
}

TEST(PredictorTest, ZeroSampleTrainIsFatal)
{
    CorunPredictor predictor;
    EXPECT_THROW(predictor.train(), FatalError);
    EXPECT_FALSE(predictor.trained());
}

TEST(PredictorTest, SingleProfileTrainsAndPredicts)
{
    // Every sample derived from one solo profile: the feature rows are
    // all identical, so only the ridge term keeps the normal equations
    // well-posed. The fit must still land and the prediction must stay
    // finite and close to the one observed slowdown.
    CorunPredictor predictor;
    SoloProfile a = profile("solo", 2e6, 0.4, 4e7);
    ASSERT_TRUE(predictor.addSample(a, a, 1.3));
    predictor.train();
    double predicted = predictor.predictSlowdown(a, a);
    EXPECT_TRUE(std::isfinite(predicted));
    EXPECT_NEAR(predicted, 1.3, 1e-3);
}

TEST(PredictorTest, RejectsNanPoisonedSamples)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    CorunPredictor predictor;
    SoloProfile a = profile("a", 1e6, 0.5, 1e6);
    SoloProfile crashed = profile("crashed", nan, nan, nan);
    // A crashed mix reaches the predictor as NaN-poisoned records: a
    // NaN slowdown, or a NaN-poisoned solo profile on either side.
    EXPECT_FALSE(predictor.addSample(a, a, nan));
    EXPECT_FALSE(predictor.addSample(crashed, a, 1.5));
    EXPECT_FALSE(predictor.addSample(a, crashed, 1.5));
    EXPECT_EQ(predictor.sampleCount(), 0u);
    // Good samples still train after rejections.
    EXPECT_TRUE(predictor.addSample(a, a, 1.25));
    EXPECT_EQ(predictor.sampleCount(), 1u);
    predictor.train();
    EXPECT_TRUE(std::isfinite(predictor.predictSlowdown(a, a)));
    // A non-positive finite slowdown is caller misuse, not a crash.
    EXPECT_THROW(predictor.addSample(a, a, 0.0), FatalError);
    EXPECT_THROW(predictor.addSample(a, a, -1.0), FatalError);
}

TEST(MappingEvaluatorTest, EvaluateComputesPaperMetrics)
{
    MappingEvaluator evaluator;
    // Two models: 0 is heavy, 1 is light.
    evaluator.setMeasuredPair(0, 0, 2.0, 2.0);
    evaluator.setMeasuredPair(1, 1, 1.0, 1.0);
    evaluator.setMeasuredPair(0, 1, 1.5, 1.2);

    std::vector<std::uint32_t> set8 = {0, 0, 0, 0, 1, 1, 1, 1};
    // Pairing all heavy-with-heavy / light-with-light:
    Pairing segregated = {{{0, 1}, {2, 3}, {4, 5}, {6, 7}}};
    MappingOutcome seg = evaluator.evaluate(set8, segregated);
    // Pairing heavy-with-light everywhere:
    Pairing mixed = {{{0, 4}, {1, 5}, {2, 6}, {3, 7}}};
    MappingOutcome mix = evaluator.evaluate(set8, mixed);

    // Mixed pairing: all slowdowns 1.5 / 1.2 -> geomean speedup
    // 1/sqrt(1.8); segregated: half at 2.0, half at 1.0.
    EXPECT_NEAR(seg.perf, 1.0 / std::sqrt(2.0), 1e-9);
    EXPECT_NEAR(mix.perf, 1.0 / std::sqrt(1.5 * 1.2), 1e-9);
    EXPECT_GT(mix.perf, seg.perf);
    EXPECT_GT(mix.fair, seg.fair);
}

TEST(MappingEvaluatorTest, StudyOrdersOracleRandomWorst)
{
    MappingEvaluator evaluator;
    Rng rng(23);
    for (std::uint32_t a = 0; a < 8; ++a) {
        for (std::uint32_t b = a; b < 8; ++b) {
            double sd_a = 1.0 + rng.uniform();
            double sd_b = 1.0 + rng.uniform();
            evaluator.setMeasuredPair(a, b, sd_a, sd_b);
        }
    }
    std::vector<std::uint32_t> set8 = {0, 1, 2, 3, 4, 5, 6, 7};
    auto study = evaluator.study(set8, nullptr, nullptr);
    EXPECT_GE(study.oracle.perf, study.random.perf);
    EXPECT_GE(study.random.perf, study.worst.perf);
    // Without a predictor, predicted falls back to random.
    EXPECT_DOUBLE_EQ(study.predicted.perf, study.random.perf);
}

TEST(MappingEvaluatorTest, PerfectPredictorMatchesOracle)
{
    MappingEvaluator evaluator;
    std::vector<SoloProfile> profiles;
    // Build profiles whose bwDemand product drives a synthetic law,
    // then check that a predictor trained on that exact law picks the
    // oracle mapping.
    for (int i = 0; i < 8; ++i) {
        std::string name = "m";
        name += std::to_string(i);
        profiles.push_back(profile(name, 1e6, 0.1, 1e6 * (5 + 10.0 * i)));
    }
    CorunPredictor predictor;
    for (std::uint32_t a = 0; a < 8; ++a) {
        for (std::uint32_t b = 0; b < 8; ++b) {
            double sd = 1.0 + profiles[a].bwDemand() *
                                  profiles[b].bwDemand() / 2000.0;
            evaluator.setMeasuredPair(
                a, b, sd,
                1.0 + profiles[b].bwDemand() * profiles[a].bwDemand() /
                          2000.0);
            predictor.addSample(profiles[a], profiles[b], sd);
        }
    }
    predictor.train();
    std::vector<std::uint32_t> set8 = {0, 1, 2, 3, 4, 5, 6, 7};
    auto study = evaluator.study(set8, &profiles, &predictor);
    EXPECT_NEAR(study.predicted.perf, study.oracle.perf, 1e-9);
}

TEST(MappingEvaluatorTest, MissingPairFatal)
{
    MappingEvaluator evaluator;
    evaluator.setMeasuredPair(0, 1, 1.1, 1.2);
    EXPECT_DOUBLE_EQ(evaluator.measuredSlowdown(0, 1), 1.1);
    EXPECT_DOUBLE_EQ(evaluator.measuredSlowdown(1, 0), 1.2);
    EXPECT_THROW(evaluator.measuredSlowdown(0, 2), FatalError);
}

} // namespace
} // namespace mnpu
