/**
 * @file
 * Tests for the request-level serving subsystem (DESIGN.md §13): the
 * seeded arrival generator, the continuous-batching scheduler, the
 * GPT-2 serving phase builders, the engine's per-request accounting
 * (the back-to-back attribution regression), the `serving.*` metric
 * schema, the flat `serving_*` checkpoint codec, and the seeded
 * determinism contract — byte-identical telemetry across reruns,
 * --jobs values, and thread vs process isolation; different seeds
 * differ. The CI TSan job reruns the Serving* and BatchScheduler*
 * suites under -fsanitize=thread.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/experiment.hh"
#include "analysis/sweep_checkpoint.hh"
#include "analysis/sweep_runner.hh"
#include "common/errors.hh"
#include "common/logging.hh"
#include "serving/arrival.hh"
#include "serving/batch_scheduler.hh"
#include "serving/engine.hh"
#include "serving/request.hh"
#include "sim/multi_core_system.hh"
#include "sw/arch_config.hh"
#include "sw/network.hh"
#include "sw/trace_generator.hh"
#include "workloads/models.hh"

namespace mnpu
{
namespace
{

/** Small serving scenario shared by the engine-level tests. */
ServingConfig
tinyServing(std::uint64_t seed)
{
    ServingConfig serving;
    serving.seed = seed;
    serving.poissonRatePerMcycle = 40.0;
    serving.numRequests = 3;
    serving.meanPromptTokens = 6;
    serving.meanDecodeTokens = 2;
    serving.maxBatchPerCore = 2;
    return serving;
}

// --- Arrival generation ---

TEST(ServingArrivalTest, PoissonIsSeededSortedAndShaped)
{
    ServingConfig config;
    config.seed = 7;
    config.poissonRatePerMcycle = 50.0;
    config.numRequests = 16;
    config.meanPromptTokens = 24;
    config.meanDecodeTokens = 6;

    auto first = generateArrivals(config);
    auto second = generateArrivals(config);
    ASSERT_EQ(first.size(), 16u);
    ASSERT_EQ(second.size(), 16u);
    for (std::size_t i = 0; i < first.size(); ++i) {
        // Byte-identical across repeated generation: same cycles, ids,
        // and request shapes.
        EXPECT_EQ(first[i].id, second[i].id) << "request " << i;
        EXPECT_EQ(first[i].arrivalCycle, second[i].arrivalCycle);
        EXPECT_EQ(first[i].promptTokens, second[i].promptTokens);
        EXPECT_EQ(first[i].decodeTokens, second[i].decodeTokens);

        // Sorted by (arrivalCycle, id) with dense ids.
        EXPECT_EQ(first[i].id, static_cast<std::uint32_t>(i));
        if (i > 0) {
            EXPECT_GE(first[i].arrivalCycle, first[i - 1].arrivalCycle);
        }

        // Shapes are drawn uniformly from [ceil(mean/2), mean].
        EXPECT_GE(first[i].promptTokens, 12u);
        EXPECT_LE(first[i].promptTokens, 24u);
        EXPECT_GE(first[i].decodeTokens, 3u);
        EXPECT_LE(first[i].decodeTokens, 6u);
    }

    // A different seed draws a different schedule.
    ServingConfig reseeded = config;
    reseeded.seed = 8;
    auto other = generateArrivals(reseeded);
    bool differs = false;
    for (std::size_t i = 0; i < other.size(); ++i) {
        differs = differs ||
                  other[i].arrivalCycle != first[i].arrivalCycle ||
                  other[i].promptTokens != first[i].promptTokens ||
                  other[i].decodeTokens != first[i].decodeTokens;
    }
    EXPECT_TRUE(differs);
}

TEST(ServingArrivalTest, TraceParsesCommentsAndSortsByArrival)
{
    // Out of order on purpose: ids are assigned after sorting.
    auto requests = parseArrivalTrace("# demo trace\n"
                                      "\n"
                                      "500,8,4\n"
                                      "  # indented comment\n"
                                      "100,2,1\n"
                                      "500,3,2\n");
    ASSERT_EQ(requests.size(), 3u);
    EXPECT_EQ(requests[0].arrivalCycle, 100u);
    EXPECT_EQ(requests[0].promptTokens, 2u);
    EXPECT_EQ(requests[0].decodeTokens, 1u);
    EXPECT_EQ(requests[1].arrivalCycle, 500u);
    EXPECT_EQ(requests[2].arrivalCycle, 500u);
    for (std::size_t i = 0; i < requests.size(); ++i)
        EXPECT_EQ(requests[i].id, static_cast<std::uint32_t>(i));
}

TEST(ServingArrivalTest, TraceRejectsMalformedInput)
{
    EXPECT_THROW(parseArrivalTrace(""), FatalError);
    EXPECT_THROW(parseArrivalTrace("# only comments\n"), FatalError);
    EXPECT_THROW(parseArrivalTrace("100,2\n"), FatalError);
    EXPECT_THROW(parseArrivalTrace("abc,2,1\n"), FatalError);
    EXPECT_THROW(parseArrivalTrace("100,0,1\n"), FatalError);
    EXPECT_THROW(parseArrivalTrace("100,2,0\n"), FatalError);
}

TEST(ServingArrivalTest, TraceOverridesPoissonAndBadRateIsFatal)
{
    ServingConfig config;
    config.poissonRatePerMcycle = 50.0;
    config.numRequests = 16;
    config.arrivalTrace = "10,4,2\n20,3,1\n";
    auto requests = generateArrivals(config);
    ASSERT_EQ(requests.size(), 2u);
    EXPECT_EQ(requests[0].arrivalCycle, 10u);

    ServingConfig bad;
    bad.poissonRatePerMcycle = 0.0;
    EXPECT_THROW(generateArrivals(bad), FatalError);
}

// --- Continuous-batching scheduler ---

TEST(BatchSchedulerTest, AdmitsLeastLoadedWithLowestIdTieBreak)
{
    BatchScheduler scheduler(2, 2);
    EXPECT_FALSE(scheduler.anyResident());
    for (std::uint32_t id = 0; id < 5; ++id)
        scheduler.enqueue(id);

    auto admissions = scheduler.admit();
    ASSERT_EQ(admissions.size(), 4u);
    // Ties break toward the lower core id, FCFS over requests.
    EXPECT_EQ(admissions[0].requestId, 0u);
    EXPECT_EQ(admissions[0].core, 0u);
    EXPECT_EQ(admissions[1].requestId, 1u);
    EXPECT_EQ(admissions[1].core, 1u);
    EXPECT_EQ(admissions[2].requestId, 2u);
    EXPECT_EQ(admissions[2].core, 0u);
    EXPECT_EQ(admissions[3].requestId, 3u);
    EXPECT_EQ(admissions[3].core, 1u);
    EXPECT_EQ(scheduler.pendingCount(), 1u);
    EXPECT_TRUE(scheduler.anyResident());
    EXPECT_EQ(scheduler.resident(0),
              (std::vector<std::uint32_t>{0, 2}));
    EXPECT_EQ(scheduler.resident(1),
              (std::vector<std::uint32_t>{1, 3}));

    // Full cores admit nothing.
    EXPECT_TRUE(scheduler.admit().empty());

    // A released slot is refilled from the FCFS queue between
    // iterations (continuous batching), keeping admission order.
    scheduler.release(0, 0);
    EXPECT_EQ(scheduler.resident(0), (std::vector<std::uint32_t>{2}));
    auto refill = scheduler.admit();
    ASSERT_EQ(refill.size(), 1u);
    EXPECT_EQ(refill[0].requestId, 4u);
    EXPECT_EQ(refill[0].core, 0u);
    EXPECT_EQ(scheduler.pendingCount(), 0u);
    EXPECT_EQ(scheduler.resident(0),
              (std::vector<std::uint32_t>{2, 4}));
}

// --- GPT-2 serving phases ---

TEST(ServingWorkloadTest, Gpt2PhasesShareWeightsButNotKvCache)
{
    Network net;
    appendGpt2Prefill(net, "r0", 6, ModelScale::Mini);
    const std::size_t prefill_layers = net.layers.size();
    // Mini GPT-2 is 2 blocks x 6 GEMMs + lm_head.
    EXPECT_EQ(prefill_layers, 13u);
    appendGpt2DecodeStep(net, "r1", 6, ModelScale::Mini);
    EXPECT_EQ(net.layers.size(), 2 * prefill_layers);

    for (std::size_t i = 0; i < net.layers.size(); ++i) {
        const Layer &layer = net.layers[i];
        const bool is_kv =
            layer.name.find("_scores") != std::string::npos ||
            layer.name.find("_ctx") != std::string::npos;
        if (is_kv) {
            // Attention reads this request's own KV tensors.
            EXPECT_TRUE(layer.weightTag.empty()) << layer.name;
        } else {
            // Model weights carry request-independent tags, so
            // co-batched requests address one shared tensor.
            EXPECT_EQ(layer.weightTag.rfind("gpt2w_", 0), 0u)
                << layer.name;
        }
        // Decode steps are single-token (M = 1).
        if (i >= prefill_layers) {
            EXPECT_EQ(layer.gemmM, 1u) << layer.name;
        }
    }

    // The two requests' weight layers carry identical tag sequences.
    for (std::size_t i = 0; i < prefill_layers; ++i) {
        EXPECT_EQ(net.layers[i].weightTag,
                  net.layers[prefill_layers + i].weightTag);
    }
}

TEST(ServingWorkloadTest, KvBytesScaleWithContextAndDataBytes)
{
    // 2 tensors x blocks x ctx x d x dataBytes; Mini is 2 blocks of
    // d = 768.
    EXPECT_EQ(gpt2KvBytesPerDecodeStep(1, ModelScale::Mini, 1),
              2ull * 2 * 1 * 768);
    EXPECT_EQ(gpt2KvBytesPerDecodeStep(8, ModelScale::Mini, 1),
              4u * gpt2KvBytesPerDecodeStep(2, ModelScale::Mini, 1));
    EXPECT_EQ(gpt2KvBytesPerDecodeStep(8, ModelScale::Mini, 2),
              2u * gpt2KvBytesPerDecodeStep(8, ModelScale::Mini, 1));
    EXPECT_GT(gpt2KvBytesPerDecodeStep(8, ModelScale::Full, 1),
              gpt2KvBytesPerDecodeStep(8, ModelScale::Mini, 1));
}

// --- Engine: completion, timestamps, SLO summary ---

TEST(ServingEngineTest, CompletesEveryRequestWithOrderedTimestamps)
{
    SystemConfig config;
    config.level = SharingLevel::ShareDWT;
    config.mem = NpuMemConfig::cloudNpu();
    config.serving = ServingConfig{};
    config.serving->arrivalTrace = "0,4,2\n2000,3,1\n";
    config.serving->maxBatchPerCore = 2;

    ServingResult result = runServing(ArchConfig::miniNpu(),
                                      ModelScale::Mini, config, 2);
    ASSERT_EQ(result.requests.size(), 2u);
    for (const RequestRecord &record : result.requests) {
        EXPECT_EQ(record.tokensDone, record.decodeTokens);
        EXPECT_GT(record.firstTokenCycle, record.arrivalCycle);
        EXPECT_GE(record.finishCycle, record.firstTokenCycle);
        EXPECT_GT(record.attributedReadBytes, 0u);
        EXPECT_GT(record.attributedWriteBytes, 0u);
    }
    // One decode step at context 4 for request 0; request 1 finishes
    // at its prefill (decodeTokens == 1), streaming no KV bytes.
    EXPECT_EQ(result.requests[0].kvReadBytes,
              gpt2KvBytesPerDecodeStep(4, ModelScale::Mini,
                                       ArchConfig::miniNpu().dataBytes));
    EXPECT_EQ(result.requests[1].kvReadBytes, 0u);

    const ServingSummary &summary = result.summary;
    EXPECT_EQ(summary.offered, 2u);
    EXPECT_EQ(summary.completed, 2u);
    EXPECT_GT(summary.rounds, 0u);
    EXPECT_EQ(summary.prefillTokens, 7u);
    EXPECT_EQ(summary.decodeTokens, 3u);
    Cycle makespan = 0;
    for (const RequestRecord &record : result.requests)
        makespan = std::max(makespan, record.finishCycle);
    EXPECT_EQ(summary.makespanCycles, makespan);
    EXPECT_GE(result.aggregate.globalCycles, makespan);
    EXPECT_GT(summary.offeredPerMcycle, 0.0);

    // The aggregate telemetry ends with the serving.* schema.
    bool found = false;
    for (const auto &metric : result.aggregate.telemetry.metrics)
        found = found || metric.name == "serving.goodput_per_mcycle";
    EXPECT_TRUE(found);
}

// --- Satellite 2 regression: per-request accounting ---

/** Planned DMA bytes (read + write) of @p net on the serving arch. */
std::pair<std::uint64_t, std::uint64_t>
plannedBytes(const Network &net)
{
    TraceGenerator trace(ArchConfig::miniNpu(), net);
    std::uint64_t reads = 0, writes = 0;
    for (const auto &layer : trace.layers()) {
        reads += layer.readBytes;
        writes += layer.writeBytes;
    }
    return {reads, writes};
}

TEST(ServingAttributionTest, PerRequestBytesMatchPlannedPhaseSums)
{
    // One request alone on one core: its attribution must equal the
    // planned bytes of its own phases — the prefill pass plus decode
    // steps at contexts P and P+1 — reconstructed independently here.
    SystemConfig config;
    config.level = SharingLevel::ShareDWT;
    config.mem = NpuMemConfig::cloudNpu();
    config.serving = ServingConfig{};
    config.serving->arrivalTrace = "0,5,3\n";
    config.serving->maxBatchPerCore = 1;

    ServingResult result = runServing(ArchConfig::miniNpu(),
                                      ModelScale::Mini, config, 1);
    ASSERT_EQ(result.requests.size(), 1u);
    const RequestRecord &record = result.requests[0];
    EXPECT_EQ(record.core, 0u);
    EXPECT_EQ(record.tokensDone, 3u);

    std::uint64_t reads = 0, writes = 0;
    {
        Network net;
        appendGpt2Prefill(net, "r0", 5, ModelScale::Mini);
        auto [r, w] = plannedBytes(net);
        reads += r;
        writes += w;
    }
    for (std::uint32_t ctx : {5u, 6u}) {
        Network net;
        net.name = "serve_core0";
        appendGpt2DecodeStep(net, "r0", ctx, ModelScale::Mini);
        auto [r, w] = plannedBytes(net);
        reads += r;
        writes += w;
    }
    EXPECT_EQ(record.attributedReadBytes, reads);
    EXPECT_EQ(record.attributedWriteBytes, writes);
    EXPECT_EQ(record.kvReadBytes,
              gpt2KvBytesPerDecodeStep(5, ModelScale::Mini, 1) +
                  gpt2KvBytesPerDecodeStep(6, ModelScale::Mini, 1));
}

TEST(ServingAttributionTest, BackToBackPhasesKeepDataBytesAdditive)
{
    // One core running two requests' decode steps back-to-back must
    // account exactly the sum of the two run alone — no double count
    // from shared weight tags or retained DRAM/TLB state. Walk bytes
    // are excluded: translation traffic legitimately depends on TLB
    // history across phases.
    Network a, b, ab;
    appendGpt2DecodeStep(a, "a", 8, ModelScale::Mini);
    appendGpt2DecodeStep(b, "b", 12, ModelScale::Mini);
    appendGpt2DecodeStep(ab, "a", 8, ModelScale::Mini);
    appendGpt2DecodeStep(ab, "b", 12, ModelScale::Mini);

    const ArchConfig arch = ArchConfig::miniNpu();
    auto dataBytesOf = [&arch](const Network &net, SharingLevel level) {
        SimResult result = runMix(
            level, {std::make_shared<TraceGenerator>(arch, net)});
        return result.cores[0].trafficBytes - result.cores[0].walkBytes;
    };
    for (SharingLevel level :
         {SharingLevel::Static, SharingLevel::ShareDWT}) {
        EXPECT_EQ(dataBytesOf(ab, level),
                  dataBytesOf(a, level) + dataBytesOf(b, level))
            << toString(level);
    }
}

TEST(ServingAttributionTest, MmuPerCoreCountersSumToTotalsOnce)
{
    // The legacy CoreResult view duplicates whole-MMU walk totals (and
    // shared-TLB hit/miss totals under +T) onto every core — pinned by
    // the batch goldens. The attributed counters the serving engine
    // folds must instead partition each total exactly once.
    Network a, b;
    appendGpt2DecodeStep(a, "a", 8, ModelScale::Mini);
    appendGpt2DecodeStep(b, "b", 12, ModelScale::Mini);
    const ArchConfig arch = ArchConfig::miniNpu();

    for (SharingLevel level :
         {SharingLevel::Static, SharingLevel::ShareDWT}) {
        SystemConfig config;
        config.level = level;
        config.mem = NpuMemConfig::cloudNpu();
        std::vector<CoreBinding> bindings(2);
        bindings[0].trace = std::make_shared<TraceGenerator>(arch, a);
        bindings[1].trace = std::make_shared<TraceGenerator>(arch, b);
        MultiCoreSystem system(config, std::move(bindings));
        SimResult result = system.run();
        const Mmu &mmu = system.mmu();

        // Legacy duplication: both cores report the whole-MMU total.
        EXPECT_GT(result.cores[0].walks, 0u);
        EXPECT_EQ(result.cores[0].walks, result.cores[1].walks);

        // Attribution partitions it: non-trivially on both cores.
        EXPECT_EQ(mmu.walksFor(0) + mmu.walksFor(1),
                  result.cores[0].walks)
            << toString(level);
        EXPECT_GT(mmu.walksFor(0), 0u);
        EXPECT_GT(mmu.walksFor(1), 0u);

        if (level == SharingLevel::ShareDWT) {
            // Shared TLB: per-core results duplicate the totals.
            EXPECT_EQ(result.cores[0].tlbHits, result.cores[1].tlbHits);
            EXPECT_EQ(mmu.tlbHitsFor(0) + mmu.tlbHitsFor(1),
                      result.cores[0].tlbHits);
            EXPECT_EQ(mmu.tlbMissesFor(0) + mmu.tlbMissesFor(1),
                      result.cores[0].tlbMisses);
        } else {
            // Private TLBs: attribution equals the per-core counts.
            for (std::uint32_t core = 0; core < 2; ++core) {
                EXPECT_EQ(mmu.tlbHitsFor(core),
                          result.cores[core].tlbHits);
                EXPECT_EQ(mmu.tlbMissesFor(core),
                          result.cores[core].tlbMisses);
            }
        }
        // Out-of-range cores read zero instead of crashing.
        EXPECT_EQ(mmu.walksFor(99), 0u);
        EXPECT_EQ(mmu.tlbHitsFor(99), 0u);
    }
}

// --- Seeded determinism across --jobs and isolation modes ---

/** Serving jobs at two sharing levels with the given arrival seed. */
std::vector<SweepJob>
servingJobs(std::uint64_t seed)
{
    std::vector<SweepJob> jobs;
    for (SharingLevel level :
         {SharingLevel::Static, SharingLevel::ShareDWT}) {
        SweepJob job;
        job.config.level = level;
        job.config.serving = tinyServing(seed);
        job.models = {"gpt2", "gpt2"};
        jobs.push_back(std::move(job));
    }
    return jobs;
}

/**
 * Canonical serialization of a record's simulated payload (including
 * the flat serving_* fields): wall clock and status are normalized so
 * fingerprints match iff every metric is bit-identical.
 */
std::string
servingFingerprint(const SweepRecord &record)
{
    SweepRecord canon = record;
    canon.wallSeconds = 0;
    canon.status = SweepStatus::Ok;
    canon.error.clear();
    canon.attempts = 1;
    return toJsonLine(checkpointRecordOf("fingerprint", canon));
}

std::vector<std::string>
runServingSweep(const std::vector<SweepJob> &jobs, std::size_t workers,
                IsolationMode isolation)
{
    ExperimentContext context(ArchConfig::miniNpu(),
                              NpuMemConfig::cloudNpu(),
                              ModelScale::Mini);
    SweepRunner runner(workers);
    SweepOptions options;
    options.isolation = isolation;
    auto records = runner.run(context, jobs, options);
    std::vector<std::string> fingerprints;
    for (const SweepRecord &record : records) {
        EXPECT_EQ(record.status, SweepStatus::Ok);
        EXPECT_TRUE(record.outcome.serving.has_value());
        if (record.outcome.serving) {
            EXPECT_EQ(record.outcome.serving->completed,
                      record.outcome.serving->offered);
        }
        fingerprints.push_back(servingFingerprint(record));
    }
    return fingerprints;
}

TEST(ServingDeterminismTest, ByteIdenticalAcrossRerunsJobsAndIsolation)
{
    const auto jobs = servingJobs(5);
    const auto baseline = runServingSweep(jobs, 1, IsolationMode::Thread);
    ASSERT_EQ(baseline.size(), jobs.size());
    // The serving_* fields are part of the fingerprint, and the two
    // sharing levels genuinely differ.
    EXPECT_NE(baseline[0].find("\"serving_offered\":3"),
              std::string::npos);
    EXPECT_NE(baseline[0], baseline[1]);

    // Same seed: byte-identical across a rerun, across --jobs, and
    // across thread vs process isolation.
    EXPECT_EQ(runServingSweep(jobs, 1, IsolationMode::Thread), baseline);
    EXPECT_EQ(runServingSweep(jobs, 4, IsolationMode::Thread), baseline);
    EXPECT_EQ(runServingSweep(jobs, 2, IsolationMode::Process),
              baseline);

    // A different seed changes the arrival schedule and the outcome.
    const auto reseeded =
        runServingSweep(servingJobs(6), 1, IsolationMode::Thread);
    ASSERT_EQ(reseeded.size(), baseline.size());
    EXPECT_NE(reseeded[0], baseline[0]);
    EXPECT_NE(reseeded[1], baseline[1]);
}

TEST(ServingDeterminismTest, JobKeySeparatesServingConfigs)
{
    const ArchConfig arch = ArchConfig::miniNpu();
    const NpuMemConfig mem = NpuMemConfig::cloudNpu();
    SweepJob batch;
    batch.models = {"gpt2", "gpt2"};
    SweepJob serving = batch;
    serving.config.serving = tinyServing(5);
    SweepJob serving_same = batch;
    serving_same.config.serving = tinyServing(5);
    SweepJob serving_reseeded = batch;
    serving_reseeded.config.serving = tinyServing(6);

    auto key = [&](const SweepJob &job) {
        return sweepJobKey(job, arch, mem, ModelScale::Mini);
    };
    EXPECT_NE(key(batch), key(serving));
    EXPECT_EQ(key(serving), key(serving_same));
    EXPECT_NE(key(serving), key(serving_reseeded));
}

// --- serving.* schema and serving_* checkpoint codec ---

TEST(ServingMetricsTest, SchemaIsStableCountersThenGauges)
{
    ServingSummary summary;
    summary.offered = 4;
    summary.completed = 3;
    TelemetrySnapshot snapshot;
    appendServingMetrics(snapshot, summary);

    const std::vector<std::pair<std::string, bool>> expected = {
        {"serving.requests.offered", true},
        {"serving.requests.completed", true},
        {"serving.requests.slo_good", true},
        {"serving.rounds", true},
        {"serving.tokens.prefill", true},
        {"serving.tokens.decode", true},
        {"serving.kv_read_bytes", true},
        {"serving.makespan_cycles", true},
        {"serving.ttft.p50", false},
        {"serving.ttft.p99", false},
        {"serving.ttft.mean", false},
        {"serving.tpot.p50", false},
        {"serving.tpot.p99", false},
        {"serving.latency.p50", false},
        {"serving.latency.p99", false},
        {"serving.offered_per_mcycle", false},
        {"serving.goodput_per_mcycle", false},
    };
    ASSERT_EQ(snapshot.metrics.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(snapshot.metrics[i].name, expected[i].first) << i;
        EXPECT_EQ(snapshot.metrics[i].isCounter, expected[i].second)
            << expected[i].first;
    }
    EXPECT_EQ(snapshot.metrics[0].counter, 4u);
    EXPECT_EQ(snapshot.metrics[1].counter, 3u);
}

TEST(ServingMetricsTest, SummaryComputesSloQuantilesAndGoodput)
{
    std::vector<RequestRecord> records(2);
    records[0].promptTokens = 4;
    records[0].decodeTokens = 2;
    records[0].tokensDone = 2;
    records[0].arrivalCycle = 0;
    records[0].firstTokenCycle = 100; // TTFT 100
    records[0].finishCycle = 150;     // TPOT 50
    records[0].kvReadBytes = 64;
    records[1].promptTokens = 3;
    records[1].decodeTokens = 1;
    records[1].tokensDone = 1;
    records[1].arrivalCycle = 50;
    records[1].firstTokenCycle = 350; // TTFT 300
    records[1].finishCycle = 350;

    // TTFT SLO of 200 admits only the first request.
    ServingSummary summary =
        summarizeRequests(records, 2, 7, 1000, 200, 0);
    EXPECT_EQ(summary.offered, 2u);
    EXPECT_EQ(summary.completed, 2u);
    EXPECT_EQ(summary.sloGood, 1u);
    EXPECT_EQ(summary.rounds, 7u);
    EXPECT_EQ(summary.prefillTokens, 7u);
    EXPECT_EQ(summary.decodeTokens, 3u);
    EXPECT_EQ(summary.kvReadBytes, 64u);
    EXPECT_DOUBLE_EQ(summary.ttftP50, 200.0);
    EXPECT_DOUBLE_EQ(summary.ttftMean, 200.0);
    EXPECT_DOUBLE_EQ(summary.ttftP99, 298.0);
    EXPECT_DOUBLE_EQ(summary.latencyP50, 225.0);
    EXPECT_DOUBLE_EQ(summary.offeredPerMcycle, 2.0 / 1e-3);
    EXPECT_DOUBLE_EQ(summary.goodputPerMcycle, 1.0 / 1e-3);

    // An incomplete request (budget/stop) is excluded from the SLO
    // basis but still counted as offered.
    records[1].tokensDone = 0;
    summary = summarizeRequests(records, 2, 7, 1000, 200, 0);
    EXPECT_EQ(summary.completed, 1u);
    EXPECT_DOUBLE_EQ(summary.ttftMean, 100.0);
}

TEST(ServingCheckpointTest, ServingFieldsRoundTripAndStayOptIn)
{
    SweepCheckpointRecord record;
    record.key = "0123456789abcdef";
    record.models = {"gpt2", "gpt2"};
    ServingSummary summary;
    summary.offered = 3;
    summary.completed = 3;
    summary.sloGood = 2;
    summary.rounds = 9;
    summary.prefillTokens = 17;
    summary.decodeTokens = 6;
    summary.kvReadBytes = 12288;
    summary.makespanCycles = 123456;
    summary.ttftP50 = 1002.5;
    summary.ttftP99 = 2004.25;
    summary.ttftMean = 1400.125;
    summary.tpotP50 = 310.5;
    summary.tpotP99 = 420.75;
    summary.latencyP50 = 2100.5;
    summary.latencyP99 = 3200.25;
    summary.offeredPerMcycle = 24.3125;
    summary.goodputPerMcycle = 16.203125;
    record.serving = summary;

    const std::string line = toJsonLine(record);
    EXPECT_NE(line.find("\"serving_offered\":3"), std::string::npos);
    EXPECT_NE(line.find("\"serving_goodput_per_mcycle\":"),
              std::string::npos);

    SweepCheckpointRecord parsed;
    ASSERT_TRUE(parseJsonLine(line, parsed));
    ASSERT_TRUE(parsed.serving.has_value());
    EXPECT_TRUE(*parsed.serving == summary);
    // The round trip is byte-stable (the determinism fingerprints and
    // golden fixtures depend on it).
    EXPECT_EQ(toJsonLine(parsed), line);

    // Batch records carry no serving_* keys at all, keeping the
    // committed batch golden fixtures byte-identical.
    SweepCheckpointRecord batch;
    batch.key = "0123456789abcdef";
    batch.models = {"ds2", "gpt2"};
    const std::string batch_line = toJsonLine(batch);
    EXPECT_EQ(batch_line.find("serving_"), std::string::npos);
    SweepCheckpointRecord batch_parsed;
    ASSERT_TRUE(parseJsonLine(batch_line, batch_parsed));
    EXPECT_FALSE(batch_parsed.serving.has_value());
}

} // namespace
} // namespace mnpu
