/**
 * @file
 * Fast-fidelity ratchet tests.
 *
 * The --fidelity fast path trades per-transaction simulation for a
 * closed-form tile model, so it is NOT bit-identical to exact. Exact
 * stays the golden-ratcheted ground truth (test_golden_trace runs with
 * FidelityKind::Exact pinned, so fast-path code is provably dead when
 * exact is selected); these tests hold the other half of the contract:
 * fast stays inside the committed error envelope
 * (tests/golden/fidelity_envelope.json): per golden mix, the relative
 * cycle deviation (global and per-core local) against the committed
 * exact fixture must not exceed the envelope bound.
 *
 * Plus the checkpoint-identity rules: a job that resolves to fast gets
 * a different sweepJobKey than exact (so fast results can never alias
 * exact checkpoints), an armed integrity check forces the key back to
 * exact's, and a fast job round-trips through checkpoint resume with
 * its own metrics restored bit-identically.
 */

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "analysis/golden.hh"
#include "analysis/sweep_runner.hh"
#include "common/fidelity.hh"
#include "sw/arch_config.hh"

#ifndef MNPU_GOLDEN_DIR
#define MNPU_GOLDEN_DIR "tests/golden"
#endif

namespace mnpu
{
namespace
{

std::string
readFileOrEmpty(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::string{};
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/** Committed envelope rows keyed by case name (loaded once). */
const std::map<std::string, FidelityEnvelopeEntry> &
committedEnvelope()
{
    static const std::map<std::string, FidelityEnvelopeEntry> rows = [] {
        std::map<std::string, FidelityEnvelopeEntry> parsed;
        std::ifstream in(fidelityEnvelopePath(MNPU_GOLDEN_DIR));
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty())
                continue;
            FidelityEnvelopeEntry entry;
            if (parseFidelityEnvelopeLine(line, entry))
                parsed[entry.name] = entry;
        }
        return parsed;
    }();
    return rows;
}

/** The committed exact record of a case (already validated by
 *  test_golden_trace; reused here so the fast runs don't need their
 *  own exact reference simulations). */
SweepCheckpointRecord
committedExactRecord(const std::string &name)
{
    std::string text =
        readFileOrEmpty(goldenFixturePath(MNPU_GOLDEN_DIR, name));
    SweepCheckpointRecord record;
    EXPECT_FALSE(text.empty()) << "missing golden fixture for " << name;
    if (!text.empty()) {
        EXPECT_TRUE(
            parseJsonLine(text.substr(0, text.find('\n')), record))
            << "unparseable golden fixture for " << name;
    }
    return record;
}

double
relDev(std::uint64_t exact, std::uint64_t fast)
{
    if (exact == 0)
        return fast == 0 ? 0.0 : 1.0;
    double de = static_cast<double>(exact);
    double df = static_cast<double>(fast);
    return (df > de ? df - de : de - df) / de;
}

class FidelityEnvelope : public testing::TestWithParam<GoldenCase>
{
};

// Fast must stay inside the committed per-mix error envelope: the
// relative deviation of global cycles and every core's local cycles
// against the committed exact fixture is bounded by the envelope row.
// (Exact itself is pinned to the fixture by GoldenTrace, which runs
// with fidelity Exact explicitly set.)
TEST_P(FidelityEnvelope, FastStaysWithinCommittedEnvelope)
{
    const GoldenCase &golden = GetParam();
    const auto &rows = committedEnvelope();
    auto it = rows.find(golden.name);
    ASSERT_NE(it, rows.end())
        << "no envelope row for " << golden.name
        << " — regenerate with `update_golden --envelope "
           "--update-golden` and commit the result";
    const FidelityEnvelopeEntry &entry = it->second;

    SweepCheckpointRecord exact = committedExactRecord(golden.name);

    // The envelope was measured against these fixtures; if the exact
    // cycles moved, the envelope is stale and must be regenerated
    // alongside the fixtures.
    EXPECT_EQ(entry.exactCycles, exact.globalCycles)
        << "envelope row for " << golden.name
        << " was measured against a different exact fixture; "
           "regenerate with `update_golden --envelope --update-golden`";

    SweepCheckpointRecord fast =
        runGoldenCase(golden, {}, FidelityKind::Fast);
    double dev = relDev(exact.globalCycles, fast.globalCycles);
    ASSERT_EQ(exact.localCycles.size(), fast.localCycles.size());
    for (std::size_t i = 0; i < exact.localCycles.size(); ++i) {
        double d = relDev(exact.localCycles[i], fast.localCycles[i]);
        dev = dev > d ? dev : d;
    }
    EXPECT_LE(dev, entry.bound + 1e-9)
        << "fast fidelity drifted outside the committed envelope for "
        << golden.name << " (measured " << dev << ", bound "
        << entry.bound << "); if the fast model intentionally changed, "
        << "regenerate with `update_golden --envelope --update-golden` "
        << "and review the deviation diff";
}

INSTANTIATE_TEST_SUITE_P(AllCases, FidelityEnvelope,
                         testing::ValuesIn(goldenCases()));

TEST(FidelityEnvelopeFile, CoversExactlyTheGoldenCases)
{
    const auto &rows = committedEnvelope();
    EXPECT_EQ(rows.size(), goldenCases().size());
    for (const GoldenCase &golden : goldenCases()) {
        EXPECT_EQ(rows.count(golden.name), 1u)
            << "no envelope row for " << golden.name;
    }
    // Bounds are sane: floored at 5% and never below the measured
    // deviation they were derived from.
    for (const auto &[name, entry] : rows) {
        EXPECT_GE(entry.bound, 0.05) << name;
        EXPECT_GE(entry.bound + 1e-9, entry.deviation) << name;
    }
}

TEST(FidelityEnvelopeFile, LineRoundTrips)
{
    FidelityEnvelopeEntry entry;
    entry.name = "some-case";
    entry.exactCycles = 123456;
    entry.fastCycles = 120000;
    entry.deviation = 0.027995;
    entry.bound = 0.05;
    FidelityEnvelopeEntry parsed;
    ASSERT_TRUE(
        parseFidelityEnvelopeLine(fidelityEnvelopeLine(entry), parsed));
    EXPECT_EQ(parsed.name, entry.name);
    EXPECT_EQ(parsed.exactCycles, entry.exactCycles);
    EXPECT_EQ(parsed.fastCycles, entry.fastCycles);
    EXPECT_DOUBLE_EQ(parsed.deviation, entry.deviation);
    EXPECT_DOUBLE_EQ(parsed.bound, entry.bound);
    EXPECT_FALSE(parseFidelityEnvelopeLine("{\"not\":\"it\"}", parsed));
}

TEST(FidelityEnvelopeFile, RejectsGarbageAndReadsExactCycles)
{
    FidelityEnvelopeEntry parsed;
    // Empty, non-numeric, quoted, negative and fractional values are
    // not a row of zeros.
    for (const char *bad :
         {"{\"case\":\"x\",\"exact_cycles\":,\"fast_cycles\":oops,"
          "\"deviation\":\"0.5\",\"bound\":}",
          "{\"case\":\"x\",\"exact_cycles\":-1,\"fast_cycles\":1,"
          "\"deviation\":0.5,\"bound\":0.6}",
          "{\"case\":\"x\",\"exact_cycles\":1.5,\"fast_cycles\":1,"
          "\"deviation\":0.5,\"bound\":0.6}"})
        EXPECT_FALSE(parseFidelityEnvelopeLine(bad, parsed)) << bad;
    // Cycle counts are u64, not doubles: 2^53 + 1 survives.
    ASSERT_TRUE(parseFidelityEnvelopeLine(
        "{\"case\":\"x\",\"exact_cycles\":9007199254740993,"
        "\"fast_cycles\":18446744073709551615,\"deviation\":0.5,"
        "\"bound\":0.6}",
        parsed));
    EXPECT_EQ(parsed.exactCycles, 9007199254740993ULL);
    EXPECT_EQ(parsed.fastCycles, UINT64_MAX);
}

// --- checkpoint identity ---

TEST(FidelitySweepKey, FastFeedsTheKeyOnlyWhenItActuallyRuns)
{
    ArchConfig arch = ArchConfig::miniNpu();
    NpuMemConfig mem = NpuMemConfig::cloudNpu();

    SweepJob exact_job;
    exact_job.config.fidelity = FidelityKind::Exact;
    // Pin the check level: an unset one resolves through MNPU_CHECK,
    // and under MNPU_CHECK=full every fast request falls back to
    // exact — the key divergence below only exists with checks off.
    exact_job.config.checkLevel = CheckLevel::Off;
    exact_job.models = {"res", "ncf"};

    SweepJob fast_job = exact_job;
    fast_job.config.fidelity = FidelityKind::Fast;

    const std::string exact_key =
        sweepJobKey(exact_job, arch, mem, ModelScale::Mini);
    const std::string fast_key =
        sweepJobKey(fast_job, arch, mem, ModelScale::Mini);
    // Fast changes results, so it must never share exact's key.
    EXPECT_NE(exact_key, fast_key);

    // An unset fidelity resolves through the process default (and
    // MNPU_FIDELITY): absent those it keeps the historical
    // (pre-fidelity) exact key, and under an env-selected fast it
    // lands on the fast key — never on some third value.
    SweepJob default_job = exact_job;
    default_job.config.fidelity.reset();
    const bool default_is_fast =
        fidelitySetting().effective(std::nullopt) == FidelityKind::Fast;
    EXPECT_EQ(sweepJobKey(default_job, arch, mem, ModelScale::Mini),
              default_is_fast ? fast_key : exact_key);

    // Any armed integrity check forces the exact fallback, and the
    // key follows the RESOLVED fidelity: a fast request under --check
    // produces exact results and must land on exact's key, or a later
    // genuine fast run would restore exact-fallback numbers.
    for (CheckLevel level : {CheckLevel::Cheap, CheckLevel::Full}) {
        SweepJob checked_fast = fast_job;
        checked_fast.config.checkLevel = level;
        SweepJob checked_exact = exact_job;
        checked_exact.config.checkLevel = level;
        EXPECT_EQ(
            sweepJobKey(checked_fast, arch, mem, ModelScale::Mini),
            exact_key)
            << "check level " << toString(level);
        // checkLevel itself stays excluded from the key (passive).
        EXPECT_EQ(
            sweepJobKey(checked_exact, arch, mem, ModelScale::Mini),
            exact_key)
            << "check level " << toString(level);
    }
}

// A fast job round-trips through the v2 checkpoint: after a first
// sweep writes the checkpoint, a resumed sweep restores BOTH the fast
// and the exact record bit-identically to their own first-run values
// — the two jobs live under different keys, so neither can alias the
// other's results.
TEST(FidelitySweepKey, FastResumeRoundTripsWithoutAliasingExact)
{
    const std::string path =
        ::testing::TempDir() + "mnpu_ckpt_fidelity.jsonl";
    std::remove(path.c_str());

    NpuMemConfig mem = NpuMemConfig::cloudNpu();
    mem.timing = DramTiming::preset("hbm2");

    std::vector<SweepJob> jobs(2);
    jobs[0].config.fidelity = FidelityKind::Exact;
    jobs[0].models = {"alex", "ncf"};
    jobs[1].config.fidelity = FidelityKind::Fast;
    jobs[1].models = {"alex", "ncf"};
    // Pin checks off so the fast job really runs fast even when the
    // suite executes under MNPU_CHECK=full (where an unset level
    // would force the exact fallback and both records would agree).
    for (SweepJob &job : jobs)
        job.config.checkLevel = CheckLevel::Off;

    SweepOptions options;
    options.checkpointPath = path;
    options.resume = true;

    ExperimentContext first_context(ArchConfig::miniNpu(), mem,
                                    ModelScale::Mini);
    SweepRunner runner(2);
    auto first = runner.run(first_context, jobs, options);
    ASSERT_EQ(first.size(), 2u);
    EXPECT_EQ(first[0].status, SweepStatus::Ok);
    EXPECT_EQ(first[1].status, SweepStatus::Ok);
    // The analytic model genuinely diverges on this mix — if the two
    // records agreed, the aliasing assertions below would be vacuous.
    EXPECT_NE(first[0].outcome.raw.globalCycles,
              first[1].outcome.raw.globalCycles);

    ExperimentContext resumed_context(ArchConfig::miniNpu(), mem,
                                      ModelScale::Mini);
    auto resumed = runner.run(resumed_context, jobs, options);
    ASSERT_EQ(resumed.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_EQ(resumed[i].status, SweepStatus::Skipped)
            << "job " << i << " re-executed instead of restoring";
        EXPECT_EQ(resumed[i].outcome.raw.globalCycles,
                  first[i].outcome.raw.globalCycles)
            << "job " << i;
        ASSERT_EQ(resumed[i].outcome.raw.cores.size(),
                  first[i].outcome.raw.cores.size());
        for (std::size_t c = 0;
             c < first[i].outcome.raw.cores.size(); ++c) {
            EXPECT_EQ(resumed[i].outcome.raw.cores[c].localCycles,
                      first[i].outcome.raw.cores[c].localCycles)
                << "job " << i << " core " << c;
            EXPECT_EQ(resumed[i].outcome.raw.cores[c].trafficBytes,
                      first[i].outcome.raw.cores[c].trafficBytes)
                << "job " << i << " core " << c;
        }
    }

    std::remove(path.c_str());
}

} // namespace
} // namespace mnpu
