/**
 * @file
 * Golden-trace fixtures: a small committed set of seed mixes whose
 * full telemetry snapshot (checkpoint v2 fields — per-core cycles,
 * traffic, TLB/walk counters, layer finishes, system cycles, DRAM
 * energy and row stats) is serialized to one JSON line per case and
 * compared bit-exactly against tests/golden/<name>.json.
 *
 * The fixtures pin simulated *behavior*, not wall clock: any change to
 * core, MMU, DRAM, or run-loop code that shifts a single counter in
 * any case fails test_golden_trace loudly, instead of drifting the
 * paper's figures silently. Intentional behavior changes regenerate
 * the fixtures with the update_golden tool (--update-golden) and the
 * diff is reviewed like any other source change.
 *
 * The case list spans both DRAM protocols (HBM2, DDR4), dual and quad
 * co-runs, every sharing level the sweeps exercise, an explicit
 * bandwidth-partition case (token buckets), and all eight built-in
 * models — small enough to run in seconds at Mini scale, wide enough
 * that a regression in any subsystem moves at least one fixture.
 */

#ifndef MNPU_ANALYSIS_GOLDEN_HH
#define MNPU_ANALYSIS_GOLDEN_HH

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "analysis/sweep_checkpoint.hh"
#include "sim/system_config.hh"

namespace mnpu
{

/** One committed golden case: a mix and the config it runs under. */
struct GoldenCase
{
    std::string name;     //!< fixture file stem (tests/golden/<name>.json)
    std::string protocol; //!< DramTiming preset: "hbm2" | "ddr4"
    SharingLevel level = SharingLevel::ShareDWT;
    std::vector<std::string> models; //!< built-in model names (2 or 4)
    /** Optional Fig. 9-style static bandwidth split (token buckets). */
    std::optional<std::vector<std::uint32_t>> dramBandwidthShares;
};

/** The committed fixture set (stable order, stable names). */
const std::vector<GoldenCase> &goldenCases();

/**
 * gtest printer: the case name with '-' spelled '_'. Parameterized
 * suites over goldenCases() take their test-name suffix from this, so
 * the names stay stable across builds (gtest's default dumps the
 * struct's bytes, heap pointers included).
 */
void PrintTo(const GoldenCase &golden, std::ostream *os);

/**
 * One committed serving golden case (DESIGN.md §13): a fixed-seed
 * open-loop scenario on a GPT-2 serving system. Kept in a separate
 * list from goldenCases() so the batch-only harnesses (stepping
 * differential, fidelity envelope) never iterate serving scenarios,
 * and the eight batch fixtures stay byte-identical.
 */
struct ServingGoldenCase
{
    std::string name;     //!< fixture file stem (tests/golden/<name>.json)
    std::string protocol; //!< DramTiming preset: "hbm2" | "ddr4"
    SharingLevel level = SharingLevel::ShareDWT;
    std::uint32_t cores = 2;
    ServingConfig serving;
};

/** gtest printer for serving cases; same scheme as GoldenCase's. */
void PrintTo(const ServingGoldenCase &golden, std::ostream *os);

/** The committed serving fixture set (stable order, stable names). */
const std::vector<ServingGoldenCase> &servingGoldenCases();

/** Look up a case by name; throws FatalError when unknown. */
const GoldenCase &goldenCase(const std::string &name);

/**
 * Run one case at Mini scale and flatten the outcome
 * into its checkpoint-v2 record, keyed by the case name, with
 * wallSeconds pinned to zero so the serialized line is deterministic.
 * @p obs optionally enables observability outputs for the run — the
 * record must be byte-identical either way (observers are passive;
 * tests/test_observability.cc holds this as an invariant).
 * @p fidelity defaults to Exact and is pinned in the config (not left
 * to the MNPU_FIDELITY process default), so fixture comparisons stay
 * bit-exact regardless of the environment; pass Fast explicitly to
 * measure the analytic model against the committed error envelope.
 */
SweepCheckpointRecord runGoldenCase(const GoldenCase &golden,
                                    const ObservabilityConfig &obs = {},
                                    FidelityKind fidelity =
                                        FidelityKind::Exact);

/**
 * Run one serving case at Mini scale and flatten it
 * into its checkpoint record (including the flat serving_* fields),
 * keyed by the case name with wallSeconds pinned to zero. Fidelity is
 * always Exact: serving scenarios are pinned bit-exactly and stay out
 * of the fast-fidelity envelope.
 */
SweepCheckpointRecord runServingGoldenCase(const ServingGoldenCase &golden);

/** Serialized fixture content: the record's JSON line + newline. */
std::string goldenFixtureText(const SweepCheckpointRecord &record);

/** tests/golden/<name>.json under @p dir. */
std::string goldenFixturePath(const std::string &dir,
                              const std::string &name);

/**
 * Field-by-field comparison of two records; returns an empty string
 * when identical, else a human-readable description of the first
 * difference (for test failure messages — a raw JSON diff of 300
 * numbers is unreadable).
 */
std::string describeGoldenDiff(const SweepCheckpointRecord &expected,
                               const SweepCheckpointRecord &actual);

/**
 * One row of the committed fast-fidelity error envelope
 * (tests/golden/fidelity_envelope.json, one JSON line per golden
 * case). `deviation` is the measured relative cycle-count error of
 * the analytic model against the exact run — the max over global
 * cycles and every core's local cycles — and `bound` is the committed
 * tolerance test_fidelity_envelope enforces: deviation * 1.25 + 0.01,
 * floored at 0.05, so the ratchet has slack for small drift but a
 * fast-model regression that doubles the error still fails.
 */
struct FidelityEnvelopeEntry
{
    std::string name;
    std::uint64_t exactCycles = 0; //!< exact-run global cycles
    std::uint64_t fastCycles = 0;  //!< fast-run global cycles
    double deviation = 0;
    double bound = 0;
};

/**
 * Run @p golden in both fidelities and
 * measure the analytic model's relative cycle error. Deterministic:
 * the same sources always produce the same entry.
 */
FidelityEnvelopeEntry measureFidelityEnvelope(const GoldenCase &golden);

/**
 * Serialize one envelope row as a JSON line (fixed 6-decimal doubles,
 * so regeneration is byte-stable across platforms).
 */
std::string fidelityEnvelopeLine(const FidelityEnvelopeEntry &entry);

/** tests/golden/fidelity_envelope.json under @p dir. */
std::string fidelityEnvelopePath(const std::string &dir);

/** Parse one line written by fidelityEnvelopeLine; false on mismatch. */
bool parseFidelityEnvelopeLine(const std::string &line,
                               FidelityEnvelopeEntry &out);

} // namespace mnpu

#endif // MNPU_ANALYSIS_GOLDEN_HH
