/**
 * @file
 * Fidelity selection for MultiCoreSystem::run(): cycle-exact component
 * models versus the analytic tile-level fast path.
 *
 * Unlike the check level (a passive observer), fast fidelity
 * *changes results*: cores advance a
 * whole tile per event using a closed-form latency model, and DRAM
 * transfers are batched per tile instead of per 64-byte transaction.
 * The deviation from exact is measured and committed per golden mix in
 * tests/golden/fidelity_envelope.json and enforced by
 * test_fidelity_envelope. Because results differ, fast fidelity feeds
 * the sweep checkpoint key (exact does not, preserving pre-existing
 * checkpoints); see resolvedFidelityKind() and sweepJobKey().
 */

#ifndef MNPU_COMMON_FIDELITY_HH
#define MNPU_COMMON_FIDELITY_HH

#include "common/integrity.hh"
#include "common/settings.hh"

namespace mnpu
{

/** Which component-model fidelity MultiCoreSystem::run() uses. */
enum class FidelityKind
{
    Exact, //!< cycle-exact models, golden-ratcheted (default)
    Fast,  //!< analytic tile latency + batched DRAM transfers
};

/** --fidelity / MNPU_FIDELITY; built-in Exact (common/settings.hh). */
Setting<FidelityKind> &fidelitySetting();

const char *toString(FidelityKind kind);

/** Set the --fidelity process default (the npubench harness uses it). */
inline void
setFidelityDefault(FidelityKind kind)
{
    fidelitySetting().setDefault(kind);
}

/**
 * Resolve the fidelity a system actually *runs* at. Fast silently
 * falls back to Exact when a fault injector is armed or any integrity
 * checking is on: the analytic path produces no per-transaction
 * lifecycle events, so even the Cheap tracker's transaction-count
 * audit (not just --check full's protocol checkers) would spuriously
 * fire. This resolved value — not the requested one — is what
 * sweepJobKey() feeds, so a fast-keyed checkpoint record can never
 * hold exact-fallback results.
 */
FidelityKind
resolvedFidelityKind(const std::optional<FidelityKind> &configured,
                     bool fault_armed, CheckLevel check_level);

} // namespace mnpu

#endif // MNPU_COMMON_FIDELITY_HH
