/**
 * @file
 * Watchdog sampling policy for the run loop: decides on which loop
 * iterations the (comparatively expensive) wall-clock read, stop-token
 * load, and lost-response audit run.
 *
 * The historical policy — every 256th loop iteration — was sound for
 * per-cycle stepping, where iterations and simulated cycles advance
 * in lockstep. The event loop breaks that: one iteration
 * can skip millions of cycles, so an iteration-only policy could let a
 * cancelled or deadline-blown run coast through enormous simulated
 * spans between samples. The sampler therefore also fires whenever
 * simulated time has advanced by more than cycleSpan since the last
 * sample, whichever comes first.
 */

#ifndef MNPU_SIM_WATCHDOG_HH
#define MNPU_SIM_WATCHDOG_HH

#include <cstdint>

#include "common/snapshot.hh"
#include "common/types.hh"

namespace mnpu
{

struct WatchdogSampler
{
    /** Sample at least every this many loop iterations. */
    std::uint64_t iterationInterval = 256;
    /** ... and at least every this many simulated global cycles. */
    Cycle cycleSpan = Cycle{1} << 20;

    /**
     * @return true when the watchdog checks should run this iteration
     * (always true on the first call). @p iteration must be the loop
     * iteration count, @p now the current global cycle; both are
     * monotone.
     */
    bool shouldSample(std::uint64_t iteration, Cycle now)
    {
        if (primed_ && iteration - lastIteration_ < iterationInterval &&
            now - lastCycle_ < cycleSpan) {
            return false;
        }
        primed_ = true;
        lastIteration_ = iteration;
        lastCycle_ = now;
        return true;
    }

    /**
     * Snapshot the sampling phase so a restored run samples on the
     * same iterations the uninterrupted run would have (a sample
     * itself never changes simulated state, but keeping the phase
     * identical removes one gratuitous divergence source).
     */
    void saveState(StateWriter &out) const { visitState(*this, out); }
    void loadState(StateReader &in) { visitState(*this, in); }

  private:
    template <class Self, class Io>
    static void
    visitState(Self &self, Io &io)
    {
        io.u64(self.lastIteration_);
        io.u64(self.lastCycle_);
        io.b(self.primed_);
    }

    std::uint64_t lastIteration_ = 0;
    Cycle lastCycle_ = 0;
    bool primed_ = false;
};

} // namespace mnpu

#endif // MNPU_SIM_WATCHDOG_HH
