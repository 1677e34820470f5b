/**
 * @file
 * Windowed event tracer: accumulates an event count (or byte count) per
 * fixed-size cycle window, producing the time series behind Figure 2(b)
 * (memory requests per 1000-cycle window) and Figure 12 (DRAM bandwidth
 * utilization over time) of the paper.
 */

#ifndef MNPU_COMMON_INTERVAL_TRACER_HH
#define MNPU_COMMON_INTERVAL_TRACER_HH

#include <cstdint>
#include <vector>

#include "common/snapshot.hh"
#include "common/types.hh"

namespace mnpu
{

/** Accumulates per-window totals of a recorded quantity over cycles. */
class IntervalTracer
{
  public:
    /** @param window_cycles size of each accumulation window (>0). */
    explicit IntervalTracer(Cycle window_cycles);

    /** Record @p amount units of activity at global cycle @p now. */
    void record(Cycle now, std::uint64_t amount = 1);

    /** Flush the in-progress window (call once at end of simulation). */
    void finalize();

    Cycle windowCycles() const { return window_; }

    /** Completed windows, index w covers [w*window, (w+1)*window). */
    const std::vector<std::uint64_t> &windows() const { return totals_; }

    /**
     * Moving average of the per-window totals over @p span windows,
     * matching the paper's "moving average during 1000 cycles window".
     */
    std::vector<double> movingAverage(std::size_t span) const;

    void saveState(StateWriter &out) const { visitState(*this, out); }
    void loadState(StateReader &in) { visitState(*this, in); }

  private:
    template <class Self, class Io> static void visitState(Self &self, Io &io);

    Cycle window_;
    std::size_t currentIndex_ = 0;
    std::uint64_t currentTotal_ = 0;
    bool finalized_ = false;
    std::vector<std::uint64_t> totals_;
};

} // namespace mnpu

#endif // MNPU_COMMON_INTERVAL_TRACER_HH
