/**
 * @file
 * Crossbar fabric between the NPU cores and the memory tiers
 * (DESIGN.md §14): an optional stage the MemoryBackend puts in front
 * of its tiers. Requests enter a per-port FIFO (port = core % ports),
 * pay a fixed traversal latency, and are forwarded to the tier the
 * backend routes them to at most one per port per cycle, paced
 * by the port's data width (a 64B transaction over a 16B-wide port
 * occupies the port 4 cycles). Responses return directly through the
 * completion callback — the fabric models the request path only (the
 * response path shares it in real crossbars, but modeling one
 * direction captures the contention the sharing study needs without
 * doubling the event machinery; documented in DESIGN §14).
 *
 * Arbitration is round-robin with the start port derived from the
 * cycle number (now % ports), never from visit counts — the rotation
 * is a pure function of simulated time, which is what keeps the event
 * loop bit-identical to per-cycle stepping through the fabric.
 *
 * Contention is observable under the `fabric.*` stats: requests
 * enqueued/forwarded and the cycles requests waited beyond the bare
 * traversal latency. Counters move only on accepted admissions and
 * successful forwards (stepping-identical events), never on refusals.
 */

#ifndef MNPU_MEM_XBAR_HH
#define MNPU_MEM_XBAR_HH

#include <deque>
#include <vector>

#include "common/snapshot.hh"
#include "common/stats.hh"
#include "dram/dram_channel.hh"
#include "mem/mem_config.hh"

namespace mnpu
{

class DramSystem;
class MemoryBackend;

class XBar
{
  public:
    /**
     * @param config            port count/width/latency/queue depth;
     *                          config.ports == 0 means one port per core
     * @param num_cores         NPU cores issuing requests
     * @param transaction_bytes bytes of one memory transaction
     */
    XBar(const FabricConfig &config, std::uint32_t num_cores,
         std::uint64_t transaction_bytes);

    bool canAccept(const DramRequest &request) const;
    bool tryEnqueue(const DramRequest &request, Cycle now);

    /**
     * Forward due port heads into @p memory's tiers. The backend ticks
     * its tiers first, so a slot a tier frees this cycle is seen by
     * this cycle's forwards under any stepping alike.
     */
    void tick(Cycle now, MemoryBackend &memory);

    /** Whether any port queue holds a request. */
    bool busy() const;

    /** True when a forward freed a port slot since the last call. */
    bool consumeRetrySignal()
    {
        bool signal = retrySignal_;
        retrySignal_ = false;
        return signal;
    }

    /** The fabric's own bound; kCycleNever when every port is empty. */
    Cycle nextEventCycle(Cycle now) const;

    /**
     * Analytic port model in front of @p tier's fastTransfer: the
     * batch enters the port after the traversal latency, serializes
     * behind the port's previous fast batch, and occupies the port
     * txCycles per transaction.
     */
    Cycle fastTransfer(CoreId core, std::uint64_t num_tx, bool is_write,
                       Cycle start, DramSystem &tier);

    /** The `fabric.*` group: enqueued, forwarded, wait_cycles. */
    const StatGroup &stats() const { return fabricStats_; }

    /** Port queues, port horizons and stats (section "XBAR"). */
    void saveState(StateWriter &out) const { visitState(*this, out); }
    void loadState(StateReader &in) { visitState(*this, in); }

    std::uint32_t numPorts() const
    {
        return static_cast<std::uint32_t>(queues_.size());
    }

  private:
    template <class Self, class Io> static void visitState(Self &self, Io &io);

    /** One slot reserved per port for walks, like the channel queues. */
    static constexpr std::uint32_t kPriorityReserve = 1;

    struct Entry
    {
        DramRequest request;
        Cycle readyAt; //!< admission cycle + traversal latency
    };

    std::size_t portOf(CoreId core) const
    {
        return static_cast<std::size_t>(core) % queues_.size();
    }

    FabricConfig config_;
    Cycle txCycles_; //!< port occupancy of one transaction (>= 1)

    std::vector<std::deque<Entry>> queues_;
    std::vector<Cycle> portFree_;     //!< port busy until (exclusive)
    std::vector<Cycle> fastPortFree_; //!< analytic-path port horizon
    bool retrySignal_ = false;

    StatGroup fabricStats_;
    Counter &enqueued_;
    Counter &forwarded_;
    Counter &waitCycles_;
};

} // namespace mnpu

#endif // MNPU_MEM_XBAR_HH
