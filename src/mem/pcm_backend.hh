/**
 * @file
 * Slow-media PCM backend: DramSystem's channel machinery driven by the
 * DramTiming::pcm() media timing, with three pcmcsim-style behaviors
 * layered on the completion path (DESIGN.md §14):
 *
 *  - a small direct-mapped DRAM data cache in front of the media:
 *    read hits bypass the channels (and the token buckets) entirely
 *    and deliver after a fixed cacheHitLatency; read misses allocate
 *    their line at admission time;
 *  - asymmetric write commit: a write's bus transaction completes on
 *    the (already slow, tWR-scaled) channel, then the completion is
 *    held writeCommitCycles more while the cell programs;
 *  - write-pausing: while any write is committing, non-priority read
 *    misses are refused admission (the media cannot array-read mid-
 *    program). Priority (page-table-walk) reads are exempt, mirroring
 *    the channel's priority queue reserve.
 *
 * Every delivery — hit or media — goes through DramSystem's protected
 * completion path, so fault injection, the lifecycle audit, byte
 * accounting, telemetry, logs, and trace spans see PCM traffic exactly
 * as they see DRAM traffic. All MemoryBackend contract invariants
 * (admission purity, never-overshoot bounds, bit-identical snapshot
 * round-trips) are preserved; the conformance suite runs the pcm and
 * tiered stacks through the same property tests as the DRAM one.
 */

#ifndef MNPU_MEM_PCM_BACKEND_HH
#define MNPU_MEM_PCM_BACKEND_HH

#include <limits>
#include <vector>

#include "dram/dram_system.hh"

namespace mnpu
{

class PcmBackend : public DramSystem
{
  public:
    /**
     * @param media_timing  the PCM array timing (DramTiming::pcm())
     * @param config        cache / write-commit knobs
     * Other parameters as DramSystem; stats default to the "pcm"
     * prefix ("pcm.ch0"…, plus the cache group "pcm").
     */
    PcmBackend(const DramTiming &media_timing, std::uint32_t num_channels,
               std::uint32_t num_cores, std::uint32_t queue_depth,
               const PcmConfig &config,
               const std::string &mapping_order = "ro-ra-bg-ba-co",
               const std::string &stat_prefix = "pcm");

    bool tryEnqueue(const DramRequest &request, Cycle now) override;
    bool canAccept(const DramRequest &request) const override;
    void tick(Cycle now) override;
    bool busy() const override;
    Cycle nextEventCycle(Cycle now) const override;

    void visitStatGroups(const StatGroupVisitor &visit) const override;

    /** DramSystem state plus the cache tags and the pending heap. */
    void saveState(StateWriter &out) const override;
    void loadState(StateReader &in) override;

  protected:
    /** Holds write completions for the cell-programming commit. */
    void onCompletion(const DramRequest &request, Cycle at) override;

  private:
    template <class Self, class Io> static void visitState(Self &self, Io &io);

    /**
     * A delivery scheduled by this layer: a read cache hit waiting out
     * cacheHitLatency, or a media write waiting out its commit.
     * Kept as an explicit (due, seq) min-heap over a vector so the
     * array serializes verbatim and restores pop in identical order.
     */
    struct Pending
    {
        Cycle due;
        std::uint64_t seq;
        bool writeCommit;
        DramRequest request;
        bool operator>(const Pending &other) const
        {
            return due != other.due ? due > other.due : seq > other.seq;
        }
    };

    static constexpr std::uint64_t kNoTag =
        std::numeric_limits<std::uint64_t>::max();

    std::size_t cacheIndex(Addr paddr) const
    {
        return static_cast<std::size_t>((paddr >> lineBits_) %
                                        cacheTags_.size());
    }
    std::uint64_t lineTag(Addr paddr) const { return paddr >> lineBits_; }
    bool cacheHit(Addr paddr) const
    {
        return cacheTags_[cacheIndex(paddr)] == lineTag(paddr);
    }

    void pendingPush(Pending entry);
    void pendingPop();

    PcmConfig config_;
    std::uint32_t lineBits_; //!< log2(transactionBytes): line == tx

    std::vector<std::uint64_t> cacheTags_; //!< kNoTag = invalid line
    std::vector<Pending> pending_;         //!< min-heap by (due, seq)
    std::uint64_t seq_ = 0;
    std::uint64_t pendingWrites_ = 0; //!< writeCommit entries in pending_

    StatGroup cacheStats_;
    Counter &cacheHits_;
    Counter &cacheMisses_;
    Counter &cacheEvictions_;
    Counter &writeCommits_;
};

} // namespace mnpu

#endif // MNPU_MEM_PCM_BACKEND_HH
