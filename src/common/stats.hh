/**
 * @file
 * Lightweight statistics registry: scalar counters, averages, histograms,
 * and a formatter. Components own a StatGroup and register stats with it;
 * the simulator aggregates groups for the final report.
 */

#ifndef MNPU_COMMON_STATS_HH
#define MNPU_COMMON_STATS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/snapshot.hh"

namespace mnpu
{

/** A named 64-bit event counter. */
class Counter
{
  public:
    void inc(std::uint64_t amount = 1) { total_ += amount; }
    void reset() { total_ = 0; }
    std::uint64_t value() const { return total_; }

    void saveState(StateWriter &out) const { out.u64(total_); }
    void loadState(StateReader &in) { in.u64(total_); }

  private:
    std::uint64_t total_ = 0;
};

/** A running mean/min/max over sampled values (e.g. latencies). */
class Distribution
{
  public:
    void sample(double value);
    void reset();

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    /** Population standard deviation. */
    double stddev() const;

    void saveState(StateWriter &out) const { visitState(*this, out); }
    void loadState(StateReader &in) { visitState(*this, in); }

  private:
    template <class Self, class Io>
    static void
    visitState(Self &self, Io &io)
    {
        io.u64(self.count_);
        io.d(self.sum_);
        io.d(self.sumSquares_);
        io.d(self.min_);
        io.d(self.max_);
    }

    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double sumSquares_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/** Fixed-width bucket histogram over [0, bucketWidth * numBuckets). */
class Histogram
{
  public:
    Histogram(double bucket_width, std::size_t num_buckets);

    void sample(double value);
    void reset();

    double bucketWidth() const { return bucketWidth_; }
    const std::vector<std::uint64_t> &buckets() const { return buckets_; }
    std::uint64_t overflow() const { return overflow_; }
    std::uint64_t count() const { return count_; }

  private:
    double bucketWidth_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t overflow_ = 0;
    std::uint64_t count_ = 0;
};

/**
 * A named collection of statistics. Stats register by name; dump() prints
 * `group.name value` lines in registration order, gem5-stats style.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    /** Create (or fetch) a counter registered under @p stat_name. */
    Counter &counter(const std::string &stat_name);

    /** Create (or fetch) a distribution registered under @p stat_name. */
    Distribution &distribution(const std::string &stat_name);

    /** Read a counter by name; 0 if absent. */
    std::uint64_t counterValue(const std::string &stat_name) const;

    /** Stat names in registration order (counters and distributions). */
    const std::vector<std::string> &order() const { return order_; }

    /** Look up a counter by name; nullptr if absent. */
    const Counter *findCounter(const std::string &stat_name) const;

    /** Look up a distribution by name; nullptr if absent. */
    const Distribution *findDistribution(const std::string &stat_name) const;

    const std::string &name() const { return name_; }

    /** Print all stats as `group.stat value` lines. */
    void dump(std::ostream &out) const;

    /** Zero every registered stat. */
    void resetAll();

    /**
     * Snapshot every registered stat (by name, in registration
     * order). loadState requires the identical registration set —
     * component constructors register statically, so a mismatch means
     * the snapshot came from a different configuration and throws
     * SnapshotError (discard + from-scratch).
     */
    void saveState(StateWriter &out) const { visitState(*this, out); }
    void loadState(StateReader &in) { visitState(*this, in); }

  private:
    template <class Self, class Io> static void visitState(Self &self, Io &io);

    std::string name_;
    std::vector<std::string> order_;
    std::map<std::string, Counter> counters_;
    std::map<std::string, Distribution> distributions_;
};

} // namespace mnpu

#endif // MNPU_COMMON_STATS_HH
