#include "common/stats.hh"

#include <algorithm>
#include <cmath>

namespace mnpu
{

void
Distribution::sample(double value)
{
    if (count_ == 0) {
        min_ = value;
        max_ = value;
    } else {
        min_ = std::min(min_, value);
        max_ = std::max(max_, value);
    }
    ++count_;
    sum_ += value;
    sumSquares_ += value * value;
}

void
Distribution::reset()
{
    *this = Distribution();
}

double
Distribution::stddev() const
{
    if (count_ == 0)
        return 0.0;
    double m = mean();
    double variance = sumSquares_ / count_ - m * m;
    return variance > 0.0 ? std::sqrt(variance) : 0.0;
}

Histogram::Histogram(double bucket_width, std::size_t num_buckets)
    : bucketWidth_(bucket_width), buckets_(num_buckets, 0)
{
}

void
Histogram::sample(double value)
{
    ++count_;
    if (value < 0) {
        ++overflow_;
        return;
    }
    auto index = static_cast<std::size_t>(value / bucketWidth_);
    if (index >= buckets_.size())
        ++overflow_;
    else
        ++buckets_[index];
}

void
Histogram::reset()
{
    std::fill(buckets_.begin(), buckets_.end(), 0);
    overflow_ = 0;
    count_ = 0;
}

Counter &
StatGroup::counter(const std::string &stat_name)
{
    auto it = counters_.find(stat_name);
    if (it == counters_.end()) {
        order_.push_back(stat_name);
        it = counters_.emplace(stat_name, Counter()).first;
    }
    return it->second;
}

Distribution &
StatGroup::distribution(const std::string &stat_name)
{
    auto it = distributions_.find(stat_name);
    if (it == distributions_.end()) {
        order_.push_back(stat_name);
        it = distributions_.emplace(stat_name, Distribution()).first;
    }
    return it->second;
}

std::uint64_t
StatGroup::counterValue(const std::string &stat_name) const
{
    auto it = counters_.find(stat_name);
    return it == counters_.end() ? 0 : it->second.value();
}

const Counter *
StatGroup::findCounter(const std::string &stat_name) const
{
    auto it = counters_.find(stat_name);
    return it == counters_.end() ? nullptr : &it->second;
}

const Distribution *
StatGroup::findDistribution(const std::string &stat_name) const
{
    auto it = distributions_.find(stat_name);
    return it == distributions_.end() ? nullptr : &it->second;
}

void
StatGroup::dump(std::ostream &out) const
{
    for (const auto &stat_name : order_) {
        if (auto it = counters_.find(stat_name); it != counters_.end()) {
            out << name_ << "." << stat_name << " " << it->second.value()
                << "\n";
        } else if (auto dit = distributions_.find(stat_name);
                   dit != distributions_.end()) {
            const Distribution &d = dit->second;
            out << name_ << "." << stat_name << ".count " << d.count()
                << "\n";
            out << name_ << "." << stat_name << ".mean " << d.mean() << "\n";
            out << name_ << "." << stat_name << ".min " << d.min() << "\n";
            out << name_ << "." << stat_name << ".max " << d.max() << "\n";
        }
    }
}

void
StatGroup::resetAll()
{
    for (auto &[unused_name, c] : counters_)
        c.reset();
    for (auto &[unused_name, d] : distributions_)
        d.reset();
}

template <class Self, class Io>
void
StatGroup::visitState(Self &self, Io &io)
{
    io.section("STAT");
    // The saved side names each stat in registration order; the
    // loaded side looks every name up, so only the set must match.
    std::uint64_t n = self.order_.size();
    io.u64(n);
    if (n != self.order_.size())
        throw SnapshotError("stat group '" + self.name_ +
                            "': registration count mismatch");
    for (std::uint64_t i = 0; i < n; ++i) {
        std::string stat_name = self.order_[i];
        io.str(stat_name);
        std::uint8_t kind = self.counters_.count(stat_name) ? 'C' : 'D';
        io.u8(kind);
        if (kind == 'C') {
            auto it = self.counters_.find(stat_name);
            if (it == self.counters_.end())
                throw SnapshotError("stat group '" + self.name_ +
                                    "': unknown counter '" + stat_name +
                                    "'");
            io.state(it->second);
        } else if (kind == 'D') {
            auto it = self.distributions_.find(stat_name);
            if (it == self.distributions_.end())
                throw SnapshotError("stat group '" + self.name_ +
                                    "': unknown distribution '" +
                                    stat_name + "'");
            io.state(it->second);
        } else {
            throw SnapshotError("stat group '" + self.name_ +
                                "': bad stat kind");
        }
    }
}

template void StatGroup::visitState(const StatGroup &, StateWriter &);
template void StatGroup::visitState(StatGroup &, StateReader &);

} // namespace mnpu
