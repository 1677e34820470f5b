#include "common/interval_tracer.hh"

#include "common/logging.hh"

namespace mnpu
{

IntervalTracer::IntervalTracer(Cycle window_cycles) : window_(window_cycles)
{
    if (window_cycles == 0)
        fatal("IntervalTracer window must be nonzero");
}

void
IntervalTracer::record(Cycle now, std::uint64_t amount)
{
    mnpu_assert(!finalized_, "record() after finalize()");
    auto index = static_cast<std::size_t>(now / window_);
    if (index < currentIndex_) {
        // Out-of-order within an already-closed window: fold into the
        // closed total; completions may retire slightly out of order.
        if (index < totals_.size()) {
            totals_[index] += amount;
            return;
        }
        index = currentIndex_;
    }
    while (currentIndex_ < index) {
        totals_.push_back(currentTotal_);
        currentTotal_ = 0;
        ++currentIndex_;
    }
    currentTotal_ += amount;
}

void
IntervalTracer::finalize()
{
    if (finalized_)
        return;
    totals_.push_back(currentTotal_);
    currentTotal_ = 0;
    finalized_ = true;
}

std::vector<double>
IntervalTracer::movingAverage(std::size_t span) const
{
    std::vector<double> averaged;
    if (span == 0 || totals_.empty())
        return averaged;
    averaged.reserve(totals_.size());
    std::uint64_t running = 0;
    for (std::size_t i = 0; i < totals_.size(); ++i) {
        running += totals_[i];
        if (i >= span)
            running -= totals_[i - span];
        std::size_t denom = i + 1 < span ? i + 1 : span;
        averaged.push_back(static_cast<double>(running) / denom);
    }
    return averaged;
}

template <class Self, class Io>
void
IntervalTracer::visitState(Self &self, Io &io)
{
    io.section("ITRC");
    io.expect(self.window_, "interval tracer window mismatch");
    io.u64(self.currentIndex_);
    io.u64(self.currentTotal_);
    io.b(self.finalized_);
    io.u64Vec(self.totals_);
}

template void IntervalTracer::visitState(
    const IntervalTracer &, StateWriter &);
template void IntervalTracer::visitState(IntervalTracer &, StateReader &);

} // namespace mnpu
