#include "core/hybrid_predictor.hh"

#include <cassert>
#include <sstream>
#include <typeinfo>

#include "core/dfcm_predictor.hh"
#include "core/fcm_predictor.hh"
#include "core/stride_predictor.hh"

namespace vpred
{

namespace
{

/** PerfectHybridPredictor::predictAndUpdate with both components'
 *  fused steps resolved statically. */
template <class A, class B>
PredictorStats
runPair(A& first, B& second, std::span<const TraceRecord> trace)
{
    PredictorStats stats;
    for (const TraceRecord& rec : trace) {
        const bool first_correct =
                first.A::predictAndUpdate(rec.pc, rec.value);
        const bool second_correct =
                second.B::predictAndUpdate(rec.pc, rec.value);
        stats.record(first_correct || second_correct);
    }
    return stats;
}

} // namespace

PerfectHybridPredictor::PerfectHybridPredictor(
        std::unique_ptr<ValuePredictor> first,
        std::unique_ptr<ValuePredictor> second)
    : first_(std::move(first)), second_(std::move(second))
{
    assert(first_ && second_);
}

Value
PerfectHybridPredictor::predict(Pc pc) const
{
    return first_->predict(pc);
}

void
PerfectHybridPredictor::update(Pc pc, Value actual)
{
    first_->update(pc, actual);
    second_->update(pc, actual);
}

bool
PerfectHybridPredictor::predictAndUpdate(Pc pc, Value actual)
{
    // The components share no state, so stepping the first one
    // before the second predicts cannot change the second's
    // prediction: their fused steps compose into predict both, then
    // update both. Both always run; `||` would skip the second.
    const bool first_correct = first_->predictAndUpdate(pc, actual);
    const bool second_correct = second_->predictAndUpdate(pc, actual);
    return first_correct || second_correct;
}

PredictorStats
PerfectHybridPredictor::runTraceSpan(std::span<const TraceRecord> trace)
{
    // Exact typeid, not dynamic_cast: a subclass would pass a cast,
    // and the qualified calls in runPair would bypass its overrides.
    ValuePredictor& first = *first_;
    ValuePredictor& second = *second_;
    if (typeid(first) == typeid(StridePredictor)) {
        auto& stride = static_cast<StridePredictor&>(first);
        if (typeid(second) == typeid(FcmPredictor))
            return runPair(stride, static_cast<FcmPredictor&>(second),
                           trace);
        if (typeid(second) == typeid(DfcmPredictor))
            return runPair(stride, static_cast<DfcmPredictor&>(second),
                           trace);
    }
    return ValuePredictor::runTraceSpan(trace);
}

std::uint64_t
PerfectHybridPredictor::storageBits() const
{
    // The perfect oracle needs no meta table; the paper charges the
    // hybrid only for its components.
    return first_->storageBits() + second_->storageBits();
}

std::string
PerfectHybridPredictor::name() const
{
    std::ostringstream os;
    os << "perfect[" << first_->name() << "+" << second_->name() << "]";
    return os.str();
}

CounterHybridPredictor::CounterHybridPredictor(
        std::unique_ptr<ValuePredictor> first,
        std::unique_ptr<ValuePredictor> second, const Config& config)
    : first_(std::move(first)), second_(std::move(second)), cfg_(config),
      meta_mask_(maskBits(config.meta_bits)),
      counter_max_((1u << config.counter_bits) - 1),
      counter_init_((counter_max_ + 1) / 2),
      meta_(std::size_t{1} << config.meta_bits, counter_init_)
{
    assert(first_ && second_);
    assert(config.meta_bits <= 28);
    assert(config.counter_bits >= 1 && config.counter_bits <= 8);
}

bool
CounterHybridPredictor::choosesFirst(Pc pc) const
{
    return meta_[pc & meta_mask_] >= counter_init_;
}

Value
CounterHybridPredictor::predict(Pc pc) const
{
    return choosesFirst(pc) ? first_->predict(pc) : second_->predict(pc);
}

void
CounterHybridPredictor::update(Pc pc, Value actual)
{
    // Train the chooser toward the component that was correct before
    // updating the components themselves.
    const bool first_correct = first_->predict(pc) == actual;
    const bool second_correct = second_->predict(pc) == actual;
    unsigned& ctr = meta_[pc & meta_mask_];
    if (first_correct && !second_correct && ctr < counter_max_)
        ++ctr;
    else if (second_correct && !first_correct && ctr > 0)
        --ctr;

    first_->update(pc, actual);
    second_->update(pc, actual);
}

bool
CounterHybridPredictor::predictAndUpdate(Pc pc, Value actual)
{
    const bool correct = predict(pc) == actual;
    update(pc, actual);
    return correct;
}

std::uint64_t
CounterHybridPredictor::storageBits() const
{
    return first_->storageBits() + second_->storageBits()
        + std::uint64_t{meta_.size()} * cfg_.counter_bits;
}

std::string
CounterHybridPredictor::name() const
{
    std::ostringstream os;
    os << "hybrid[" << first_->name() << "+" << second_->name() << "]";
    return os.str();
}

} // namespace vpred
