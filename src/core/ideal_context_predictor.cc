#include "core/ideal_context_predictor.hh"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "core/trace_kernel.hh"

namespace vpred
{

namespace
{

constexpr std::uint64_t kEmptySlot = ~std::uint64_t{0};
constexpr std::uint64_t kTagMask = ~std::uint64_t{0} << 32;
constexpr std::uint64_t kIdMask = ~kTagMask;
constexpr std::size_t kInitialSlots = 1024;

} // namespace

IdealContextPredictor::IdealContextPredictor(unsigned l1_bits,
                                             unsigned order,
                                             bool differential,
                                             unsigned value_bits)
    : l1_bits_(l1_bits), order_(order), differential_(differential),
      value_bits_(value_bits), l1_mask_(maskBits(l1_bits)),
      value_mask_(maskBits(value_bits)),
      slots_(kInitialSlots, kEmptySlot), slot_mask_(kInitialSlots - 1)
{
    if (order < 1 || order > 16)
        throw std::invalid_argument(
                "IdealContextPredictor: order must be in [1, 16], got "
                + std::to_string(order));
    if (l1_bits > 24)
        throw std::invalid_argument(
                "IdealContextPredictor: l1_bits must be at most 24, got "
                + std::to_string(l1_bits));
    last_.assign(std::size_t{1} << l1_bits, 0);
    history_.assign((std::size_t{1} << l1_bits) * order, 0);
}

std::uint64_t
IdealContextPredictor::hashOf(const Value* key) const
{
    std::uint64_t h = order_;
    for (unsigned i = 0; i < order_; ++i) {
        h = (h + key[i]) * 0x9e3779b97f4a7c15ULL;
        h ^= h >> 32;
    }
    // murmur3 fmix64: both the slot bits (low) and the tag (high)
    // depend on every key bit.
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    return h;
}

std::size_t
IdealContextPredictor::probe(const Value* key, std::uint64_t hash) const
{
    const std::uint64_t tag = hash & kTagMask;
    const std::size_t stride = order_ + 1;
    for (std::size_t i = hash & slot_mask_;; i = (i + 1) & slot_mask_) {
        const std::uint64_t s = slots_[i];
        if (s == kEmptySlot)
            return i;
        if ((s & kTagMask) == tag
            && std::memcmp(&arena_[(s & kIdMask) * stride], key,
                           order_ * sizeof(Value)) == 0)
            return i;
    }
}

void
IdealContextPredictor::grow()
{
    slots_.assign(slots_.size() * 2, kEmptySlot);
    slot_mask_ = slots_.size() - 1;
    const std::size_t stride = order_ + 1;
    for (std::size_t id = 0; id < contexts_; ++id) {
        const std::uint64_t h = hashOf(&arena_[id * stride]);
        std::size_t i = h & slot_mask_;
        while (slots_[i] != kEmptySlot)
            i = (i + 1) & slot_mask_;
        slots_[i] = (h & kTagMask) | id;
    }
}

Value&
IdealContextPredictor::valueFor(const Value* key)
{
    // Keep the load factor at or below 1/2 so probes stay short.
    if (2 * (contexts_ + 1) > slots_.size())
        grow();
    const std::uint64_t h = hashOf(key);
    const std::size_t i = probe(key, h);
    if (slots_[i] == kEmptySlot) {
        if (contexts_ == kIdMask)
            throw std::length_error(
                    "IdealContextPredictor: more than 2^32 - 1 contexts");
        slots_[i] = (h & kTagMask) | contexts_;
        arena_.insert(arena_.end(), key, key + order_);
        arena_.push_back(0);
        ++contexts_;
    }
    return arena_[(slots_[i] & kIdMask) * (order_ + 1) + order_];
}

void
IdealContextPredictor::pushHistory(std::size_t l1_idx, Value stored)
{
    Value* h = historyOf(l1_idx);
    std::copy(h + 1, h + order_, h);
    h[order_ - 1] = stored;
}

Value
IdealContextPredictor::predict(Pc pc) const
{
    const std::size_t l1_idx = pc & l1_mask_;
    const Value* key = historyOf(l1_idx);
    const std::uint64_t s = slots_[probe(key, hashOf(key))];
    const Value stored = s == kEmptySlot
        ? 0 : arena_[(s & kIdMask) * (order_ + 1) + order_];
    if (differential_)
        return (last_[l1_idx] + stored) & value_mask_;
    return stored;
}

void
IdealContextPredictor::update(Pc pc, Value actual)
{
    actual &= value_mask_;
    const std::size_t l1_idx = pc & l1_mask_;
    const Value stored = differential_
        ? ((actual - last_[l1_idx]) & value_mask_) : actual;

    valueFor(historyOf(l1_idx)) = stored;
    pushHistory(l1_idx, stored);
    last_[l1_idx] = actual;
}

bool
IdealContextPredictor::predictAndUpdate(Pc pc, Value actual)
{
    // Fused predict + update: prediction and update address the same
    // context (the history advances only after the write), so one
    // find-or-insert serves both. A fresh context reads 0, exactly
    // what predict() returns for an unseen history.
    const std::size_t l1_idx = pc & l1_mask_;
    Value& slot = valueFor(historyOf(l1_idx));
    const Value last = last_[l1_idx];
    const Value predicted = differential_
        ? ((last + slot) & value_mask_) : slot;
    const bool correct = predicted == actual;

    actual &= value_mask_;
    const Value stored = differential_
        ? ((actual - last) & value_mask_) : actual;
    slot = stored;
    pushHistory(l1_idx, stored);
    last_[l1_idx] = actual;
    return correct;
}

PredictorStats
IdealContextPredictor::runTraceSpan(std::span<const TraceRecord> trace)
{
    PredictorStats stats;
    runTraceKernel(*this, trace, stats);
    return stats;
}

std::uint64_t
IdealContextPredictor::storageBits() const
{
    // Reference only: current materialized size (unbounded model).
    const std::uint64_t l1_entry =
            std::uint64_t{order_} * value_bits_
            + (differential_ ? value_bits_ : 0);
    return last_.size() * l1_entry
        + contexts_ * std::uint64_t{value_bits_};
}

std::string
IdealContextPredictor::name() const
{
    std::ostringstream os;
    os << (differential_ ? "ideal-dfcm" : "ideal-fcm") << "(l1="
       << l1_bits_ << ",o=" << order_ << ")";
    return os.str();
}

} // namespace vpred
