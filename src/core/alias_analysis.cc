#include "core/alias_analysis.hh"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace vpred
{

const char*
aliasTypeName(AliasType type)
{
    switch (type) {
      case AliasType::L1: return "l1";
      case AliasType::Hash: return "hash";
      case AliasType::L2Priv: return "l2_priv";
      case AliasType::L2Pc: return "l2_pc";
      case AliasType::None: return "none";
    }
    return "?";
}

PredictorStats
AliasBreakdown::total() const
{
    PredictorStats t;
    for (const PredictorStats& s : per_type)
        t += s;
    return t;
}

double
AliasBreakdown::fractionOfPredictions(AliasType t) const
{
    const PredictorStats all = total();
    if (all.predictions == 0)
        return 0.0;
    return static_cast<double>((*this)[t].predictions)
        / static_cast<double>(all.predictions);
}

double
AliasBreakdown::fractionWrong(AliasType t) const
{
    const PredictorStats all = total();
    if (all.predictions == 0)
        return 0.0;
    const PredictorStats& s = (*this)[t];
    return static_cast<double>(s.predictions - s.correct)
        / static_cast<double>(all.predictions);
}

AliasBreakdown&
AliasBreakdown::operator+=(const AliasBreakdown& o)
{
    for (std::size_t i = 0; i < kAliasTypeCount; ++i)
        per_type[i] += o.per_type[i];
    return *this;
}

AliasAnalyzer::PrivateTables::PrivateTables()
    : slots_(std::size_t{1} << 10, Slot{kEmpty, 0}), shift_(64 - 10)
{
}

std::size_t
AliasAnalyzer::PrivateTables::probe(std::uint64_t key) const
{
    // Fibonacci hashing: the top bits of key * 2^64/phi pick the
    // home slot; linear probing from there.
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = (key * 0x9e3779b97f4a7c15ULL) >> shift_;
    while (slots_[i].key != key && slots_[i].key != kEmpty)
        i = (i + 1) & mask;
    return i;
}

void
AliasAnalyzer::PrivateTables::grow()
{
    std::vector<Slot> old(slots_.size() * 2, Slot{kEmpty, 0});
    old.swap(slots_);
    --shift_;
    for (const Slot& s : old)
        if (s.key != kEmpty)
            slots_[probe(s.key)] = s;
}

Value
AliasAnalyzer::PrivateTables::find(std::uint64_t key) const
{
    const Slot& s = slots_[probe(key)];
    return s.key == kEmpty ? 0 : s.value;
}

Value&
AliasAnalyzer::PrivateTables::findOrInsert(std::uint64_t key)
{
    // Keep the load factor at or below 1/2 so probes stay short.
    if (2 * (size_ + 1) > slots_.size())
        grow();
    Slot& s = slots_[probe(key)];
    if (s.key == kEmpty) {
        s = Slot{key, 0};
        ++size_;
    }
    return s.value;
}

AliasAnalyzer::AliasAnalyzer(const FcmConfig& config, bool differential)
    : cfg_(config), differential_(differential),
      hash_(config.resolvedHash()), order_(hash_.order()),
      l1_mask_(maskBits(config.l1_bits)),
      value_mask_(maskBits(config.value_bits))
{
    if (config.l1_bits > 24)
        throw std::invalid_argument(
                "AliasAnalyzer: FcmConfig::l1_bits must be at most 24, "
                "got " + std::to_string(config.l1_bits));
    if (config.l2_bits > 24)
        throw std::invalid_argument(
                "AliasAnalyzer: FcmConfig::l2_bits must be at most 24, "
                "got " + std::to_string(config.l2_bits));
    if (hash_.indexBits() != config.l2_bits)
        throw std::invalid_argument(
                "AliasAnalyzer: FcmConfig::hash must index 2^l2_bits "
                "entries, got " + hash_.name());
    const std::size_t l1 = std::size_t{1} << config.l1_bits;
    const std::size_t l2 = std::size_t{1} << config.l2_bits;
    l1_history_.assign(l1 * order_, 0);
    l1_writers_.assign(l1 * order_, kNoPc);
    l1_last_.assign(l1, 0);
    l1_hash_.assign(l1, 0);
    l2_.assign(l2, 0);
    l2_history_.assign(l2 * order_, 0);
    l2_writer_.assign(l2, kNoPc);
}

std::uint64_t
AliasAnalyzer::privKey(std::size_t l1_idx, std::uint64_t l2_idx) const
{
    return (static_cast<std::uint64_t>(l1_idx) << cfg_.l2_bits) | l2_idx;
}

AliasType
AliasAnalyzer::classifyAt(Pc pc, std::size_t l1_idx, std::uint64_t l2_idx,
                          Value priv) const
{
    // 1. Level-1 conflict: some history element was produced by a
    //    different static instruction (or never produced at all).
    const Pc* writers = &l1_writers_[l1_idx * order_];
    for (unsigned i = 0; i < order_; ++i) {
        if (writers[i] != pc)
            return AliasType::L1;
    }

    // 2. Hash conflict: the history recorded at the last update of
    //    this level-2 entry differs from the current one.
    if (std::memcmp(&l2_history_[l2_idx * order_],
                    &l1_history_[l1_idx * order_],
                    order_ * sizeof(Value)) != 0)
        return AliasType::Hash;

    // 3. Private-table divergence: would a per-level-1-entry level-2
    //    table predict differently? Private tables start out zeroed
    //    like the global one.
    if (priv != l2_[l2_idx])
        return AliasType::L2Priv;

    // 4. Same history and content but last written by another
    //    instruction: neutral/constructive sharing.
    if (l2_writer_[l2_idx] != pc)
        return AliasType::L2Pc;

    return AliasType::None;
}

AliasType
AliasAnalyzer::classify(Pc pc) const
{
    const std::size_t l1_idx = pc & l1_mask_;
    const std::uint64_t l2_idx = l1_hash_[l1_idx];
    return classifyAt(pc, l1_idx, l2_idx,
                      private_l2_.find(privKey(l1_idx, l2_idx)));
}

Value
AliasAnalyzer::predictValue(Pc pc) const
{
    const std::size_t l1_idx = pc & l1_mask_;
    const Value stored = l2_[l1_hash_[l1_idx]];
    if (differential_)
        return (l1_last_[l1_idx] + stored) & value_mask_;
    return stored;
}

void
AliasAnalyzer::step(Pc pc, Value actual)
{
    actual &= value_mask_;

    // The hash register is FS R-k of the last `order` history values
    // (older contributions are fully shifted out), so it is the
    // level-2 index a re-hash of the shadow history would give, and
    // the functional predictor's level-1 entry.
    const std::size_t l1_idx = pc & l1_mask_;
    const std::uint64_t l2_idx = l1_hash_[l1_idx];
    // Classification reads the private table and the update writes
    // it at the same key: one find-or-insert serves both.
    Value& priv = private_l2_.findOrInsert(privKey(l1_idx, l2_idx));

    const AliasType type = classifyAt(pc, l1_idx, l2_idx, priv);
    const bool correct = predictValue(pc) == actual;
    breakdown_.per_type[static_cast<unsigned>(type)].record(correct);

    // --- update, mirroring Fcm/DfcmPredictor::update ---
    const Value stored = differential_
        ? ((actual - l1_last_[l1_idx]) & value_mask_) : actual;

    Value* history = &l1_history_[l1_idx * order_];
    Pc* writers = &l1_writers_[l1_idx * order_];
    l2_[l2_idx] = stored;
    std::copy(history, history + order_, &l2_history_[l2_idx * order_]);
    l2_writer_[l2_idx] = pc;
    priv = stored;

    // Advance the (difference) history, writer shadow and hash.
    std::copy(history + 1, history + order_, history);
    history[order_ - 1] = stored;
    std::copy(writers + 1, writers + order_, writers);
    writers[order_ - 1] = pc;
    l1_last_[l1_idx] = actual;
    l1_hash_[l1_idx] = hash_.insert(l2_idx, stored);
}

AliasBreakdown
AliasAnalyzer::run(std::span<const TraceRecord> trace)
{
    for (const TraceRecord& rec : trace)
        step(rec.pc, rec.value);
    return breakdown_;
}

} // namespace vpred
