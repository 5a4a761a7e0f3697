/**
 * @file
 * Test-only reference copies of the analysis-path classes as they
 * were before their storage went flat: AliasAnalyzer with
 * vector-per-entry shadows and a node-based private table, and
 * IdealContextPredictor keyed by a byte string of the exact history.
 *
 * The bodies are the original ones, unchanged. The oracle tests diff
 * the flat core classes against them bit for bit.
 */

#ifndef DFCM_TESTS_REFERENCE_ANALYSIS_HH
#define DFCM_TESTS_REFERENCE_ANALYSIS_HH

#include <cassert>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/alias_analysis.hh"
#include "core/fcm_predictor.hh"
#include "core/value_predictor.hh"

namespace vpred::reference
{

/** The aliasing taxonomy with per-entry vector shadows. */
class AliasAnalyzer
{
  public:
    AliasAnalyzer(const FcmConfig& config, bool differential);

    void step(Pc pc, Value actual);
    AliasBreakdown run(std::span<const TraceRecord> trace);
    const AliasBreakdown& breakdown() const { return breakdown_; }
    AliasType classify(Pc pc) const;
    Value predictValue(Pc pc) const;

  private:
    struct L1Shadow
    {
        std::vector<Value> history;  //!< oldest..newest, size = order
        std::vector<Pc> writers;     //!< producer of each element
        Value last = 0;              //!< DFCM last value
    };

    struct L2Shadow
    {
        std::vector<Value> history;  //!< history at last update
        Pc writer;                   //!< PC of last updater
    };

    std::uint64_t hashOf(const std::vector<Value>& history) const;
    std::uint64_t privKey(std::size_t l1_idx, std::uint64_t l2_idx) const;

    FcmConfig cfg_;
    bool differential_;
    ShiftFoldHash hash_;
    unsigned order_;
    std::uint64_t l1_mask_;
    std::uint64_t value_mask_;
    static constexpr Pc kNoPc = ~Pc{0};

    std::vector<L1Shadow> l1_;
    std::vector<Value> l2_;          //!< functional level-2 table
    std::vector<L2Shadow> l2_shadow_;
    std::unordered_map<std::uint64_t, Value> private_l2_;
    AliasBreakdown breakdown_;
};

/** The ideal-index context predictor keyed by a history string. */
class IdealContextPredictor : public ValuePredictor
{
  public:
    IdealContextPredictor(unsigned l1_bits, unsigned order,
                          bool differential, unsigned value_bits = 32);

    Value predict(Pc pc) const override;
    void update(Pc pc, Value actual) override;
    std::uint64_t storageBits() const override;
    std::string name() const override;

    std::size_t contextCount() const { return l2_.size(); }

  private:
    struct L1Entry
    {
        Value last = 0;
        std::vector<Value> history;  //!< oldest..newest, size = order
    };

    std::string keyOf(const std::vector<Value>& history) const;

    unsigned l1_bits_;
    unsigned order_;
    bool differential_;
    unsigned value_bits_;
    std::uint64_t l1_mask_;
    std::uint64_t value_mask_;
    std::vector<L1Entry> l1_;
    std::unordered_map<std::string, Value> l2_;
};

inline
AliasAnalyzer::AliasAnalyzer(const FcmConfig& config, bool differential)
    : cfg_(config), differential_(differential),
      hash_(config.resolvedHash()), order_(hash_.order()),
      l1_mask_(maskBits(config.l1_bits)),
      value_mask_(maskBits(config.value_bits)),
      l1_(std::size_t{1} << config.l1_bits),
      l2_(std::size_t{1} << config.l2_bits, 0),
      l2_shadow_(std::size_t{1} << config.l2_bits)
{
    assert(config.l1_bits <= 24 && config.l2_bits <= 24);
    for (L1Shadow& s : l1_) {
        s.history.assign(order_, 0);
        s.writers.assign(order_, kNoPc);
    }
    for (L2Shadow& s : l2_shadow_) {
        s.history.assign(order_, 0);
        s.writer = kNoPc;
    }
}

inline std::uint64_t
AliasAnalyzer::hashOf(const std::vector<Value>& history) const
{
    // The incremental FS R-k hash is an exact function of the last
    // `order` values (older contributions are fully shifted out), so
    // re-hashing the shadow history reproduces the functional
    // predictor's level-1 hash register.
    std::uint64_t h = 0;
    for (Value v : history)
        h = hash_.insert(h, v);
    return h;
}

inline std::uint64_t
AliasAnalyzer::privKey(std::size_t l1_idx, std::uint64_t l2_idx) const
{
    return (static_cast<std::uint64_t>(l1_idx) << cfg_.l2_bits) | l2_idx;
}

inline AliasType
AliasAnalyzer::classify(Pc pc) const
{
    const std::size_t l1_idx = pc & l1_mask_;
    const L1Shadow& s1 = l1_[l1_idx];
    const std::uint64_t l2_idx = hashOf(s1.history);

    // 1. Level-1 conflict: some history element was produced by a
    //    different static instruction (or never produced at all).
    for (Pc w : s1.writers) {
        if (w != pc)
            return AliasType::L1;
    }

    // 2. Hash conflict: the history recorded at the last update of
    //    this level-2 entry differs from the current one.
    const L2Shadow& s2 = l2_shadow_[l2_idx];
    if (s2.history != s1.history)
        return AliasType::Hash;

    // 3. Private-table divergence: would a per-level-1-entry level-2
    //    table predict differently? Private tables start out zeroed
    //    like the global one.
    const auto it = private_l2_.find(privKey(l1_idx, l2_idx));
    const Value priv = it == private_l2_.end() ? 0 : it->second;
    if (priv != l2_[l2_idx])
        return AliasType::L2Priv;

    // 4. Same history and content but last written by another
    //    instruction: neutral/constructive sharing.
    if (s2.writer != pc)
        return AliasType::L2Pc;

    return AliasType::None;
}

inline Value
AliasAnalyzer::predictValue(Pc pc) const
{
    const L1Shadow& s1 = l1_[pc & l1_mask_];
    const std::uint64_t l2_idx = hashOf(s1.history);
    if (differential_)
        return (s1.last + l2_[l2_idx]) & value_mask_;
    return l2_[l2_idx];
}

inline void
AliasAnalyzer::step(Pc pc, Value actual)
{
    actual &= value_mask_;

    const AliasType type = classify(pc);
    const bool correct = predictValue(pc) == actual;
    breakdown_.per_type[static_cast<unsigned>(type)].record(correct);

    // --- update, mirroring Fcm/DfcmPredictor::update ---
    const std::size_t l1_idx = pc & l1_mask_;
    L1Shadow& s1 = l1_[l1_idx];
    const std::uint64_t l2_idx = hashOf(s1.history);

    const Value stored = differential_
        ? ((actual - s1.last) & value_mask_) : actual;

    l2_[l2_idx] = stored;
    l2_shadow_[l2_idx].history = s1.history;
    l2_shadow_[l2_idx].writer = pc;
    private_l2_[privKey(l1_idx, l2_idx)] = stored;

    // Advance the (difference) history and writer shadow.
    s1.history.erase(s1.history.begin());
    s1.history.push_back(stored);
    s1.writers.erase(s1.writers.begin());
    s1.writers.push_back(pc);
    s1.last = actual;
}

inline AliasBreakdown
AliasAnalyzer::run(std::span<const TraceRecord> trace)
{
    for (const TraceRecord& rec : trace)
        step(rec.pc, rec.value);
    return breakdown_;
}

inline
IdealContextPredictor::IdealContextPredictor(unsigned l1_bits,
                                             unsigned order,
                                             bool differential,
                                             unsigned value_bits)
    : l1_bits_(l1_bits), order_(order), differential_(differential),
      value_bits_(value_bits), l1_mask_(maskBits(l1_bits)),
      value_mask_(maskBits(value_bits)),
      l1_(std::size_t{1} << l1_bits)
{
    assert(l1_bits <= 24);
    assert(order >= 1 && order <= 16);
    for (L1Entry& e : l1_)
        e.history.assign(order_, 0);
}

inline std::string
IdealContextPredictor::keyOf(const std::vector<Value>& history) const
{
    std::string key;
    key.reserve(history.size() * 8);
    for (Value v : history) {
        for (int i = 0; i < 8; ++i)
            key.push_back(static_cast<char>(v >> (8 * i)));
    }
    return key;
}

inline Value
IdealContextPredictor::predict(Pc pc) const
{
    const L1Entry& e = l1_[pc & l1_mask_];
    const auto it = l2_.find(keyOf(e.history));
    const Value stored = it == l2_.end() ? 0 : it->second;
    if (differential_)
        return (e.last + stored) & value_mask_;
    return stored;
}

inline void
IdealContextPredictor::update(Pc pc, Value actual)
{
    actual &= value_mask_;
    L1Entry& e = l1_[pc & l1_mask_];
    const Value stored = differential_
        ? ((actual - e.last) & value_mask_) : actual;

    l2_[keyOf(e.history)] = stored;
    e.history.erase(e.history.begin());
    e.history.push_back(stored);
    e.last = actual;
}

inline std::uint64_t
IdealContextPredictor::storageBits() const
{
    // Reference only: current materialized size (unbounded model).
    const std::uint64_t l1_entry =
            std::uint64_t{order_} * value_bits_
            + (differential_ ? value_bits_ : 0);
    return l1_.size() * l1_entry
        + l2_.size() * std::uint64_t{value_bits_};
}

inline std::string
IdealContextPredictor::name() const
{
    std::ostringstream os;
    os << (differential_ ? "ideal-dfcm" : "ideal-fcm") << "(l1="
       << l1_bits_ << ",o=" << order_ << ")";
    return os.str();
}

} // namespace vpred::reference

#endif // DFCM_TESTS_REFERENCE_ANALYSIS_HH
