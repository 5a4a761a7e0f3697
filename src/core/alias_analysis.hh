/**
 * @file
 * Aliasing taxonomy for two-level context predictors, Section 4.2 /
 * Figures 12-14 of the paper.
 *
 * Every prediction is put into exactly one of five categories, in
 * this priority order (only the first matching rule counts):
 *
 *  - l1: some value in the history used to index the level-2 table
 *    was produced by a different static instruction (level-1 table
 *    conflict).
 *  - hash: the complete (unhashed) history recorded at the last
 *    update of the level-2 entry differs from the current history —
 *    two different histories collided in the hash.
 *  - l2_priv: a private per-level-1-entry level-2 table would have
 *    produced a different prediction than the shared global one.
 *  - l2_pc: the level-2 entry was last written by a different static
 *    instruction (but with an identical history — constructive or
 *    neutral sharing).
 *  - none: no aliasing detected.
 */

#ifndef DFCM_CORE_ALIAS_ANALYSIS_HH
#define DFCM_CORE_ALIAS_ANALYSIS_HH

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/fcm_predictor.hh"
#include "core/stats.hh"
#include "core/types.hh"

namespace vpred
{

/** The five aliasing categories, in classification priority order. */
enum class AliasType : unsigned
{
    L1 = 0,
    Hash,
    L2Priv,
    L2Pc,
    None,
};

/** Number of AliasType categories. */
constexpr std::size_t kAliasTypeCount = 5;

/** Display name used in the paper's figures ("l1", "hash", ...). */
const char* aliasTypeName(AliasType type);

/** Per-category prediction statistics. */
struct AliasBreakdown
{
    std::array<PredictorStats, kAliasTypeCount> per_type;

    const PredictorStats&
    operator[](AliasType t) const
    {
        return per_type[static_cast<unsigned>(t)];
    }

    /** Aggregate over all categories. */
    PredictorStats total() const;

    /** Fraction of all predictions in category @p t (Figure 13). */
    double fractionOfPredictions(AliasType t) const;

    /** Fraction of all predictions that are *mispredictions* in
     *  category @p t (Figure 14: bar heights sum to the global
     *  misprediction rate). */
    double fractionWrong(AliasType t) const;

    AliasBreakdown& operator+=(const AliasBreakdown& o);
};

/**
 * An FCM or DFCM predictor instrumented with the shadow state needed
 * for the aliasing taxonomy: full unhashed histories and writer PCs
 * in the level-1 shadow, recorded histories and writer PCs per
 * level-2 entry, and sparse private per-level-1-entry level-2
 * tables.
 *
 * The functional tables behave exactly like FcmPredictor /
 * DfcmPredictor (identical predictions); the shadow state is
 * observation-only.
 *
 * All shadow state is flat and fixed-stride: `order` history values
 * and writer PCs per level-1 entry, `order` recorded history values
 * per level-2 entry. Each level-1 entry also carries its hash
 * register, so step() reads the level-2 index instead of re-hashing
 * the history. The private tables share one open-addressing map
 * keyed by (level-1 index, level-2 index).
 */
class AliasAnalyzer
{
  public:
    /**
     * @param config Geometry/hash of the predictor to instrument;
     *        l1_bits and l2_bits at most 24, and the hash must index
     *        2^l2_bits entries.
     * @param differential False = FCM (value histories), true = DFCM
     *        (difference histories + last value).
     * @throws std::invalid_argument naming the field that is out of
     *         range.
     */
    AliasAnalyzer(const FcmConfig& config, bool differential);

    /** Classify-then-update one trace record. */
    void step(Pc pc, Value actual);

    /** Run a whole trace view (ValueTrace converts implicitly). */
    AliasBreakdown run(std::span<const TraceRecord> trace);

    /** Statistics accumulated so far. */
    const AliasBreakdown& breakdown() const { return breakdown_; }

    /** Classification the next step(pc, ...) would assign
     *  (inspection hook for tests). */
    AliasType classify(Pc pc) const;

    /** The value the functional tables would predict for @p pc. */
    Value predictValue(Pc pc) const;

    bool differential() const { return differential_; }
    unsigned order() const { return order_; }

  private:
    /**
     * Open-addressing map from a private-table key to the value that
     * private table holds; absent keys read as 0, like the zeroed
     * global table. Keys are below 2^48, so ~0 marks an empty slot.
     */
    class PrivateTables
    {
      public:
        PrivateTables();

        /** The value stored under @p key, or 0. */
        Value find(std::uint64_t key) const;

        /** The value stored under @p key, inserting 0 if absent. The
         *  reference is valid until the next call. */
        Value& findOrInsert(std::uint64_t key);

      private:
        struct Slot
        {
            std::uint64_t key;
            Value value;
        };
        static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

        std::size_t probe(std::uint64_t key) const;
        void grow();

        std::vector<Slot> slots_;
        unsigned shift_;  //!< 64 - log2(slots_.size())
        std::size_t size_ = 0;
    };

    std::uint64_t privKey(std::size_t l1_idx, std::uint64_t l2_idx) const;

    /** Rules 1-5 for @p pc at level-1 entry @p l1_idx, given its
     *  level-2 index and private-table value. */
    AliasType classifyAt(Pc pc, std::size_t l1_idx, std::uint64_t l2_idx,
                         Value priv) const;

    FcmConfig cfg_;
    bool differential_;
    ShiftFoldHash hash_;
    unsigned order_;
    std::uint64_t l1_mask_;
    std::uint64_t value_mask_;
    static constexpr Pc kNoPc = ~Pc{0};

    // Level-1 shadow, per entry.
    std::vector<Value> l1_history_;    //!< `order` values, oldest first
    std::vector<Pc> l1_writers_;       //!< producer of each element
    std::vector<Value> l1_last_;       //!< DFCM last value
    std::vector<std::uint64_t> l1_hash_;  //!< hash register = l2 index

    // Level 2: functional table plus shadow, per entry.
    std::vector<Value> l2_;            //!< functional level-2 table
    std::vector<Value> l2_history_;    //!< `order` values at last update
    std::vector<Pc> l2_writer_;        //!< PC of last updater

    PrivateTables private_l2_;
    AliasBreakdown breakdown_;
};

} // namespace vpred

#endif // DFCM_CORE_ALIAS_ANALYSIS_HH
