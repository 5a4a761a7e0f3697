/**
 * @file
 * Ideal-index context predictors: FCM/DFCM variants whose level-2
 * "table" is an unbounded, collision-free map from the *exact*
 * history to the stored value.
 *
 * The paper closes its aliasing analysis with: "the hashing function
 * remains responsible for the majority of the mispredictions (59%),
 * there is still plenty of room for improvement." These predictors
 * measure that headroom: they remove hash aliasing (and capacity
 * aliasing) entirely while keeping the two-level prediction
 * principle, bounding what any better hash could achieve at a given
 * order. They are analysis devices, not hardware proposals — their
 * storage is unbounded, so storageBits() reports the *current* model
 * size for reference only.
 */

#ifndef DFCM_CORE_IDEAL_CONTEXT_PREDICTOR_HH
#define DFCM_CORE_IDEAL_CONTEXT_PREDICTOR_HH

#include <vector>

#include "core/value_predictor.hh"

namespace vpred
{

/**
 * Order-k context predictor with exact (collision-free) context
 * lookup, in plain (FCM) or differential (DFCM) form.
 *
 * The level-1 table is still finite and untagged (indexed by the
 * instruction's low bits) so level-1 behaviour matches the real
 * predictors; only the level-2 indexing is idealized.
 *
 * Storage is flat and fixed-stride. Level 1 is one array of `order`
 * history values per entry, shifted in place. Level 2 is an
 * open-addressing table of context ids into a context arena that
 * holds each context's exact history (`order` values) followed by
 * its stored value. A probe compares the exact history on a hash-tag
 * match, so two contexts never share a value.
 */
class IdealContextPredictor : public ValuePredictor
{
  public:
    /**
     * @param l1_bits log2(#level-1 entries), at most 24.
     * @param order History length (values or differences), 1..16.
     * @param differential False = FCM form, true = DFCM form.
     * @param value_bits Predicted value width.
     * @throws std::invalid_argument naming the parameter that is out
     *         of range.
     */
    IdealContextPredictor(unsigned l1_bits, unsigned order,
                          bool differential, unsigned value_bits = 32);

    Value predict(Pc pc) const override;
    void update(Pc pc, Value actual) override;
    bool predictAndUpdate(Pc pc, Value actual) override;
    PredictorStats runTraceSpan(std::span<const TraceRecord>) override;
    std::uint64_t storageBits() const override;
    std::string name() const override;

    /** Number of distinct contexts materialized so far. */
    std::size_t contextCount() const { return contexts_; }

    unsigned order() const { return order_; }

  private:
    /** The level-1 history of entry @p l1_idx, oldest..newest. */
    Value* historyOf(std::size_t l1_idx)
    {
        return &history_[l1_idx * order_];
    }
    const Value* historyOf(std::size_t l1_idx) const
    {
        return &history_[l1_idx * order_];
    }

    /** Hash of an `order`-value history. */
    std::uint64_t hashOf(const Value* key) const;

    /** Slot holding @p key's context id, or the empty slot where it
     *  would be inserted. */
    std::size_t probe(const Value* key, std::uint64_t hash) const;

    /** Stored value of @p key's context, inserting a zero-valued
     *  context if the history has never been seen. */
    Value& valueFor(const Value* key);

    /** Double the slot table and re-insert every context. */
    void grow();

    /** Shift @p stored into the history of @p l1_idx. */
    void pushHistory(std::size_t l1_idx, Value stored);

    unsigned l1_bits_;
    unsigned order_;
    bool differential_;
    unsigned value_bits_;
    std::uint64_t l1_mask_;
    std::uint64_t value_mask_;
    std::vector<Value> last_;     //!< DFCM last value per l1 entry
    std::vector<Value> history_;  //!< `order` values per l1 entry

    /** Slot = hash tag (high 32 bits) | context id (low 32 bits). */
    std::vector<std::uint64_t> slots_;
    std::uint64_t slot_mask_;
    /** Per context: its history (`order` values), then its value. */
    std::vector<Value> arena_;
    std::size_t contexts_ = 0;
};

} // namespace vpred

#endif // DFCM_CORE_IDEAL_CONTEXT_PREDICTOR_HH
