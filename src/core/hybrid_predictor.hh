/**
 * @file
 * Hybrid (component + meta-predictor) value predictors, Section 4.3
 * / Figures 15 and 16 of the paper.
 */

#ifndef DFCM_CORE_HYBRID_PREDICTOR_HH
#define DFCM_CORE_HYBRID_PREDICTOR_HH

#include <memory>
#include <string>
#include <vector>

#include "core/value_predictor.hh"

namespace vpred
{

/**
 * Hybrid of two component predictors with a *perfect*
 * meta-predictor: the hybrid's prediction counts as correct iff
 * either component is correct. This is the upper bound the paper
 * compares the DFCM against ("STRIDE+FCM" and "STRIDE+DFCM" in
 * Figure 16); it cannot be built in hardware but bounds every real
 * selector.
 *
 * Both components are always updated with the correct value, exactly
 * like in the paper's hybrid organization.
 */
class PerfectHybridPredictor : public ValuePredictor
{
  public:
    /**
     * @param first First component (e.g. the stride predictor).
     * @param second Second component (e.g. the FCM).
     * @param meta_bits_per_entry Storage charged for the meta table
     *        per first-component entry (0 for the paper's perfect
     *        oracle, which needs no table).
     */
    PerfectHybridPredictor(std::unique_ptr<ValuePredictor> first,
                           std::unique_ptr<ValuePredictor> second);

    /** predict() returns the first component's prediction; accuracy
     *  accounting must go through predictAndUpdate(). */
    Value predict(Pc pc) const override;
    void update(Pc pc, Value actual) override;
    bool predictAndUpdate(Pc pc, Value actual) override;

    /**
     * Walk @p trace. The paper's Stride+FCM and Stride+DFCM pairs
     * run a devirtualized loop over both components' fused steps;
     * every other pair takes the virtual walk. Dispatch is on the
     * components' exact dynamic type, so a subclass with its own
     * overrides is never walked as its base.
     */
    PredictorStats runTraceSpan(std::span<const TraceRecord>) override;
    std::uint64_t storageBits() const override;
    std::string name() const override;

  private:
    std::unique_ptr<ValuePredictor> first_;
    std::unique_ptr<ValuePredictor> second_;
};

/**
 * Hybrid of two components with a realizable meta-predictor: a table
 * of saturating counters indexed by the instruction identifier
 * chooses the component (Figure 15). The counter trains toward
 * whichever component was correct; on a tie nothing changes.
 */
class CounterHybridPredictor : public ValuePredictor
{
  public:
    struct Config
    {
        unsigned meta_bits = 16;     //!< log2(#meta-table entries)
        unsigned counter_bits = 2;   //!< chooser counter width
    };

    CounterHybridPredictor(std::unique_ptr<ValuePredictor> first,
                           std::unique_ptr<ValuePredictor> second,
                           const Config& config);

    Value predict(Pc pc) const override;
    void update(Pc pc, Value actual) override;
    bool predictAndUpdate(Pc pc, Value actual) override;
    std::uint64_t storageBits() const override;
    std::string name() const override;

    /** True iff the chooser currently selects the first component
     *  for @p pc. */
    bool choosesFirst(Pc pc) const;

  private:
    std::unique_ptr<ValuePredictor> first_;
    std::unique_ptr<ValuePredictor> second_;
    Config cfg_;
    std::uint64_t meta_mask_;
    unsigned counter_max_;
    unsigned counter_init_;
    std::vector<unsigned> meta_;  //!< >= threshold selects first_
};

} // namespace vpred

#endif // DFCM_CORE_HYBRID_PREDICTOR_HH
