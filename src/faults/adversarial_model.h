// Adversarial (chosen-cell) bit errors as a FaultModel.
//
// Where RandomBitErrorModel samples faults, this model REPLAYS precomputed
// flip sets — typically chosen by the gradient-guided BitFlipAttacker
// (src/attack/attacker.h), or drawn uniformly by random_flip_model() as the
// budget-matched control. Trial t applies flip set t (modulo the number of
// sets, so any n_trials is safe inside worker threads); applying a set is
// pure XOR on the stored codes, so the existing RobustnessEvaluator, the
// Runner and the bench harness run adversarial sweeps unchanged.
#pragma once

#include <string>
#include <vector>

#include "attack/bit_saliency.h"
#include "faults/fault_model.h"

namespace ber {

class AdversarialBitErrorModel : public FaultModel {
 public:
  // `trials` must be non-empty; trial t replays trials[t % trials.size()].
  // `label` distinguishes scenarios in describe() (e.g. "gradient-guided"
  // vs "random-control").
  explicit AdversarialBitErrorModel(std::vector<std::vector<BitFlip>> trials,
                                    std::string label = "gradient-guided");

  const std::vector<std::vector<BitFlip>>& trials() const { return trials_; }

  std::string describe() const override;
  // Rejects flip sets whose coordinates fall outside `layout` (tensor index,
  // element index, or bit >= the tensor's code width).
  void validate_layout(const NetSnapshot& layout) const override;
  std::size_t apply(NetSnapshot& snap, std::uint64_t trial) const override;

 private:
  std::vector<std::vector<BitFlip>> trials_;
  std::string label_;
};

// Budget-matched random control: trial t flips `budget` distinct uniformly
// random cells of `layout` (derived from seed_base + t). Same flip count as
// an adversarial trial, no gradient guidance — the baseline that adversarial
// sweeps must beat.
AdversarialBitErrorModel random_flip_model(const NetSnapshot& layout,
                                           std::size_t budget, int n_trials,
                                           std::uint64_t seed_base = 3000);

// One such random flip set (exposed for tests and custom controls).
std::vector<BitFlip> random_flip_set(const NetSnapshot& layout,
                                     std::size_t budget, std::uint64_t seed);

}  // namespace ber
