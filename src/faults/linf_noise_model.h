// I.i.d. uniform L-inf weight noise (Fig. 9) as a FaultModel.
//
// A kFloatWeights scenario: trial t adds uniform noise in
// [-rel_eps * range, +rel_eps * range] to every weight, where range is each
// tensor's max |w|. Noise draws follow the historical Fig. 9 stream (Rng
// seeded per trial from seed_base, pinned in tests/test_faults.cpp), so
// trial indices reproduce its results exactly.
#pragma once

#include "faults/fault_model.h"

namespace ber {

class LinfNoiseModel : public FaultModel {
 public:
  explicit LinfNoiseModel(double rel_eps, std::uint64_t seed_base = 2000);

  double rel_eps() const { return rel_eps_; }

  std::string describe() const override;
  FaultSpace space() const override { return FaultSpace::kFloatWeights; }
  void apply_weights(const std::vector<Param*>& params,
                     std::uint64_t trial) const override;

 private:
  double rel_eps_;
  std::uint64_t seed_base_;
};

}  // namespace ber
