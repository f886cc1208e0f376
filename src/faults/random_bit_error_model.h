// Uniform random bit errors BErr_p (Sec. 3) as a FaultModel.
//
// Trial t is the chip with seed `seed_base + t`, so trial indices reproduce
// the historical per-chip loop (pinned in tests/test_faults.cpp) exactly. Injection goes through the
// sparse ChipFaultList hot path (biterror/injector.h); fault_list() exposes
// the list so multi-rate sweeps can build it once per chip at the highest
// rate and filter down — the persistence property of the model guarantees
// the faults at p' <= p are the subset with u < p'.
//
// Also supports SECDED codeword faults (supports_codeword_faults), mapping
// cell coordinates (codeword index, bit 0..71) through the same monotone
// hash — this is what EccProtectedModel composes with for a persistent,
// typed ECC-space fault scenario.
#pragma once

#include "biterror/injector.h"
#include "faults/fault_model.h"

namespace ber {

class RandomBitErrorModel : public FaultModel {
 public:
  explicit RandomBitErrorModel(const BitErrorConfig& config,
                               std::uint64_t seed_base = 1000);

  const BitErrorConfig& config() const { return config_; }
  std::uint64_t seed_base() const { return seed_base_; }

  std::string describe() const override;
  std::size_t apply(NetSnapshot& snap, std::uint64_t trial) const override;

  // The sparse fault pattern of trial `trial` over `layout`, covering every
  // rate up to p_max (>= config().p allowed; pass the top of a sweep grid).
  ChipFaultList fault_list(const NetSnapshot& layout, std::uint64_t trial,
                           double p_max) const;

  bool supports_codeword_faults() const override { return true; }
  void corrupt_codeword(SecdedWord& word, std::uint64_t word_index,
                        std::uint64_t trial) const override;

 private:
  BitErrorConfig config_;
  std::uint64_t seed_base_;
};

}  // namespace ber
