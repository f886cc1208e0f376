// A profiled SRAM array at a fixed operating voltage as a FaultModel
// (Tab. 5 protocol).
//
// Trial t selects the t-th linear weight-to-memory mapping: offsets are
// spread over the array with a large odd stride so different mappings
// overlap as little as possible — identical to the historical Tab. 5
// per-offset loop (pinned in tests/test_faults.cpp), so trial indices
// reproduce its results.
#pragma once

#include <memory>

#include "biterror/profiled_chip.h"
#include "faults/fault_model.h"

namespace ber {

class ProfiledChipModel : public FaultModel {
 public:
  // Non-owning: `chip` must outlive the model (profiled maps are large;
  // benches share one across models and voltages). Deleted for rvalues —
  // binding a temporary chip would dangle.
  ProfiledChipModel(const ProfiledChip& chip, double v);
  ProfiledChipModel(ProfiledChip&& chip, double v) = delete;
  // Owning: builds the chip described by `config`.
  ProfiledChipModel(const ProfiledChipConfig& config, double v);

  const ProfiledChip& chip() const { return *chip_; }
  double voltage() const { return v_; }

  // The mapping offset (in bits) used for trial `trial`.
  std::uint64_t offset_for_trial(std::uint64_t trial) const;

  std::string describe() const override;
  std::size_t apply(NetSnapshot& snap, std::uint64_t trial) const override;

  // The sparse fault pattern of trial `trial`'s mapping over `layout`,
  // covering every voltage >= v_min (pass the bottom of a sweep grid; this
  // model's own voltage() need not be in the grid). Apply at rate
  // chip().model_rate_at(v) — see ProfiledChip::fault_list.
  ChipFaultList fault_list(const NetSnapshot& layout, std::uint64_t trial,
                           double v_min) const;

 private:
  std::shared_ptr<const ProfiledChip> chip_;
  double v_;
};

}  // namespace ber
