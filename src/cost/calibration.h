#ifndef SWOLE_COST_CALIBRATION_H_
#define SWOLE_COST_CALIBRATION_H_

#include "cost/cost_model.h"

// Micro-probes that measure the machine's actual access costs and fill a
// CostProfile: sequential read bandwidth, conditional-read penalty,
// hash-table lookup cost per cache level, and throwaway-entry access. Used
// by benchmarks; tests use CostProfile::Default() for determinism.

namespace swole {

struct CalibrationOptions {
  // Working-set sizes for the read probes (bytes).
  int64_t probe_bytes = 64 << 20;
  // Probes per hash-table size point.
  int64_t ht_probes = 1 << 20;
  uint64_t seed = 0xC0FFEE;
  // Explicit cache-capacity overrides (bytes); 0 defers to the SWOLE_L*
  // environment variables, whose absence means the compiled-in defaults.
  // Precedence: option > environment > default.
  int64_t l1_bytes = 0;
  int64_t l2_bytes = 0;
  int64_t l3_bytes = 0;
};

/// Runs the calibration probes (a few hundred ms) and returns the measured
/// profile. Cache capacities come from compiled-in defaults, overridden by
/// SWOLE_L1_BYTES / SWOLE_L2_BYTES / SWOLE_L3_BYTES (malformed values are
/// warned about and ignored — common/env.h), overridden in turn by any
/// non-zero CalibrationOptions capacity.
CostProfile CalibrateCostProfile(const CalibrationOptions& options = {});

// Individual probes (exposed for the calibration benchmark / tests).
double MeasureReadSeqNs(const CalibrationOptions& options);
double MeasureReadCondNs(const CalibrationOptions& options);
/// Lookup ns/probe for a hash table of ~`keys` entries.
double MeasureHtLookupNs(int64_t keys, const CalibrationOptions& options);
double MeasureHtNullNs(const CalibrationOptions& options);
/// The effective clock (ns per dependent ALU op). Not part of the profile:
/// EstimateComputeNs converts cycles at a fixed clock.
double MeasureNsPerCycle();

}  // namespace swole

#endif  // SWOLE_COST_CALIBRATION_H_
