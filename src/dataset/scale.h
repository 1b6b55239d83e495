// Experiment scale knobs. The paper's campaign produced 800 GB of captures
// (minutes of feedback at full rate per trace); the quick scale keeps the
// same trace/split structure with fewer snapshots per trace so the whole
// benchmark suite trains on a single CPU core. DEEPCSI_SCALE=full selects
// paper-like density.
#pragma once

namespace deepcsi::dataset {

struct Scale {
  int d1_snapshots_per_trace = 16;  // per (module, position, beamformee)
  int d2_snapshots_per_trace = 22;  // per (module, trace, beamformee)
  int subcarrier_stride = 2;        // feature sub-sampling along k (1 = all)
  bool operator==(const Scale&) const = default;
};

Scale quick_scale();
Scale full_scale();

// Reads DEEPCSI_SCALE ("quick"/"full"); defaults to quick.
Scale scale_from_env();
bool full_scale_selected();

}  // namespace deepcsi::dataset
