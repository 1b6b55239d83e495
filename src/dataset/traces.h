// Trace generation for the two measurement campaigns of Sec. IV-A.
//
// Dataset D1 (static): the AP (one of 10 modules) is fixed at position A;
// for each measurement j in {1..9} the two beamformees sit at position j
// (Fig. 6) and feed back compressed beamforming reports for two minutes.
// Both beamformees use N = 2 antennas and NSS = 2 streams.
//
// Dataset D2 (dynamic): beamformees pinned at position 3; 4 traces with
// the AP fixed at A (groups fix1/fix2) and 7 traces with the AP manually
// walked along A-B-C-D-B-A (groups mob1: 4 traces, mob2: 3). Beamformee 0
// runs N = NSS = 1, beamformee 1 runs N = NSS = 2. A person scatterer
// accompanies the AP on mobility traces, and the manual walk differs
// slightly per trace.
//
// Each snapshot is a full sounding -> SVD -> Algorithm 1 -> quantization
// pipeline pass; traces store exactly what a monitor-mode observer decodes
// from the air (quantized angle reports).
#pragma once

#include <cstdint>
#include <vector>

#include "dataset/scale.h"
#include "feedback/bitpack.h"
#include "phy/sounding.h"

namespace deepcsi::dataset {

inline constexpr int kNumTxAntennas = 3;  // M: implementation limit, Sec. IV

struct Snapshot {
  double t_frac = 0.0;  // position within the trace (0..1); mobility traces
                        // map this onto the A-B-C-D-B-A path fraction
  feedback::CompressedFeedbackReport report;
};

struct Trace {
  int module_id = 0;
  int beamformee = 0;
  int position = 0;     // D1: 1..9; D2: always 3 (beamformees pinned)
  int trace_index = 0;  // D2: 0..10; D1: == position
  bool mobile = false;
  std::vector<Snapshot> snapshots;
};

struct GeneratorConfig {
  int environment = 0;
  std::uint64_t seed = 17;
  feedback::QuantConfig quant;  // defaults to (b_phi, b_psi) = (9, 7)
  double snr_db = 30.0;
  // Ablation switches for the module hardware (`bench_paper ablation`).
  phy::ImpairmentToggles toggles;
  bool operator==(const GeneratorConfig&) const = default;
};

// One D1 trace: module fixed at A, both beamformees at `position`.
Trace generate_d1_trace(int module_id, int position, int beamformee,
                        const Scale& scale, const GeneratorConfig& cfg);

// D2 trace indices: 0..3 are static (fix1 = {0,1}, fix2 = {2,3}),
// 4..7 are mob1, 8..10 are mob2.
inline constexpr int kNumD2Traces = 11;
bool d2_trace_is_mobile(int trace_index);

Trace generate_d2_trace(int module_id, int trace_index, int beamformee,
                        const Scale& scale, const GeneratorConfig& cfg);

}  // namespace deepcsi::dataset
