// Hardware impairment profiles for the 10 Wi-Fi modules (beamformers) and
// the beamformee stations.
//
// The paper's Eq. (9)-(10) decompose the estimated CFR offsets into CFO,
// SFO, PDD, PLL offset (PPO) and phase ambiguity (PA). An SVD-derived
// feedback matrix is invariant to any factor that is *common across TX
// chains* for a given sub-carrier (it is absorbed into U_k), so only
// per-chain differential terms can act as beamformer fingerprints:
//
//   - per-chain baseband/RF filter ripple G_m(k) (a short random FIR),
//   - per-chain gain and static phase mismatch,
//   - the CFO-induced phase ramp across TX antennas (VHT-LTFs for
//     different antennas occupy successive 4 us slots, so a frequency
//     offset delta_f adds 2*pi*delta_f*4us*m of phase to chain m),
//   - per-chain TX IQ imbalance (with BPSK LTFs the image term folds into
//     a k-dependent +-beta_m multiplicative factor).
//
// PPO, PDD and the common part of CFO/SFO are modeled too (they matter for
// the offset-correction baseline of Fig. 16) but are nuisance terms drawn
// fresh per packet.
//
// All profiles are generated deterministically from the module/station id.
#pragma once

#include <complex>
#include <cstdint>
#include <vector>

#include "phy/ofdm.h"

namespace deepcsi::phy {

using cplx = std::complex<double>;

inline constexpr int kNumModules = 10;  // Compex WLE1216v5-23 units

struct RippleTap {
  double amplitude = 0.0;  // relative to the unit main tap
  double delay_s = 0.0;
  double phase = 0.0;
};

// One radio chain (TX or RX): response applied multiplicatively to the CFR.
struct ChainImpairment {
  double gain = 1.0;          // linear amplitude mismatch
  double static_phase = 0.0;  // radians, fixed at manufacturing
  std::vector<RippleTap> ripple;
  cplx iq_beta{0.0, 0.0};     // image-leakage coefficient (alpha ~ 1)

  // Frequency response at sub-carrier k (ripple + gain + static phase),
  // excluding IQ imbalance which is applied separately.
  cplx response(int k) const;
};

struct ModuleProfile {
  int module_id = 0;
  std::vector<ChainImpairment> chains;  // one per TX antenna
  double cfo_bias_hz = 0.0;             // residual CFO, module-specific
  double sfo_ppm = 0.0;                 // sampling clock offset
  int num_chains() const { return static_cast<int>(chains.size()); }
};

struct BeamformeeProfile {
  int station_id = 0;
  std::vector<ChainImpairment> chains;  // one per RX antenna
  double noise_figure_db = 0.0;         // adds onto the link SNR
  int num_chains() const { return static_cast<int>(chains.size()); }
};

// Ablation switches: disable individual imperfection classes to measure
// their contribution to the fingerprint (see `bench_paper ablation`).
// Toggling one component leaves the random draw of the others untouched.
struct ImpairmentToggles {
  bool ripple = true;        // per-chain filter frequency ripple
  bool gain_mismatch = true; // per-chain amplitude mismatch
  bool static_phase = true;  // per-chain phase offsets (incl. trace drift)
  bool cfo = true;           // residual CFO (drives the LTF slot ramp)
  bool iq_imbalance = true;  // TX IQ image leakage
  bool sfo = true;           // sampling clock offset (common-mode)
  bool operator==(const ImpairmentToggles&) const = default;
};

// Deterministic profile for module_id in [0, kNumModules). All modules use
// the same nominal design; only the random imperfection draw differs.
ModuleProfile make_module_profile(int module_id, int num_chains = 4);
ModuleProfile make_module_profile(int module_id, int num_chains,
                                  const ImpairmentToggles& toggles);

BeamformeeProfile make_beamformee_profile(int station_id, int num_chains = 4);

// Sign pattern sigma_k = LTF(k) * LTF(-k) in {-1, +1} entering the TX IQ
// image term; fixed by the (pseudo) LTF BPSK sequence, symmetric in k.
int ltf_sign_product(int k);

}  // namespace deepcsi::phy
