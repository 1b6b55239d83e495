// The train/test splits of Tables I and II, and set builders that turn
// generated traces into ready-to-train labeled sets.
//
// Table I (dataset D1, beamformee positions 1..9):
//   S1: train on all 9 positions, test on all 9 (per-trace time split:
//       first 80% of each trace trains, last 20% tests);
//   S2: train on the odd positions {1,3,5,7,9}, test on {2,4,6,8}
//       (balanced interleaving — the paper's "more balanced set");
//   S3: train on {1..5}, test on {6..9} (largest train/test divergence).
//
// Table II (dataset D2, trace groups fix1/fix2/mob1/mob2):
//   S4: train on mob1, test on mob2 (mobility against mobility);
//   S5: train on fix1+fix2, test on mob1+mob2 (static -> mobility);
//   S6: train on mob1+mob2, test on fix1+fix2 (mobility -> static).
#pragma once

#include "dataset/features.h"
#include "dataset/traces.h"

namespace deepcsi::dataset {

enum class SetId { kS1, kS2, kS3, kS4, kS5, kS6 };

struct D1Split {
  std::vector<int> train_positions;
  std::vector<int> test_positions;
};
D1Split d1_split(SetId set);  // S1..S3 only

struct D2Split {
  std::vector<int> train_traces;
  std::vector<int> test_traces;
};
D2Split d2_split(SetId set);  // S4..S6 only

// D2 trace groups of Table II.
std::vector<int> d2_group_fix1();
std::vector<int> d2_group_fix2();
std::vector<int> d2_group_mob1();
std::vector<int> d2_group_mob2();

struct SplitSets {
  nn::LabeledSet train;
  nn::LabeledSet test;
};

struct D1Options {
  SetId set = SetId::kS1;
  int beamformee = 0;
  bool mix_beamformees = false;  // Fig. 9: pool both beamformees
  InputSpec input;
  Scale scale;
  GeneratorConfig gen;
  // Fig. 10: cap the number of training positions (0 = use the whole set).
  int max_train_positions = 0;
  double train_time_fraction = 0.8;  // for positions in both train and test
  bool operator==(const D1Options&) const = default;
};

SplitSets build_d1(const D1Options& opt);

struct D2Options {
  SetId set = SetId::kS4;
  int beamformee = 0;
  InputSpec input;
  Scale scale;
  GeneratorConfig gen;
  // Fig. 17b: train on the A-B-C-B half of mob1 paths, test on the B-D-B
  // window of mob2 paths.
  bool subpath_variant = false;
  bool operator==(const D2Options&) const = default;
};

SplitSets build_d2(const D2Options& opt);

}  // namespace deepcsi::dataset
