// The paper's figures and tables, one driver:
//
//   bench_paper [tables|fig07|fig08|...|fig17|ablation]...
//
// With no argument every figure runs in paper order; the names given run
// in the order given, and an unknown name exits 2. Quick scale by default,
// DEEPCSI_SCALE=full for paper-like scale.
//
// The classification figures are rows of one experiment table
// (experiment_table below): split options, ExperimentConfig, what to
// print, the paper's value and a quick-scale accuracy band. The driver
// trains each distinct (split, config) once per process and prints the
// stored result for every row that repeats it: Fig. 12's 80 MHz and
// 3-antenna rows, Fig. 16's raw-input rows, Fig. 11's same-beamformee row
// and the ablation baseline are all a Fig. 8 set. Figs. 13 and 14 and
// Tables I & II are not training runs; they are plain functions.
//
// The paper check (`ctest -L paper`): at quick scale every row with a band
// must land inside it, and Figs. 13 and 14 must keep the orderings they
// reproduce. The closing summary lists each check; any failure exits 1.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "core/pipeline.h"
#include "dataset/scale.h"
#include "dataset/splits.h"
#include "feedback/bitpack.h"
#include "feedback/quantizer.h"
#include "phy/channel.h"

namespace {

using namespace deepcsi;
using dataset::SetId;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

[[gnu::format(printf, 1, 2)]] std::string fmt(const char* format, ...) {
  char buf[256];
  std::va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  return buf;
}

const char* set_name(SetId set) {
  constexpr const char* kNames[] = {"S1", "S2", "S3", "S4", "S5", "S6"};
  return kNames[static_cast<int>(set)];
}

// ------------------------------------------------------- experiment table

// One training run: the split's options and the model/training config.
// Compared with the config structs' defaulted operator==, so a field added
// to any of them is part of the memo key without further code.
struct Experiment {
  std::variant<dataset::D1Options, dataset::D2Options> split;
  int test_beamformee = -1;  // Fig. 11: test side from this beamformee
  core::ExperimentConfig cfg;
  bool operator==(const Experiment&) const = default;
};

enum class Show { kAccuracy, kConfusion, kParams };

// Quick-scale accuracy (%): the min and max measured under DEEPCSI_SIMD=
// scalar|avx2|avx2_int8 x DEEPCSI_THREADS=1|4. Training is seeded and
// thread-invariant, so each backend reproduces its value exactly; the
// check widens the range by kBandMargin points on each side (7 of S1's
// 360 test rows) for rounding a host outside that set may add.
struct Range {
  double lo, hi;
};
constexpr double kBandMargin = 2.0;

struct Row {
  const char* figure;
  std::string heading{};  // printed verbatim before the row
  std::string label;
  Experiment exp;
  Show show = Show::kAccuracy;
  bool blank_after = false;
  std::optional<double> paper{};  // the paper's accuracy (%), where reported
  std::optional<Range> band{};
};

std::vector<Row> experiment_table() {
  const dataset::Scale scale = dataset::scale_from_env();
  const bool full = dataset::full_scale_selected();
  const core::ExperimentConfig base = core::experiment_config_from_env();
  const auto d1 = [&](SetId set) {
    dataset::D1Options opt;
    opt.set = set;
    opt.scale = scale;
    opt.input.subcarrier_stride = scale.subcarrier_stride;
    return opt;
  };
  constexpr SetId kTableI[] = {SetId::kS1, SetId::kS2, SetId::kS3};
  constexpr double kFig08Paper[] = {98.02, 75.41, 42.97};
  std::vector<Row> t;

  // Fig. 7: hyper-parameters on S1 (beamformee 1). Accuracy is nearly flat
  // in depth and rises with filter count at the cost of parameters; the
  // paper's elbow is 5 layers x 128 filters.
  const auto sweep = [&](int layers, int filters) {
    core::ExperimentConfig cfg = base;
    cfg.model.conv_layers = layers;
    cfg.model.filters = filters;
    cfg.model.kernel_widths = core::default_kernels(layers);
    return Experiment{.split = d1(SetId::kS1), .cfg = cfg};
  };
  const int filters_7a = full ? 128 : 24, layers_7b = full ? 5 : 3;
  for (int layers = 2; layers <= 7; ++layers)
    t.push_back({.figure = "fig07",
                 .heading = layers > 2 ? "" : fmt("--- Fig. 7a: conv layers (filters "
                                                  "= %d) ---\n",
                                                  filters_7a),
                 .label = fmt("%d conv layers", layers),
                 .exp = sweep(layers, filters_7a), .show = Show::kParams});
  const std::vector<int> filters_7b =
      full ? std::vector<int>{16, 32, 64, 128, 256} : std::vector<int>{8, 16, 32, 64};
  for (int filters : filters_7b)
    t.push_back({.figure = "fig07",
                 .heading = filters != filters_7b.front()
                                ? ""
                                : fmt("\n--- Fig. 7b: filters (conv layers "
                                      "= %d) ---\n",
                                      layers_7b),
                 .label = fmt("%d filters", filters),
                 .exp = sweep(layers_7b, filters), .show = Show::kParams});

  // Fig. 8: beamformee 1, 3 TX antennas, stream 0 on Table I's sets. S1
  // (matched positions) near-perfect, S2 (interpolation) intermediate, S3
  // (extrapolation to unseen far positions) lowest.
  constexpr Range kFig08Band[] = {{99.44, 99.44}, {70.31, 74.69}, {47.81, 47.97}};
  for (int i = 0; i < 3; ++i)
    t.push_back({.figure = "fig08",
                 .heading = i > 0 ? "" : "set    train pos  test pos    (paper: "
                                         "S1 98.0%, S2 75.4%, S3 43.0%)\n\n",
                 .label = fmt("Fig. 8 set %s", set_name(kTableI[i])),
                 .exp = {.split = d1(kTableI[i]), .cfg = base},
                 .show = Show::kConfusion, .blank_after = true,
                 .paper = kFig08Paper[i], .band = kFig08Band[i]});

  // Fig. 9: the feedback of both beamformees pooled; slightly better than
  // one beamformee on S2/S3. Twice the data and diversity: more capacity.
  core::ExperimentConfig pooled = base;
  pooled.model.filters += pooled.model.filters / 2;
  pooled.train.epochs += 6;
  constexpr double kFig09Paper[] = {97.62, 77.38, 47.28};
  for (int i = 0; i < 3; ++i) {
    dataset::D1Options opt = d1(kTableI[i]);
    opt.mix_beamformees = true;
    t.push_back({.figure = "fig09",
                 .heading = i > 0 ? "" : "(paper: S1 97.6%, S2 77.4%, S3 47.3%)\n\n",
                 .label = fmt("Fig. 9 set %s", set_name(kTableI[i])),
                 .exp = {.split = opt, .cfg = pooled},
                 .show = Show::kConfusion, .blank_after = true,
                 .paper = kFig09Paper[i]});
  }

  // Fig. 10: accuracy vs. the number of training positions; it rises
  // (modulo noise) on every set.
  for (SetId set : kTableI) {
    const int positions =
        static_cast<int>(dataset::d1_split(set).train_positions.size());
    for (int n = 1; n <= positions; ++n) {
      dataset::D1Options opt = d1(set);
      opt.max_train_positions = n;
      t.push_back({.figure = "fig10",
                   .heading = n > 1 ? "" : fmt("--- set %s (1..%d training "
                                               "positions) ---\n",
                                               set_name(set), positions),
                   .label = fmt("%s, %d training position%s", set_name(set), n,
                                n == 1 ? "" : "s"),
                   .exp = {.split = opt, .cfg = base},
                   .blank_after = n == positions});
    }
  }

  // Fig. 11: train on one beamformee, test on the other (S1). Vtilde holds
  // both endpoints' hardware and the geometry to the specific beamformee,
  // so the fingerprint does not transfer.
  dataset::D1Options bf2 = d1(SetId::kS1);
  bf2.beamformee = 1;
  t.push_back({.figure = "fig11",
               .heading = "(paper: BF1->BF2 25.9%, BF2->BF1 25.0%; same-BF ~98%)\n\n",
               .label = "same beamformee (BF1->BF1)",
               .exp = {.split = d1(SetId::kS1), .cfg = base}});
  t.push_back({.figure = "fig11", .label = "train BF1, test BF2",
               .exp = {.split = d1(SetId::kS1), .test_beamformee = 1, .cfg = base},
               .show = Show::kConfusion, .blank_after = true, .paper = 25.86});
  t.push_back({.figure = "fig11", .label = "train BF2, test BF1",
               .exp = {.split = bf2, .test_beamformee = 0, .cfg = base},
               .show = Show::kConfusion, .paper = 25.02});

  // Fig. 12: accuracy rises with bandwidth (a) and with the number of TX
  // antennas (b), most on S2 and S3. The same stride everywhere keeps (a)
  // about the number of distinct sub-bands, not input length. The 80 MHz
  // and 3-antenna rows are Fig. 8's configuration.
  constexpr std::pair<phy::Band, const char*> kBands[] = {
      {phy::Band::k80MHz, "80 MHz (234 sc)"},
      {phy::Band::k40MHz, "40 MHz (110 sc)"},
      {phy::Band::k20MHz, "20 MHz ( 54 sc)"}};
  constexpr Range kFig12aBand[3][3] = {
      {{99.44, 99.44}, {97.50, 97.50}, {94.44, 94.72}},
      {{70.31, 74.69}, {70.31, 70.78}, {60.16, 60.16}},
      {{47.81, 47.97}, {58.44, 58.44}, {53.44, 53.44}}};
  for (int i = 0; i < 3; ++i)
    for (int b = 0; b < 3; ++b) {
      dataset::D1Options opt = d1(kTableI[i]);
      opt.input.band = kBands[b].first;
      t.push_back({.figure = "fig12",
                   .heading = i + b > 0 ? "" : "--- Fig. 12a: bandwidth "
                                               "(beamformee 1, stream 0) ---\n",
                   .label = fmt("%s  %s", set_name(kTableI[i]), kBands[b].second),
                   .exp = {.split = opt, .cfg = base}, .blank_after = b == 2,
                   .paper = b == 0 ? std::optional(kFig08Paper[i]) : std::nullopt,
                   .band = kFig12aBand[i][b]});
    }
  constexpr Range kFig12bBand[3][3] = {
      {{99.44, 99.44}, {99.72, 99.72}, {60.28, 64.17}},
      {{70.31, 74.69}, {69.22, 69.84}, {13.12, 15.94}},
      {{47.81, 47.97}, {47.19, 49.53}, {11.88, 12.66}}};
  for (int i = 0; i < 3; ++i)
    for (int antennas = 3; antennas >= 1; --antennas) {
      dataset::D1Options opt = d1(kTableI[i]);
      opt.input.num_antennas = antennas;
      t.push_back({.figure = "fig12",
                   .heading = i > 0 || antennas < 3 ? "" : "--- Fig. 12b: TX "
                                                           "antennas (beamformee 1, stream 0) ---\n",
                   .label = fmt("%s  %d TX antenna%s", set_name(kTableI[i]),
                                antennas, antennas == 1 ? "" : "s"),
                   .exp = {.split = opt, .cfg = base}, .blank_after = antennas == 1,
                   .paper = antennas == 3 ? std::optional(kFig08Paper[i]) : std::nullopt,
                   .band = kFig12bBand[i][3 - antennas]});
    }

  // Fig. 15: the second spatial stream. Algorithm 1's recursion makes its
  // reconstruction noisier (Fig. 13): the fingerprint survives on S1 only.
  constexpr double kFig15Paper[] = {97.03, 13.32, 5.63};
  for (int i = 0; i < 3; ++i) {
    dataset::D1Options opt = d1(kTableI[i]);
    opt.input.stream = 1;
    t.push_back({.figure = "fig15",
                 .heading = i > 0 ? "" : "(paper: S1 97.0%, S2 13.3%, S3 5.6%)\n\n",
                 .label = fmt("Fig. 15 set %s", set_name(kTableI[i])),
                 .exp = {.split = opt, .cfg = base},
                 .show = Show::kConfusion, .blank_after = true,
                 .paper = kFig15Paper[i]});
  }

  // Fig. 16: raw Vtilde I/Q (DeepCSI, Fig. 8's rows) vs. input whose
  // per-antenna linear phase was removed with the algorithm of [36]. The
  // "offsets" are mostly fingerprint, not nuisance: DeepCSI wins.
  constexpr Range kFig16Band[3][2] = {{{99.44, 99.44}, {78.61, 80.83}},
                                      {{70.31, 74.69}, {18.75, 20.62}},
                                      {{47.81, 47.97}, {23.12, 25.00}}};
  for (int i = 0; i < 3; ++i)
    for (bool corrected : {false, true}) {
      dataset::D1Options opt = d1(kTableI[i]);
      opt.input.offset_correction = corrected;
      std::optional<double> paper;
      if (!corrected) paper = kFig08Paper[i];
      if (corrected && i == 0) paper = 83.10;
      t.push_back({.figure = "fig16",
                   .heading = i > 0 || corrected ? "" : "(paper: S1 98.0% -> 83.1% "
                                                        "after offset correction)\n\n",
                   .label = fmt("%s%s", corrected ? "offs. corr. " : "DeepCSI     ",
                                set_name(kTableI[i])),
                   .exp = {.split = opt, .cfg = base},
                   .show = corrected && i == 0 ? Show::kConfusion : Show::kAccuracy,
                   .blank_after = corrected, .paper = paper,
                   .band = kFig16Band[i][corrected]});
    }

  // Fig. 17: beamformer mobility (dataset D2, Table II). Diversity in
  // training generalizes to static conditions, not the other way around.
  // A 4.8 m path needs a little more optimization budget.
  core::ExperimentConfig mobile = base;
  mobile.train.epochs += 8;
  const auto d2 = [&](SetId set, bool subpaths) {
    dataset::D2Options opt;
    opt.set = set;
    opt.scale = scale;
    opt.input.subcarrier_stride = scale.subcarrier_stride;
    opt.subpath_variant = subpaths;
    return opt;
  };
  const struct {
    const char* label;
    dataset::D2Options opt;
    double paper;
    Range band;
  } kFig17[] = {
      {"(a) S4 full mobility path", d2(SetId::kS4, false), 82.56, {68.75, 71.98}},
      {"(b) S4 train A-B-C-B, test B-D-B", d2(SetId::kS4, true), 41.15, {21.67, 21.67}},
      {"(c) S5 train static, test mobility", d2(SetId::kS5, false), 20.50, {30.22, 31.83}},
      {"(d) S6 train mobility, test static", d2(SetId::kS6, false), 88.12, {57.50, 76.17}}};
  for (std::size_t i = 0; i < std::size(kFig17); ++i)
    t.push_back({.figure = "fig17",
                 .heading = i > 0 ? "" : "(paper: S4 82.6%, S4 sub-paths 41.2%, "
                                         "S5 20.5%, S6 88.1%)\n\n",
                 .label = kFig17[i].label,
                 .exp = {.split = kFig17[i].opt, .cfg = mobile},
                 .show = Show::kConfusion, .blank_after = i < 3,
                 .paper = kFig17[i].paper, .band = kFig17[i].band});

  // Ablation (an extension beyond the paper): which impairment classes
  // carry the fingerprint, on S2 (more sensitive than the saturated S1),
  // one component removed at a time, then each alone. Per-chain phase
  // offsets dominate; SFO is common-mode and must contribute nothing, as
  // the SVD invariance predicts.
  using T = phy::ImpairmentToggles;
  const T none{false, false, false, false, false, false};
  const auto only = [&](bool T::*component) {
    T toggles = none;
    toggles.*component = true;
    return toggles;
  };
  const std::pair<const char*, T> kAblation[] = {
      {"all components (baseline)", T{}},
      {"without filter ripple", T{.ripple = false}},
      {"without gain mismatch", T{.gain_mismatch = false}},
      {"without chain phases", T{.static_phase = false}},
      {"without CFO (no LTF ramp)", T{.cfo = false}},
      {"without IQ imbalance", T{.iq_imbalance = false}},
      {"ripple only", only(&T::ripple)},
      {"chain phases only", only(&T::static_phase)},
      {"CFO ramp only", only(&T::cfo)},
      {"gain mismatch only", only(&T::gain_mismatch)},
      {"SFO only (common-mode: ~chance)", only(&T::sfo)},
      {"no imperfections (chance = 10%)", none}};
  for (std::size_t i = 0; i < std::size(kAblation); ++i) {
    dataset::D1Options opt = d1(SetId::kS2);
    opt.gen.toggles = kAblation[i].second;
    t.push_back({.figure = "ablation",
                 .heading = i == 0   ? "--- leave-one-out ---\n"
                            : i == 6 ? "\n--- single-component fingerprints ---\n"
                                     : "",
                 .label = kAblation[i].first,
                 .exp = {.split = opt, .cfg = base}});
  }
  return t;
}

// ------------------------------------------------------------ the driver

class Driver {
 public:
  void run(const Row& row);
  // Records one paper check for the closing summary.
  void check(bool pass, const std::string& line) {
    ok_ = ok_ && pass;
    checks_.push_back((pass ? "  ok    " : "  FAIL  ") + line);
  }
  // Prints the closing summary; true when every check held.
  bool summarize() const {
    std::printf("==============================================================\n");
    std::printf("paper check (bands: measured quick-scale range +/- %.1f points)\n",
                kBandMargin);
    for (const std::string& line : checks_) std::printf("%s\n", line.c_str());
    std::printf("trained %zu of %d rows; %s\n", memo_.size(), rows_,
                ok_ ? "all checks hold" : "FAILED");
    return ok_;
  }

 private:
  struct Outcome {
    core::ExperimentResult result;
    std::size_t train_n, test_n;
  };
  static dataset::SplitSets build_split(const Experiment& exp);

  std::vector<std::pair<Experiment, Outcome>> memo_;
  std::vector<std::string> checks_;
  bool ok_ = true;
  int rows_ = 0;
};

dataset::SplitSets Driver::build_split(const Experiment& exp) {
  if (const auto* d2 = std::get_if<dataset::D2Options>(&exp.split))
    return dataset::build_d2(*d2);
  const auto& opt = std::get<dataset::D1Options>(exp.split);
  dataset::SplitSets split = dataset::build_d1(opt);
  if (exp.test_beamformee >= 0) {
    dataset::D1Options test_side = opt;
    test_side.beamformee = exp.test_beamformee;
    split.test = dataset::build_d1(test_side).test;
  }
  return split;
}

void Driver::run(const Row& row) {
  std::printf("%s", row.heading.c_str());
  std::fflush(stdout);
  const Clock::time_point start = Clock::now();
  auto hit = std::find_if(memo_.begin(), memo_.end(),
                          [&](const auto& entry) { return entry.first == row.exp; });
  if (hit == memo_.end()) {
    const dataset::SplitSets split = build_split(row.exp);
    memo_.push_back({row.exp,
                     {core::run_classification(split, row.exp.cfg),
                      split.train.size(), split.test.size()}});
    hit = memo_.end() - 1;
  }
  ++rows_;
  const Outcome& out = hit->second;
  const double accuracy = 100.0 * out.result.accuracy;
  std::printf("%-36s  accuracy %6.2f%%  (val %5.1f%%, train n=%zu, test n=%zu, %.1fs)\n",
              row.label.c_str(), accuracy, 100.0 * out.result.best_val_accuracy,
              out.train_n, out.test_n, seconds_since(start));
  if (row.show == Show::kConfusion)
    std::printf("%s", out.result.confusion.to_string().c_str());
  if (row.show == Show::kParams)
    std::printf("%-36s  trainable params: %zu\n", "", out.result.trainable_params);
  if (row.blank_after) std::printf("\n");
  std::fflush(stdout);

  if (!row.band || dataset::full_scale_selected()) return;
  const double lo = std::max(0.0, row.band->lo - kBandMargin);
  const double hi = std::min(100.0, row.band->hi + kBandMargin);
  check(accuracy >= lo && accuracy <= hi,
        fmt("%-8s %-36s %6.2f%%  band [%6.2f, %6.2f]  paper %s", row.figure,
            row.label.c_str(), accuracy, lo, hi,
            row.paper ? fmt("%.2f%%", *row.paper).c_str() : "-"));
}

// ------------------------------------------ figures that are not training

void tables(Driver&) {
  std::printf("Table I (dataset D1, beamformee positions):\n");
  std::printf("  %-4s %-28s %-28s\n", "set", "training positions",
              "testing positions");
  const auto join = [](const std::vector<int>& v) {
    std::string s;
    for (int x : v) s += std::to_string(x) + " ";
    return s;
  };
  for (SetId set : {SetId::kS1, SetId::kS2, SetId::kS3}) {
    const dataset::D1Split split = dataset::d1_split(set);
    std::printf("  %-4s %-28s %-28s\n", set_name(set),
                join(split.train_positions).c_str(),
                join(split.test_positions).c_str());
  }

  std::printf("\nTable II (dataset D2, trace groups):\n");
  std::printf("  groups: fix1 = {0,1}, fix2 = {2,3}, mob1 = {4..7}, mob2 = {8..10}\n");
  std::printf("  %-4s %-28s %-28s\n", "set", "training groups",
              "testing groups");
  std::printf("  %-4s %-28s %-28s\n", "S4", "mob1", "mob2");
  std::printf("  %-4s %-28s %-28s\n", "S5", "fix1 fix2", "mob1 mob2");
  std::printf("  %-4s %-28s %-28s\n", "S6", "mob1 mob2", "fix1 fix2");

  // The generated corpora's inventory: the reproduction's answer to the
  // paper's "800 GB of captures" (Sec. IV-A). D2's BF0 runs one stream.
  const dataset::Scale scale = dataset::scale_from_env();
  const std::size_t report_bytes = feedback::report_payload_bytes(
      3, 2, 234, feedback::mu_mimo_codebook_high());
  const long d1_traces = 10L * 9 * 2;  // modules x positions x beamformees
  const long d1_snapshots = d1_traces * scale.d1_snapshots_per_trace;
  std::printf("\nDataset D1 (static): %ld traces (10 modules x 9 positions x 2 BFs),\n"
              "  %d snapshots/trace -> %ld reports, %zu B each on the air (~%.1f MB)\n",
              d1_traces, scale.d1_snapshots_per_trace, d1_snapshots,
              report_bytes,
              static_cast<double>(d1_snapshots * report_bytes) / 1e6);
  const std::size_t report_bytes_1ss = feedback::report_payload_bytes(
      3, 1, 234, feedback::mu_mimo_codebook_high());
  const long d2_traces = 10L * dataset::kNumD2Traces * 2;
  const long d2_snapshots = d2_traces * scale.d2_snapshots_per_trace;
  std::printf("Dataset D2 (dynamic): %ld traces (10 modules x 11 traces x 2 BFs),\n"
              "  %d snapshots/trace -> %ld reports (%zu B for NSS=1, %zu B for NSS=2)\n",
              d2_traces, scale.d2_snapshots_per_trace, d2_snapshots,
              report_bytes_1ss, report_bytes);

  // Sanity-generate one trace of each kind and report timings.
  Clock::time_point start = Clock::now();
  const dataset::Trace d1 =
      dataset::generate_d1_trace(0, 1, 0, scale, dataset::GeneratorConfig{});
  std::printf("\ngeneration cost: one D1 trace (%zu snapshots) in %.2fs\n",
              d1.snapshots.size(), seconds_since(start));
  start = Clock::now();
  const dataset::Trace d2 =
      dataset::generate_d2_trace(0, 5, 0, scale, dataset::GeneratorConfig{});
  std::printf("                 one D2 trace (%zu snapshots) in %.2fs\n",
              d2.snapshots.size(), seconds_since(start));
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// Fig. 13: PDF of the Vtilde reconstruction error from feedback angle
// quantization, per Vtilde entry (TX antenna x spatial stream), for the
// codebooks (b_psi, b_phi) = (5, 7) and (7, 9). The paper simulates
// 100,000 TGac soundings; here the ray-traced channel with randomized
// endpoints. Checked: (5, 7) errs more than (7, 9) (~4x), and stream 2
// (column 2, Algorithm 1's error recursion) errs more than stream 1 on
// average under each codebook. Not for every antenna: [V]3,2 errs less
// than [V]3,1 under both codebooks.
void fig13(Driver& driver) {
  const long num_soundings = dataset::full_scale_selected() ? 100000 : 20000;
  std::printf("simulated soundings: %ld (paper: 100,000)\n\n", num_soundings);

  const phy::Scene scene(0);
  const phy::ChannelModel channel(scene);
  std::mt19937_64 rng(0xF13);
  std::uniform_real_distribution<double> ux(0.5, 6.5), uy(0.5, 5.5);

  // A handful of sub-carriers per sounding keeps the draw i.i.d.-ish
  // while exercising the full band.
  const std::vector<int> subcarriers{-122, -73, -21, 30, 81, 122};

  double codebook_mean[2];
  int codebook = 0;
  for (const auto& [cfg, title] :
       {std::pair{feedback::mu_mimo_codebook_low(),
                  "(a) b_psi = 5, b_phi = 7"},
        std::pair{feedback::mu_mimo_codebook_high(),
                  "(b) b_psi = 7, b_phi = 9"}}) {
    // Per (antenna m, stream c) absolute reconstruction error samples.
    std::vector<double> samples[3][2];
    long done = 0;
    const Clock::time_point start = Clock::now();
    while (done < num_soundings) {
      const phy::Point tx{ux(rng), uy(rng), 1.2};
      const phy::Point rx{ux(rng), uy(rng), 1.2};
      if (phy::distance(tx, rx) < 0.5) continue;
      const phy::Cfr cfr = channel.cfr(tx, rx, 3, 2, subcarriers, {},
                                       phy::FadingParams{}, rng);
      for (const auto& vk : feedback::beamforming_v(cfr.h, 2)) {
        const linalg::CMat exact =
            feedback::reconstruct_v(feedback::decompose_v(vk));
        const linalg::CMat quant = feedback::quantized_vtilde(vk, cfg);
        for (std::size_t m = 0; m < 3; ++m)
          for (std::size_t c = 0; c < 2; ++c)
            samples[m][c].push_back(std::abs(exact(m, c) - quant(m, c)));
        if (++done >= num_soundings) break;
      }
    }

    std::printf("%s\n", title);
    std::printf("  %-10s %-12s %-12s\n", "entry", "mean err", "p95 err");
    for (std::size_t c = 0; c < 2; ++c) {
      for (std::size_t m = 0; m < 3; ++m) {
        std::vector<double> v = samples[m][c];
        std::sort(v.begin(), v.end());
        const double p95 = v[static_cast<std::size_t>(0.95 * (v.size() - 1))];
        std::printf("  [V]%zu,%zu     %.3e    %.3e\n", m + 1, c + 1, mean(v),
                    p95);
      }
    }
    // Histogram of the pooled per-stream error (the PDFs of Fig. 13).
    double stream_mean[2];
    for (std::size_t c = 0; c < 2; ++c) {
      std::vector<double> pooled;
      for (std::size_t m = 0; m < 3; ++m)
        pooled.insert(pooled.end(), samples[m][c].begin(),
                      samples[m][c].end());
      stream_mean[c] = mean(pooled);
      std::sort(pooled.begin(), pooled.end());
      const double hi = pooled[static_cast<std::size_t>(0.99 * (pooled.size() - 1))];
      constexpr std::size_t kBins = 10;
      std::vector<int> hist(kBins, 0);
      for (double x : pooled)
        ++hist[std::min(static_cast<std::size_t>(x / hi * kBins), kBins - 1)];
      std::printf("  stream %zu PDF (bin width %.2e): ", c + 1, hi / kBins);
      for (int h : hist)
        std::printf("%4.1f%% ",
                    100.0 * h / static_cast<double>(pooled.size()));
      std::printf("\n");
    }
    const double s1 = stream_mean[0], s2 = stream_mean[1];
    std::printf("  stream means: s1 %.3e vs s2 %.3e (ratio %.2f), %.1fs\n\n",
                s1, s2, s2 / s1, seconds_since(start));
    driver.check(s2 > s1, fmt("fig13    %s: stream 2 mean error > stream 1 (ratio %.2f)",
                              title, s2 / s1));
    codebook_mean[codebook++] = 0.5 * (s1 + s2);  // equal sample counts
  }
  driver.check(codebook_mean[0] > codebook_mean[1],
               fmt("fig13    (5,7) mean error > (7,9) (ratio %.2f)",
                   codebook_mean[0] / codebook_mean[1]));
}

// Fig. 14: time evolution of |Vtilde| over the first 75 sub-carriers of a
// static trace, per (TX antenna, stream) entry. The first stream is stable
// over time; the second shows quantization churn. Dumps the panels as CSV
// in the working directory and checks that stream 2's temporal dispersion
// exceeds stream 1's.
void fig14(Driver& driver) {
  // One static trace of module 0, beamformee 1, with a long snapshot
  // series playing the role of the paper's 30 time indices.
  dataset::Scale scale = dataset::scale_from_env();
  scale.d1_snapshots_per_trace =
      std::max(30, scale.d1_snapshots_per_trace);
  const dataset::Trace trace =
      dataset::generate_d1_trace(0, 3, 0, scale, dataset::GeneratorConfig{});

  constexpr std::size_t kSubcarriers = 75;
  const std::size_t t_steps = trace.snapshots.size();

  // mag[m][c] is a t x k panel.
  using Panel = std::vector<std::vector<double>>;
  std::vector<std::vector<Panel>> mag(3, std::vector<Panel>(2));
  for (const dataset::Snapshot& snap : trace.snapshots) {
    std::vector<linalg::CMat> v;
    for (std::size_t k = 0; k < kSubcarriers; ++k)
      v.push_back(feedback::reconstruct_v(feedback::dequantize(
          snap.report.per_subcarrier[k], snap.report.quant)));
    for (std::size_t m = 0; m < 3; ++m)
      for (std::size_t c = 0; c < 2; ++c) {
        mag[m][c].emplace_back();
        for (std::size_t k = 0; k < kSubcarriers; ++k)
          mag[m][c].back().push_back(std::abs(v[k](m, c)));
      }
  }

  // CSV dump: one file per entry, rows = time, cols = sub-carrier.
  for (std::size_t m = 0; m < 3; ++m)
    for (std::size_t c = 0; c < 2; ++c) {
      std::FILE* f = std::fopen(fmt("fig14_v_%zu_%zu.csv", m + 1, c + 1).c_str(), "w");
      if (f == nullptr) continue;
      for (const auto& row : mag[m][c]) {
        for (std::size_t k = 0; k < row.size(); ++k)
          std::fprintf(f, "%s%.6f", k == 0 ? "" : ",", row[k]);
        std::fprintf(f, "\n");
      }
      std::fclose(f);
    }
  std::printf("CSV panels written to fig14_v_<antenna>_<stream>.csv\n\n");

  // Temporal dispersion: std over time, averaged over sub-carriers.
  std::printf("%-10s %-14s\n", "entry", "temporal std");
  double stream_disp[2] = {0.0, 0.0};
  for (std::size_t c = 0; c < 2; ++c) {
    for (std::size_t m = 0; m < 3; ++m) {
      double acc = 0.0;
      for (std::size_t k = 0; k < kSubcarriers; ++k) {
        double mean = 0.0, var = 0.0;
        for (std::size_t t = 0; t < t_steps; ++t) mean += mag[m][c][t][k];
        mean /= static_cast<double>(t_steps);
        for (std::size_t t = 0; t < t_steps; ++t) {
          const double d = mag[m][c][t][k] - mean;
          var += d * d;
        }
        acc += std::sqrt(var / static_cast<double>(t_steps));
      }
      acc /= static_cast<double>(kSubcarriers);
      std::printf("[V]%zu,%zu     %.4e\n", m + 1, c + 1, acc);
      stream_disp[c] += acc / 3.0;
    }
  }
  const double ratio = stream_disp[1] / stream_disp[0];
  std::printf(
      "\nstream temporal dispersion: s1 %.3e vs s2 %.3e (ratio %.2f)\n"
      "(paper: quantization churn is clearly visible on stream 2 only)\n",
      stream_disp[0], stream_disp[1], ratio);
  driver.check(stream_disp[1] > stream_disp[0],
               fmt("fig14    stream 2 temporal dispersion > stream 1 "
                   "(ratio %.2f)",
                   ratio));
}

// ---------------------------------------------------------------- figures

struct Figure {
  const char* name;  // command-line name; the table's rows carry it too
  const char* title;
  const char* what;
  void (*run)(Driver&);  // null: the experiment table's rows
};

// Paper order: the dataset tables (Sec. IV), the figures, the extension.
constexpr Figure kFigures[] = {
    {"tables", "Tables I & II", "split definitions and dataset inventory", tables},
    {"fig07", "Fig. 7", "hyper-parameter sweep on S1 validation data", nullptr},
    {"fig08", "Fig. 8",
     "beamformer identification vs. Table I sets (beamformee 1)", nullptr},
    {"fig09", "Fig. 9", "training on the pooled feedback of both beamformees", nullptr},
    {"fig10", "Fig. 10", "accuracy vs. number of training positions", nullptr},
    {"fig11", "Fig. 11", "train on one beamformee, test on the other (set S1)", nullptr},
    {"fig12", "Fig. 12",
     "accuracy vs. bandwidth (12a) and number of TX antennas (12b)", nullptr},
    {"fig13", "Fig. 13", "PDF of the Vtilde quantization error per entry", fig13},
    {"fig14", "Fig. 14", "time evolution of |Vtilde| (static trace, 75 sc)", fig14},
    {"fig15", "Fig. 15", "identification from spatial stream 1 (beamformee 1)", nullptr},
    {"fig16", "Fig. 16",
     "raw Vtilde input vs. offset-corrected input (beamformee 1, stream 0)",
     nullptr},
    {"fig17", "Fig. 17", "beamformer mobility (dataset D2)", nullptr},
    {"ablation", "Ablation (extension)",
     "fingerprint contribution per impairment class, set S2", nullptr},
};

}  // namespace

int main(int argc, char** argv) {
  std::vector<const Figure*> selected;
  for (int i = 1; i < argc; ++i) {
    const Figure* figure = std::find_if(
        std::begin(kFigures), std::end(kFigures),
        [&](const Figure& f) { return f.name == std::string(argv[i]); });
    if (figure == std::end(kFigures)) {
      std::fprintf(stderr, "bench_paper: unknown figure '%s'; expected any of:",
                   argv[i]);
      for (const Figure& f : kFigures) std::fprintf(stderr, " %s", f.name);
      std::fprintf(stderr, "\n");
      return 2;
    }
    selected.push_back(figure);
  }
  if (selected.empty())
    for (const Figure& f : kFigures) selected.push_back(&f);

  const std::vector<Row> table = experiment_table();
  Driver driver;
  for (const Figure* figure : selected) {
    std::printf("==============================================================\n");
    std::printf("DeepCSI reproduction — %s\n%s\n", figure->title, figure->what);
    std::printf("scale: %s\n",
                dataset::full_scale_selected() ? "full (paper-like)" : "quick");
    std::printf("==============================================================\n");
    std::fflush(stdout);
    if (figure->run != nullptr) figure->run(driver);
    for (const Row& row : table)
      if (row.figure == std::string(figure->name)) driver.run(row);
  }
  return driver.summarize() ? 0 : 1;
}
