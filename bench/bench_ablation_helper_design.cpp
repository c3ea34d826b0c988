// Ablation — helper cluster design space: clock ratio (Section 2.2's 2x
// claim), datapath width (Section 2.1: "more narrow instructions would be
// executed ... if it would be possible to construct a wider than 8-bits"),
// and reduced helper scheduler resources (Section 2.2: "negligible impact").
//
// Driven by the exp/ sweep engine ("helper_design": 5 apps x 7 machine
// variants; width8 is the clock2x variant — same machine). Gains compare
// wide-cycle counts, not raw ticks: a wide cycle is the same physical
// duration regardless of the helper clock ratio.
#include "bench_util.hpp"

using namespace hcsim;
using namespace hcsim::bench;

namespace {

/// Mean wide-cycle gain (%) of one variant across the sweep's apps.
double variant_gain(const std::vector<exp::VariantSummary>& summaries,
                    const std::string& config) {
  for (const exp::VariantSummary& s : summaries)
    if (s.config == config) return (s.mean_wide_cycle_speedup - 1.0) * 100.0;
  HCSIM_CHECK(false, "variant missing from helper_design sweep: " + config);
}

}  // namespace

int main() {
  const exp::SweepResult res =
      exp::run_sweep(named_sweep("helper_design"), sweep_options());
  const std::vector<exp::VariantSummary> summaries = exp::summarize(res);

  header("Ablation A - helper clock ratio",
         "the 8-bit backend can be clocked 2x the 32-bit backend (Sec 2.2)");
  TextTable ta({"clock ratio", "perf+% (avg)"});
  std::vector<double> ratio_gain;
  for (unsigned ratio : {1u, 2u, 3u, 4u}) {
    const double g = variant_gain(summaries, "clock" + std::to_string(ratio) + "x");
    ratio_gain.push_back(g);
    ta.add_row({std::to_string(ratio) + "x", TextTable::num(g, 1)});
  }
  std::printf("%s\n", ta.render().c_str());

  header("Ablation B - helper datapath width",
         "8 bits is the complexity/performance design point; wider helpers "
         "catch more instructions (Sec 2.1)");
  TextTable tb({"width (bits)", "perf+% (avg)", "steered% (gcc)"});
  for (unsigned width : {4u, 8u, 16u}) {
    // The 8-bit row is the default machine, which the sweep names "clock2x".
    const std::string config = width == 8 ? "clock2x" : "width" + std::to_string(width);
    double gcc_steered = -1.0;
    for (const exp::PointResult& pr : res.points)
      if (pr.point.profile.name == "gcc" && pr.point.variant.name == config)
        gcc_steered = 100.0 * pr.sim.helper_frac();
    HCSIM_CHECK(gcc_steered >= 0.0, "helper_design sweep lost the (gcc, " + config +
                                        ") point");
    tb.add_row({std::to_string(width), TextTable::num(variant_gain(summaries, config), 1),
                TextTable::num(gcc_steered, 1)});
  }
  std::printf("%s\n", tb.render().c_str());

  header("Ablation C - reduced helper scheduler",
         "reduced issue queue size and width: negligible impact (Sec 2.2)");
  TextTable tc({"helper IQ/issue", "perf+% (avg)"});
  // The full 32-entry/3-issue helper at the default 2x clock is the
  // "clock2x" variant.
  const double full = variant_gain(summaries, "clock2x");
  const double reduced = variant_gain(summaries, "iq16x2");
  tc.add_row({"32 / 3", TextTable::num(full, 1)});
  tc.add_row({"16 / 2", TextTable::num(reduced, 1)});
  std::printf("%s\n", tc.render().c_str());

  footer_shape(ratio_gain[1] > ratio_gain[0] && full - reduced < 6.0,
               "2x clock clearly beats 1x; shrinking the helper scheduler "
               "costs comparatively little");
  return 0;
}
