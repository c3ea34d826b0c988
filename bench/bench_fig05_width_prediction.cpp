// Figure 5 — width prediction accuracy per app (correct / non-fatal /
// fatal), and the Section 3.2 confidence-estimator claim: fatal
// mispredictions drop from 2.11% to 0.83% with the 2-bit estimator.
// Driven by the exp/ sweep engine: the "fig06" grid (12 apps x {8_8_8})
// plus 8_8_8 without the confidence estimator.
#include "bench_util.hpp"

using namespace hcsim;
using namespace hcsim::bench;

int main() {
  header("Figure 5 - width prediction accuracy (8-8-8 machine)",
         "~93.5% correct on average; fatal mispredictions need recovery");

  exp::SweepSpec spec = named_sweep("fig06");
  exp::ConfigVariant no_confidence = exp::variant_from_steering(steering_888());
  no_confidence.name += "-noconf";
  no_confidence.machine.wpred.use_confidence = false;
  spec.variants.push_back(std::move(no_confidence));
  const exp::SweepResult res = exp::run_sweep(spec, sweep_options());

  TextTable t({"app", "correct%", "non-fatal%", "fatal%"});
  std::vector<double> correct, fatal;
  double fatal_on = 0, fatal_off = 0;
  const auto rows = app_rows(res);
  for (const auto& row : rows) {
    const SimResult& r = row[0].sim;
    const double tot = static_cast<double>(r.wp_correct + r.wp_nonfatal + r.wp_fatal);
    const double c = 100.0 * static_cast<double>(r.wp_correct) / tot;
    const double nf = 100.0 * static_cast<double>(r.wp_nonfatal) / tot;
    const double f = 100.0 * static_cast<double>(r.wp_fatal) / tot;
    correct.push_back(c);
    fatal.push_back(f);
    t.add_row({row[0].point.profile.name, TextTable::num(c, 2), TextTable::num(nf, 2),
               TextTable::num(f, 2)});
    fatal_on += 100.0 * r.fatal_rate();
    fatal_off += 100.0 * row[1].sim.fatal_rate();
  }
  t.add_row({"AVG", TextTable::num(avg(correct), 2), "", TextTable::num(avg(fatal), 2)});
  std::printf("%s\n", t.render().c_str());

  // Confidence estimator ablation (Section 3.2: 2.11% -> 0.83%).
  fatal_on /= static_cast<double>(rows.size());
  fatal_off /= static_cast<double>(rows.size());
  std::printf("fatal misprediction rate without confidence estimator: %.2f%%\n",
              fatal_off);
  std::printf("fatal misprediction rate with    confidence estimator: %.2f%%\n",
              fatal_on);
  std::printf("(paper: 2.11%% -> 0.83%%)\n");

  footer_shape(avg(correct) > 85.0 && fatal_on < fatal_off,
               "high accuracy; confidence estimator reduces fatal mispredictions");
  return 0;
}
