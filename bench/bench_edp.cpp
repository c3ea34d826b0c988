// Section 3.7 (end) — energy-delay^2 comparison of the baseline with the
// helper cluster in its most resource-aggressive configuration (IR).
// Driven by the exp/ sweep engine ("edp": 12 apps x {IR}), which computes
// the power reports alongside each simulation.
#include "bench_util.hpp"

using namespace hcsim;
using namespace hcsim::bench;

int main() {
  header("Energy-delay^2 - baseline vs helper cluster (IR configuration)",
         "helper cluster is 5.1% more energy-delay^2 efficient than baseline");

  const exp::SweepResult res = exp::run_sweep(named_sweep("edp"), sweep_options());

  TextTable t({"app", "E base", "E helper", "D ratio", "ED2 gain %"});
  std::vector<double> gains, e_ratio;
  for (const exp::PointResult& pr : res.points) {
    const double gain = pr.ed2p_gain_pct();
    gains.push_back(gain);
    e_ratio.push_back(pr.power_sim.energy / pr.power_baseline.energy);
    t.add_row({pr.point.profile.name, TextTable::num(pr.power_baseline.energy, 0),
               TextTable::num(pr.power_sim.energy, 0),
               TextTable::num(pr.power_sim.delay / pr.power_baseline.delay, 3),
               TextTable::num(gain, 1)});
  }
  t.add_row({"AVG", "", "", "", TextTable::num(avg(gains), 1)});
  std::printf("%s\n", t.render().c_str());
  std::printf("average energy ratio helper/baseline: %.2f (the helper adds "
              "energy; the ED^2 win comes from delay)\n", avg(e_ratio));
  footer_shape(avg(gains) > 0.0 && avg(e_ratio) > 1.0,
               "helper cluster spends more energy but wins on ED^2");
  return 0;
}
