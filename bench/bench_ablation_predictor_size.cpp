// Ablation — width predictor table size sweep. The paper states that 256
// entries "was found to be a good compromise between complexity and
// performance" (Section 3.2); this bench regenerates that tradeoff curve.
// Driven by the exp/ sweep engine: 4 apps x 5 table sizes of the
// 8_8_8+BR+LR+CR machine, one shared baseline per app.
#include "bench_util.hpp"

using namespace hcsim;
using namespace hcsim::bench;

int main() {
  header("Ablation - width predictor table size",
         "256 entries chosen as the complexity/performance compromise");

  const std::vector<u32> sizes = {16, 64, 256, 1024, 4096};
  exp::SweepSpec spec;
  spec.name = "ablation_predictor_size";
  for (const char* app : {"gcc", "gzip", "twolf", "parser"})
    spec.workloads.push_back(spec_profile(app));
  for (u32 size : sizes) {
    exp::ConfigVariant v = exp::variant_from_steering(steering_888_br_lr_cr());
    v.name = "wpred" + std::to_string(size);
    v.machine.wpred.entries = size;
    spec.variants.push_back(std::move(v));
  }
  const exp::SweepResult res = exp::run_sweep(spec, sweep_options());
  const auto rows = app_rows(res);

  TextTable t({"entries", "perf+% (avg)", "wp accuracy %", "fatal %"});
  std::vector<double> perf_at;
  for (std::size_t s = 0; s < sizes.size(); ++s) {
    std::vector<double> gains, accs, fatals;
    for (const auto& row : rows) {
      gains.push_back(row[s].perf_increase_pct());
      accs.push_back(100.0 * row[s].sim.wp_accuracy());
      fatals.push_back(100.0 * row[s].sim.fatal_rate());
    }
    perf_at.push_back(avg(gains));
    t.add_row({std::to_string(sizes[s]), TextTable::num(avg(gains), 2),
               TextTable::num(avg(accs), 2), TextTable::num(avg(fatals), 3)});
  }
  std::printf("%s\n", t.render().c_str());
  // Shape: 256 close to the asymptote (within 1.5pp of 4096 entries).
  footer_shape(perf_at[2] + 1.5 >= perf_at.back(),
               "returns saturate around 256 entries — the paper's choice");
  return 0;
}
