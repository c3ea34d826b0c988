# Figure-bench smoke (ctest): run every simulating bench and the
# steering_comparison example on short traces, once serially and once on
# four sweep threads, and demand exit 0 and byte-identical stdout. Every one
# of them runs its grid through exp::run_sweep, so this covers the benches'
# grid construction and result reading, which no unit test reaches.
# Variables: BIN_DIR (directory of the bench_* and example_* binaries).

set(BINARIES
    bench_fig05_width_prediction
    bench_fig06_888_performance
    bench_fig07_steered_copies
    bench_fig08_br_copies
    bench_fig09_lr_copies
    bench_fig12_cr_performance
    bench_fig14_categories
    bench_cp_performance
    bench_ir_imbalance
    bench_edp
    bench_ablation_helper_design
    bench_ablation_ir_block
    bench_ablation_predictor_size
    example_steering_comparison)

# Short traces, full (unsampled) runs, whatever the caller's environment.
set(ENV{HCSIM_TRACE_LEN} 4000)
set(ENV{HCSIM_FIG14_LEN} 1500)
foreach(var HCSIM_SAMPLE_MEASURE HCSIM_SAMPLE_WARMUP HCSIM_SAMPLE_PERIOD
            HCSIM_SAMPLE_MAX_WINDOWS)
  unset(ENV{${var}})
endforeach()

function(run_bench out_var bin threads)
  set(ENV{HCSIM_SWEEP_THREADS} ${threads})
  execute_process(COMMAND ${BIN_DIR}/${bin} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${bin} (HCSIM_SWEEP_THREADS=${threads}) failed (${rc}):\n"
                        "${out}\n${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

foreach(bin ${BINARIES})
  run_bench(serial ${bin} 1)
  run_bench(threaded ${bin} 4)
  if(NOT serial STREQUAL threaded)
    message(FATAL_ERROR "${bin}: stdout differs between 1 and 4 sweep threads\n"
                        "--- 1 thread:\n${serial}\n--- 4 threads:\n${threaded}")
  endif()
  string(FIND "${serial}" "[shape " shape)
  if(bin MATCHES "^bench_" AND shape EQUAL -1)
    message(FATAL_ERROR "${bin} printed no shape line:\n${serial}")
  endif()
endforeach()

message(STATUS "bench smoke OK")
