# CLI round-trip test (ctest): generate a trace twice, dump both, and demand
# byte-identical artifacts; also smoke the hcrv frontend on a bundled kernel
# and check that bad integer options are rejected with exit 2.
# Variables: GEN (hctrace_gen), DUMP (hctrace_dump), HCRV (hcrv),
# SWEEP (hcsim_sweep), RUN (hcsim_run), BENCH (hcsim_bench), WORK_DIR.

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

function(run_checked)
  execute_process(COMMAND ${ARGV} RESULT_VARIABLE rc
                  WORKING_DIRECTORY ${WORK_DIR}
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "command failed (${rc}): ${ARGV}\n${out}\n${err}")
  endif()
endfunction()

function(capture out_var)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc
                  WORKING_DIRECTORY ${WORK_DIR}
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "command failed (${rc}): ${ARGN}\n${out}\n${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

# Two independent generations of the same profile must be bit-identical.
run_checked(${GEN} gcc 5000 a.hctrace)
run_checked(${GEN} gcc 5000 b.hctrace)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${WORK_DIR}/a.hctrace ${WORK_DIR}/b.hctrace
                RESULT_VARIABLE same)
if(NOT same EQUAL 0)
  message(FATAL_ERROR "hctrace_gen is not deterministic: a.hctrace != b.hctrace")
endif()

# The dump of both must agree (load path + formatting determinism).
capture(dump_a ${DUMP} a.hctrace 32)
capture(dump_b ${DUMP} b.hctrace 32)
if(NOT dump_a STREQUAL dump_b)
  message(FATAL_ERROR "hctrace_dump outputs differ for identical traces")
endif()
string(FIND "${dump_a}" "dynamic uops" found)
if(found EQUAL -1)
  message(FATAL_ERROR "hctrace_dump output missing expected header:\n${dump_a}")
endif()

# RV frontend round-trip: hcrv trace -> hctrace_dump must load and identify
# the kernel, twice, byte-identically.
run_checked(${HCRV} trace crc32 -o rv_a.trace --budget 20000)
run_checked(${HCRV} trace crc32 -o rv_b.trace --budget 20000)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${WORK_DIR}/rv_a.trace ${WORK_DIR}/rv_b.trace
                RESULT_VARIABLE rv_same)
if(NOT rv_same EQUAL 0)
  message(FATAL_ERROR "hcrv trace is not deterministic")
endif()
capture(rv_dump ${DUMP} rv_a.trace 8)
string(FIND "${rv_dump}" "trace 'crc32'" rv_found)
if(rv_found EQUAL -1)
  message(FATAL_ERROR "hctrace_dump could not identify the hcrv trace:\n${rv_dump}")
endif()

# Integer options are strict: a sign, overflow past 2^64-1 or a value that
# would narrow must be a usage error, never a wrapped or clamped value (a
# wrapped --len -1 would run until killed).
function(expect_usage_error)
  execute_process(COMMAND ${ARGV} RESULT_VARIABLE rc
                  WORKING_DIRECTORY ${WORK_DIR}
                  OUTPUT_VARIABLE out ERROR_VARIABLE err TIMEOUT 60)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "expected exit 2, got ${rc}: ${ARGV}\n${out}\n${err}")
  endif()
endfunction()

expect_usage_error(${SWEEP} smoke --len -1)
expect_usage_error(${SWEEP} smoke --len 99999999999999999999)
expect_usage_error(${SWEEP} smoke --threads 4097)
expect_usage_error(${RUN} gcc ir -1)
# An unknown steering scheme is a usage error, not a silent IR run.
expect_usage_error(${RUN} gcc bogus 5000)
expect_usage_error(${HCRV} run fib --budget -1)
expect_usage_error(${BENCH} --reps 4294967296)
expect_usage_error(${GEN} gcc -5000 c.hctrace)
expect_usage_error(${DUMP} a.hctrace -1)
# An inconsistent sampling schedule (period < warmup + measure) is a usage
# error, not an abort; so is a zero warm-up over the job protocol, which
# reads warmup 0 as the default warm-up.
expect_usage_error(${SWEEP} smoke --sample-period 100)
expect_usage_error(${RUN} gcc ir 20000 --sample-period 100)
expect_usage_error(${SWEEP} smoke --sample-warmup 0 --journal-dir ft_journal)
run_checked(${SWEEP} smoke --len 5 --quiet)

message(STATUS "tools round-trip OK")
