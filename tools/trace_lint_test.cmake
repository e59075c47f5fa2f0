# End-to-end trace pipeline check, run under ctest:
#   1. `yourstate explain` replays one selector-chained cell with a trace
#      export, and trace_lint must accept the file.
#   2. `bench_table4` at smoke scale with a flight-recorder directory must
#      archive at least one anomalous trial, and every archived trace must
#      pass trace_lint; the same run's --phase-trace flamegraph must pass
#      trace_lint too.
#
# Invoked as:
#   cmake -DYOURSTATE=<path> -DBENCH_TABLE4=<path> -DTRACE_LINT=<path>
#         -DWORK_DIR=<dir> -P trace_lint_test.cmake

foreach(var YOURSTATE BENCH_TABLE4 TRACE_LINT WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "trace_lint_test: missing -D${var}")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# --- 1. explain a selector-chained cell, lint its trace export ------------
set(explain_trace "${WORK_DIR}/explain.trace.json")
execute_process(
  COMMAND "${YOURSTATE}" explain --bench=table4-intang --cell=0 --vantage=0
          --server=0 --trial=1 --servers=3 --trials=2
          --trace-out=${explain_trace}
  RESULT_VARIABLE explain_rc
  OUTPUT_VARIABLE explain_out
  ERROR_VARIABLE explain_err)
message(STATUS "yourstate explain output:\n${explain_out}")
if(NOT explain_rc EQUAL 0)
  message(FATAL_ERROR "yourstate explain failed (${explain_rc}):\n"
                      "${explain_out}\n${explain_err}")
endif()
if(NOT EXISTS "${explain_trace}")
  message(FATAL_ERROR "yourstate explain did not write ${explain_trace}")
endif()

execute_process(
  COMMAND "${TRACE_LINT}" "${explain_trace}"
  RESULT_VARIABLE lint_rc
  OUTPUT_VARIABLE lint_out
  ERROR_VARIABLE lint_err)
if(NOT lint_rc EQUAL 0)
  message(FATAL_ERROR "trace_lint rejected explain trace:\n"
                      "${lint_out}\n${lint_err}")
endif()
message(STATUS "${lint_out}")

# --- 2. flight recorder archives an anomalous cell at smoke scale ---------
set(flight_dir "${WORK_DIR}/flight")
set(phase_trace "${WORK_DIR}/table4.phases.json")
execute_process(
  COMMAND "${BENCH_TABLE4}" --trials=1 --servers=3 --seed=2017
          --flight-dir=${flight_dir} --phase-trace=${phase_trace}
  RESULT_VARIABLE bench_rc
  OUTPUT_VARIABLE bench_out
  ERROR_VARIABLE bench_err)
# bench_table4's exit code reflects its own acceptance bars at paper scale;
# at smoke scale only the flight-recorder artifacts are under test here.
message(STATUS "bench_table4 smoke exit: ${bench_rc}")

file(GLOB archived_traces "${flight_dir}/*.trace.json")
file(GLOB archived_pcaps "${flight_dir}/*.pcap")
list(LENGTH archived_traces n_traces)
list(LENGTH archived_pcaps n_pcaps)
if(n_traces EQUAL 0)
  message(FATAL_ERROR "flight recorder archived no traces at smoke scale:\n"
                      "${bench_out}\n${bench_err}")
endif()
if(n_pcaps EQUAL 0)
  message(FATAL_ERROR "flight recorder archived traces but no pcaps")
endif()
message(STATUS "flight recorder archived ${n_traces} trace(s), "
               "${n_pcaps} pcap(s)")

execute_process(
  COMMAND "${TRACE_LINT}" ${archived_traces}
  RESULT_VARIABLE lint_rc
  OUTPUT_VARIABLE lint_out
  ERROR_VARIABLE lint_err)
if(NOT lint_rc EQUAL 0)
  message(FATAL_ERROR "trace_lint rejected archived trace(s):\n"
                      "${lint_out}\n${lint_err}")
endif()
message(STATUS "${lint_out}")

if(NOT EXISTS "${phase_trace}")
  message(FATAL_ERROR "bench_table4 did not write --phase-trace ${phase_trace}")
endif()
execute_process(
  COMMAND "${TRACE_LINT}" "${phase_trace}"
  RESULT_VARIABLE lint_rc
  OUTPUT_VARIABLE lint_out
  ERROR_VARIABLE lint_err)
if(NOT lint_rc EQUAL 0)
  message(FATAL_ERROR "trace_lint rejected the phase trace:\n"
                      "${lint_out}\n${lint_err}")
endif()
message(STATUS "${lint_out}")
