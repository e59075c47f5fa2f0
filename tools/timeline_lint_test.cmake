# End-to-end timeline pipeline check, run under ctest:
#   1. `yourstate fleet --timeline-out` on a soaked smoke config must emit
#      "ys.timeline.v1" JSON (and CSV) that timeline_lint accepts, with a
#      metrics snapshot whose aggregate counters the timeline totals match.
#   2. `yourstate report` must render a self-contained HTML dashboard whose
#      manifest timeline_lint verifies against the timeline file, and must
#      exit non-zero when the --out file cannot be written (/dev/full).
#   3. `yourstate search --timeline-out --metrics-out` must emit a lintable
#      timeline (generation-bucketed search.* series) and a metrics file.
#
# Invoked as:
#   cmake -DYOURSTATE=<path> -DTIMELINE_LINT=<path> -DWORK_DIR=<dir>
#         -P timeline_lint_test.cmake

foreach(var YOURSTATE TIMELINE_LINT WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "timeline_lint_test: missing -D${var}")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# --- 1. fleet smoke run with timeline + metrics exports --------------------
set(fleet_spec "clients=8;flows=80;servers=4;vantages=2;arrival=20;churn=0.05;soak=2s:rst-storm,4s:none")
set(fleet_tl "${WORK_DIR}/fleet.timeline.json")
set(fleet_csv "${WORK_DIR}/fleet.timeline.csv")
set(fleet_metrics "${WORK_DIR}/fleet.metrics.json")
execute_process(
  COMMAND "${YOURSTATE}" fleet "--fleet=${fleet_spec}" --jobs=2
          "--timeline-out=${fleet_tl}" "--timeline-csv=${fleet_csv}"
          "--metrics-out=${fleet_metrics}"
  RESULT_VARIABLE fleet_rc
  OUTPUT_VARIABLE fleet_out
  ERROR_VARIABLE fleet_err)
if(NOT fleet_rc EQUAL 0)
  message(FATAL_ERROR "yourstate fleet failed (${fleet_rc}):\n"
                      "${fleet_out}\n${fleet_err}")
endif()
foreach(artifact "${fleet_tl}" "${fleet_csv}" "${fleet_metrics}")
  if(NOT EXISTS "${artifact}")
    message(FATAL_ERROR "yourstate fleet did not write ${artifact}")
  endif()
endforeach()

execute_process(
  COMMAND "${TIMELINE_LINT}" "${fleet_tl}"
  RESULT_VARIABLE lint_rc
  OUTPUT_VARIABLE lint_out
  ERROR_VARIABLE lint_err)
if(NOT lint_rc EQUAL 0)
  message(FATAL_ERROR "timeline_lint rejected fleet timeline:\n"
                      "${lint_out}\n${lint_err}")
endif()
message(STATUS "${lint_out}")

# --- 2. render the dashboard; cross-check totals; lint the manifest --------
set(report_html "${WORK_DIR}/fleet.report.html")
execute_process(
  COMMAND "${YOURSTATE}" report "${fleet_tl}" "--out=${report_html}"
          "--metrics=${fleet_metrics}" "--fleet=${fleet_spec}"
  RESULT_VARIABLE report_rc
  OUTPUT_VARIABLE report_out
  ERROR_VARIABLE report_err)
if(NOT report_rc EQUAL 0)
  message(FATAL_ERROR "yourstate report failed (${report_rc}):\n"
                      "${report_out}\n${report_err}")
endif()
if(NOT "${report_out}" MATCHES "timeline totals match")
  message(FATAL_ERROR "report did not confirm the metrics cross-check:\n"
                      "${report_out}")
endif()

execute_process(
  COMMAND "${TIMELINE_LINT}" "--html=${report_html}" "${fleet_tl}"
  RESULT_VARIABLE lint_rc
  OUTPUT_VARIABLE lint_out
  ERROR_VARIABLE lint_err)
if(NOT lint_rc EQUAL 0)
  message(FATAL_ERROR "timeline_lint rejected the HTML report:\n"
                      "${lint_out}\n${lint_err}")
endif()
message(STATUS "${lint_out}")

execute_process(
  COMMAND "${YOURSTATE}" report "${fleet_tl}" "--out=/dev/full"
  RESULT_VARIABLE full_rc
  OUTPUT_VARIABLE full_out
  ERROR_VARIABLE full_err)
if(full_rc EQUAL 0)
  message(FATAL_ERROR "yourstate report claimed success writing to /dev/full:\n"
                      "${full_out}\n${full_err}")
endif()
message(STATUS "report --out=/dev/full exit ${full_rc}: ${full_err}")

# --- 3. search smoke run with timeline + metrics exports -------------------
set(search_tl "${WORK_DIR}/search.timeline.json")
set(search_metrics "${WORK_DIR}/search.metrics.json")
execute_process(
  COMMAND "${YOURSTATE}" search --population=4 --generations=2 --servers=2
          --trials=1 --faulted-trials=1 --coevo-rounds=0 --seed=7
          "--timeline-out=${search_tl}" "--metrics-out=${search_metrics}"
  RESULT_VARIABLE search_rc
  OUTPUT_VARIABLE search_out
  ERROR_VARIABLE search_err)
if(NOT search_rc EQUAL 0)
  message(FATAL_ERROR "yourstate search failed (${search_rc}):\n"
                      "${search_out}\n${search_err}")
endif()
if(NOT EXISTS "${search_metrics}")
  message(FATAL_ERROR "yourstate search did not write --metrics-out")
endif()

execute_process(
  COMMAND "${TIMELINE_LINT}" "${search_tl}"
  RESULT_VARIABLE lint_rc
  OUTPUT_VARIABLE lint_out
  ERROR_VARIABLE lint_err)
if(NOT lint_rc EQUAL 0)
  message(FATAL_ERROR "timeline_lint rejected search timeline:\n"
                      "${lint_out}\n${lint_err}")
endif()
message(STATUS "${lint_out}")
