# The CI perf gate, as a ctest script: this build's perf_smoke
# counters must equal the committed BENCH_baseline.json.
#
#   cmake -DSMOKE_TOOL=perf_smoke -DDIFF_TOOL=cachecraft_diff
#         -DBASELINE=BENCH_baseline.json -DWORK_DIR=dir
#         -P perf_baseline_check.cmake
#
# WORK_DIR keeps perf_smoke.json, the run's metrics (CI uploads it).

foreach(var SMOKE_TOOL DIFF_TOOL BASELINE WORK_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "perf_baseline_check: ${var} not set")
    endif()
endforeach()

file(MAKE_DIRECTORY "${WORK_DIR}")
set(run "${WORK_DIR}/perf_smoke.json")
execute_process(COMMAND "${SMOKE_TOOL}" --out "${run}"
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE out)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "perf_smoke failed (${rc}):\n${out}")
endif()

execute_process(COMMAND "${DIFF_TOOL}" "${BASELINE}" "${run}" --all
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE out)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "perf_smoke drifted from ${BASELINE} (cachecraft_diff exited "
            "${rc}):\n${out}")
endif()
