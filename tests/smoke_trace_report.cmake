# Telemetry smoke, as a ctest script: a traced gemm run must write a
# non-empty lifecycle trace that names every lifecycle stage, a
# cachecraft.run_report/1 report with sampled epochs, and a non-empty
# epoch CSV.
#
#   cmake -DSIM=cachecraft_sim -DWORK_DIR=dir -P smoke_trace_report.cmake
#
# The flight window is kept at 65536 records: the trace JSON stays a
# few MB, and the run exercises the ring wrapping under the stage
# histograms.

foreach(var SIM WORK_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "smoke_trace_report: ${var} not set")
    endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
execute_process(
    COMMAND "${SIM}" --workload gemm --scheme cachecraft
            --sample-interval 10000 --flight-capacity 65536
            --trace-json "${WORK_DIR}/trace.json"
            --report-json "${WORK_DIR}/report.json"
            --epochs-csv "${WORK_DIR}/epochs.csv" --quiet
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE out)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "cachecraft_sim failed (${rc}):\n${out}")
endif()

file(READ "${WORK_DIR}/trace.json" trace)
string(JSON events LENGTH "${trace}" traceEvents)
if(events EQUAL 0)
    message(FATAL_ERROR "empty trace")
endif()
foreach(stage coalesce mem_inst l2.read mrc.probe dram.data.read
              dram.ecc.read dram.service decode)
    string(FIND "${trace}" "\"name\":\"${stage}\"" at)
    if(at EQUAL -1)
        message(FATAL_ERROR "trace has no \"${stage}\" event")
    endif()
endforeach()

file(READ "${WORK_DIR}/report.json" report)
string(JSON schema GET "${report}" schema)
if(NOT schema STREQUAL "cachecraft.run_report/1")
    message(FATAL_ERROR "report schema is '${schema}'")
endif()
string(JSON epochs LENGTH "${report}" epochs)
if(epochs EQUAL 0)
    message(FATAL_ERROR "no sampled epochs")
endif()

file(STRINGS "${WORK_DIR}/epochs.csv" rows)
list(LENGTH rows row_count)
if(row_count LESS_EQUAL 1)
    message(FATAL_ERROR "empty epoch CSV")
endif()
