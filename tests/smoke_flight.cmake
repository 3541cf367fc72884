# Flight smoke, as a ctest script: record a gemm flight, analyze it
# with cachecraft_trace, and check the breakdown and Chrome export.
#
#   cmake -DSIM=cachecraft_sim -DTRACE=cachecraft_trace -DWORK_DIR=dir
#         -P smoke_flight.cmake

foreach(var SIM TRACE WORK_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "smoke_flight: ${var} not set")
    endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
execute_process(
    COMMAND "${SIM}" --workload gemm --scheme cachecraft
            --flight-record "${WORK_DIR}/flight.bin"
            --flight-capacity 4194304 --quiet
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE out)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "cachecraft_sim failed (${rc}):\n${out}")
endif()
execute_process(
    COMMAND "${TRACE}" "${WORK_DIR}/flight.bin"
            --json "${WORK_DIR}/breakdown.json"
            --chrome "${WORK_DIR}/chrome_trace.json"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE out)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "cachecraft_trace failed (${rc}):\n${out}")
endif()

file(READ "${WORK_DIR}/breakdown.json" bd)
string(JSON schema GET "${bd}" schema)
if(NOT schema STREQUAL "cachecraft.trace_analysis/1")
    message(FATAL_ERROR "breakdown schema is '${schema}'")
endif()
string(JSON requests GET "${bd}" requests)
if(NOT requests GREATER 0)
    message(FATAL_ERROR "no completed requests traced")
endif()
string(JSON dropped GET "${bd}" dropped_records)
if(NOT dropped EQUAL 0)
    message(FATAL_ERROR "ring overflowed: ${dropped} records dropped")
endif()

# The attribution contract: every critical-path cycle is claimed by
# exactly one segment, so the per-segment sum equals the end-to-end
# latency total.
string(JSON segments LENGTH "${bd}" critical_path)
set(sum 0)
math(EXPR last "${segments} - 1")
foreach(i RANGE ${last})
    string(JSON segment MEMBER "${bd}" critical_path ${i})
    string(JSON cycles GET "${bd}" critical_path ${segment})
    math(EXPR sum "${sum} + ${cycles}")
endforeach()
string(JSON total GET "${bd}" total_latency_cycles)
if(NOT sum EQUAL total)
    message(FATAL_ERROR
            "segments sum to ${sum}, total latency is ${total}")
endif()
string(JSON slowest LENGTH "${bd}" slowest)
if(slowest EQUAL 0)
    message(FATAL_ERROR "no slowest-request detail")
endif()

file(READ "${WORK_DIR}/chrome_trace.json" chrome)
string(JSON events LENGTH "${chrome}" traceEvents)
if(events EQUAL 0)
    message(FATAL_ERROR "empty Chrome export")
endif()
