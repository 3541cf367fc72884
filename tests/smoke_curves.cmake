# Curves smoke, as a ctest script: the cache-behavior observatory end
# to end. A profiled run's one-pass miss-ratio curves are re-checked
# against brute-force LRU replay of the retained access streams
# (--validate exits 1 on any mismatch), the curves document and SVG
# are checked, and the off-by-default contract is held: two
# unprofiled runs and one reuse-profiled run of the same point agree
# exactly outside "manifest" and the "curves" section.
#
#   cmake -DCURVES=cachecraft_curves -DSIM=cachecraft_sim
#         -DWORK_DIR=dir -P smoke_curves.cmake
#
# WORK_DIR keeps curves.json, curves.svg and the three run reports for
# inspection.

foreach(var CURVES SIM WORK_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "smoke_curves: ${var} not set")
    endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

execute_process(
    COMMAND "${CURVES}" --workload gemm --scheme cachecraft
            --footprint-mib 2 --warps 64 --max-assoc 32 --validate
            --json "${WORK_DIR}/curves.json" --svg "${WORK_DIR}/curves.svg"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE out)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "cachecraft_curves --validate exited ${rc}:\n${out}")
endif()

file(READ "${WORK_DIR}/curves.json" doc)
string(JSON schema GET "${doc}" schema)
if(NOT schema STREQUAL "cachecraft.curves/1")
    message(FATAL_ERROR "curves schema is \"${schema}\"")
endif()

# Every cache's curve is monotone non-increasing; at least one MRC and
# one L2 slice are profiled.
string(JSON caches GET "${doc}" curves caches)
string(JSON num_caches LENGTH "${caches}")
if(num_caches EQUAL 0)
    message(FATAL_ERROR "the curves document lists no caches")
endif()
set(kinds_seen "")
math(EXPR last_cache "${num_caches} - 1")
foreach(i RANGE ${last_cache})
    string(JSON cache GET "${caches}" ${i})
    string(JSON name GET "${cache}" name)
    string(JSON kind GET "${cache}" kind)
    list(APPEND kinds_seen "${kind}")
    string(JSON curve GET "${cache}" curve)
    string(JSON num_points LENGTH "${curve}")
    set(previous "")
    if(num_points GREATER 0)
        math(EXPR last_point "${num_points} - 1")
        foreach(j RANGE ${last_point})
            string(JSON ratio GET "${curve}" ${j} miss_ratio)
            if(NOT previous STREQUAL "" AND ratio GREATER previous)
                message(FATAL_ERROR "${name}: curve not monotone "
                        "(point ${j}: ${ratio} > ${previous})")
            endif()
            set(previous "${ratio}")
        endforeach()
    endif()
endforeach()
foreach(kind mrc l2)
    list(FIND kinds_seen "${kind}" at)
    if(at EQUAL -1)
        message(FATAL_ERROR "no ${kind} cache among [${kinds_seen}]")
    endif()
endforeach()
string(JSON num_kinds LENGTH "${doc}" curves kinds)
if(num_kinds EQUAL 0)
    message(FATAL_ERROR "no per-kind aggregation")
endif()

file(READ "${WORK_DIR}/curves.svg" svg)
string(FIND "${svg}" "<svg" at)
if(at EQUAL -1)
    message(FATAL_ERROR "empty SVG")
endif()

# Reports are untouched with profiling off. "manifest" holds the
# host-varying provenance (wall time, throughput), so it is dropped
# before comparing; string(JSON) re-serializes both sides the same way.
foreach(run off_a off_b profiled)
    set(extra "")
    if(run STREQUAL "profiled")
        set(extra --reuse-profile)
    endif()
    execute_process(
        COMMAND "${SIM}" --workload gemm --scheme cachecraft ${extra}
                --report-json "${WORK_DIR}/${run}.json" --quiet
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE out)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "cachecraft_sim (${run}) exited ${rc}:\n${out}")
    endif()
    file(READ "${WORK_DIR}/${run}.json" text)
    string(JSON ${run} REMOVE "${text}" manifest)
endforeach()
if(NOT off_a STREQUAL off_b)
    message(FATAL_ERROR "unprofiled runs are not deterministic")
endif()
string(JSON curves_type ERROR_VARIABLE missing TYPE "${off_a}" curves)
if(missing STREQUAL "NOTFOUND")
    message(FATAL_ERROR "curves leaked into the unprofiled run")
endif()
string(JSON curves_type ERROR_VARIABLE missing TYPE "${profiled}" curves)
if(NOT missing STREQUAL "NOTFOUND")
    message(FATAL_ERROR "the profiled run has no curves section")
endif()
string(JSON profiled REMOVE "${profiled}" curves)
if(NOT off_a STREQUAL profiled)
    message(FATAL_ERROR "profiling perturbed the report")
endif()
