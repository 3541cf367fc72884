# Campaign smoke, as a ctest script: run the ci_smoke campaign at
# --jobs 2 and --jobs 1, check that the per-point reports do not
# depend on the job count, render the dashboard, and check that the
# two deliberately bogus points are contained: recorded as failed in
# the manifest and shown in the dashboard's warnings panel.
#
#   cmake -DSWEEP=cachecraft_sweep -DDIFF=cachecraft_diff
#         -DDASHBOARD=cachecraft_dashboard -DSPEC=ci_smoke.json
#         -DWORK_DIR=dir -P smoke_campaign.cmake
#
# WORK_DIR keeps campaign_j1/, campaign_j2/ and campaign_dashboard.html
# for inspection (CI compares further shard counts against
# campaign_j1 and uploads the rest).

foreach(var SWEEP DIFF DASHBOARD SPEC WORK_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "smoke_campaign: ${var} not set")
    endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# The bogus-scheme points make both runs exit 1 ("some points
# failed"): that is the containment behavior under test.
foreach(jobs 2 1)
    execute_process(
        COMMAND "${SWEEP}" "${SPEC}" --out "${WORK_DIR}/campaign_j${jobs}"
                --jobs ${jobs} --quiet
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE out)
    if(NOT rc EQUAL 1)
        message(FATAL_ERROR
                "cachecraft_sweep --jobs ${jobs} exited ${rc}, expected 1:"
                "\n${out}")
    endif()
endforeach()

# Per-point reports are byte-identical for any --jobs.
file(GLOB j1_reports RELATIVE "${WORK_DIR}/campaign_j1/reports"
     "${WORK_DIR}/campaign_j1/reports/*.json")
file(GLOB j2_reports RELATIVE "${WORK_DIR}/campaign_j2/reports"
     "${WORK_DIR}/campaign_j2/reports/*.json")
list(SORT j1_reports)
list(SORT j2_reports)
if(NOT j1_reports STREQUAL j2_reports OR j1_reports STREQUAL "")
    message(FATAL_ERROR
            "report sets differ: j1 [${j1_reports}] j2 [${j2_reports}]")
endif()
foreach(report IN LISTS j1_reports)
    file(SHA256 "${WORK_DIR}/campaign_j1/reports/${report}" j1_hash)
    file(SHA256 "${WORK_DIR}/campaign_j2/reports/${report}" j2_hash)
    if(NOT j1_hash STREQUAL j2_hash)
        message(FATAL_ERROR "${report} differs between --jobs 1 and 2")
    endif()
endforeach()

# The manifests differ only under "manifest.", which cachecraft_diff
# drops by default.
execute_process(
    COMMAND "${DIFF}" "${WORK_DIR}/campaign_j1" "${WORK_DIR}/campaign_j2"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE out)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "cachecraft_diff j1 j2 exited ${rc}:\n${out}")
endif()

set(html_path "${WORK_DIR}/campaign_dashboard.html")
execute_process(
    COMMAND "${DASHBOARD}" "${WORK_DIR}/campaign_j2" --out "${html_path}"
            --title "CI smoke campaign"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE out)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "cachecraft_dashboard exited ${rc}:\n${out}")
endif()
file(READ "${html_path}" html)
string(FIND "${html}" "<script" at)
if(NOT at EQUAL -1)
    message(FATAL_ERROR "the dashboard must ship no JS")
endif()
string(FIND "${html}" "Headline speedup" at)
if(at EQUAL -1)
    message(FATAL_ERROR "the dashboard lacks \"Headline speedup\"")
endif()

file(READ "${WORK_DIR}/campaign_j2/campaign_manifest.json" manifest)
string(JSON failed_points GET "${manifest}" failed_points)
if(NOT failed_points EQUAL 2)
    message(FATAL_ERROR "failed_points is ${failed_points}, expected 2")
endif()
string(JSON count LENGTH "${manifest}" points)
set(failed "")
math(EXPR last "${count} - 1")
foreach(i RANGE ${last})
    string(JSON status GET "${manifest}" points ${i} status)
    if(NOT status STREQUAL "ok")
        string(JSON label GET "${manifest}" points ${i} label)
        list(APPEND failed "${label}")
    endif()
endforeach()
if(NOT failed STREQUAL "p002_streaming_bogus;p005_random_bogus")
    message(FATAL_ERROR "failed points are [${failed}]")
endif()
foreach(label IN LISTS failed)
    string(FIND "${html}" "${label}" at)
    if(at EQUAL -1)
        message(FATAL_ERROR "${label} missing from the warnings panel")
    endif()
endforeach()
