# The paper's claims, as a ctest script: sweep the four experiment
# specs into one report root and run paper_claims over it. Then pin
# the checker's other exit codes: a tree missing points exits 2, and
# one perturbed report breaks a claim (exit 1, the claim named).
#
#   cmake -DSWEEP=cachecraft_sweep -DCLAIMS=paper_claims
#         -DSPEC_DIR=bench/campaigns -DWORK_DIR=dir -P claims_check.cmake
#
# WORK_DIR keeps one cachecraft_sweep tree per spec for inspection.

foreach(var SWEEP CLAIMS SPEC_DIR WORK_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "claims_check: ${var} not set")
    endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
foreach(spec e1_headline e5_mrc e5_l2 e6_ablation)
    execute_process(
        COMMAND "${SWEEP}" "${SPEC_DIR}/${spec}.json"
                --out "${WORK_DIR}/${spec}" --jobs 4 --quiet
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE out)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "cachecraft_sweep ${spec} exited ${rc}:\n${out}")
    endif()
endforeach()

execute_process(COMMAND "${CLAIMS}" "${WORK_DIR}"
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE out)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "paper_claims exited ${rc}, expected 0:\n${out}")
endif()
string(FIND "${out}" "== Claims ==" at)
string(SUBSTRING "${out}" ${at} -1 verdicts)
message(STATUS "${verdicts}")

# The E1 tree alone lacks the E4-E6 points.
execute_process(COMMAND "${CLAIMS}" "${WORK_DIR}/e1_headline"
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE out)
if(NOT rc EQUAL 2 OR NOT out MATCHES "no run report for e[0-9]+_")
    message(FATAL_ERROR
            "paper_claims on a partial tree exited ${rc}, expected 2 "
            "naming the missing point:\n${out}")
endif()

# Make CacheCraft slower than ECC-cache on strided: E1's ordering
# claim must fail by name. The report is restored afterwards.
file(GLOB report "${WORK_DIR}/e1_headline/reports/*_strided_cachecraft.json")
file(READ "${report}" original)
string(REGEX MATCH "\"cycles\":[0-9]+" cycles "${original}")
if(NOT cycles)
    message(FATAL_ERROR "no cycles result in ${report}")
endif()
string(REPLACE "${cycles}" "\"cycles\":999999999" perturbed "${original}")
file(WRITE "${report}" "${perturbed}")
execute_process(COMMAND "${CLAIMS}" "${WORK_DIR}"
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE out)
file(WRITE "${report}" "${original}")
if(NOT rc EQUAL 1 OR NOT out MATCHES "FAIL  E1: cycles [^\n]*: strided[ \n]")
    message(FATAL_ERROR
            "paper_claims on a perturbed report exited ${rc}, expected 1 "
            "naming the E1 ordering claim on strided:\n${out}")
endif()
