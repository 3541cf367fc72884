# Run one command-line tool invocation and check its exit status and
# output, as a ctest script:
#
#   cmake "-DCOMMAND=tool;--flag;value" -DEXPECT_EXIT=nonzero
#         "-DEXPECT_OUTPUT=regex" [-DOUTPUT_FILE=path
#         "-DEXPECT_FILE=regex"] -P cli_check.cmake
#
# EXPECT_EXIT is 0 (success required) or nonzero (a clean failure: any
# exit status other than 0, but not death by a signal). EXPECT_OUTPUT
# must match stdout+stderr; EXPECT_FILE must match the contents of
# OUTPUT_FILE, which the command is expected to write.

foreach(var COMMAND EXPECT_EXIT EXPECT_OUTPUT)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "cli_check: ${var} not set")
    endif()
endforeach()

if(DEFINED OUTPUT_FILE)
    file(REMOVE "${OUTPUT_FILE}")
endif()
execute_process(COMMAND ${COMMAND}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE out)
string(REPLACE ";" " " shown "${COMMAND}")

# A signal shows up as a non-numeric result ("Floating point
# exception", "Child aborted", ...), never as a clean exit status.
if(NOT rc MATCHES "^[0-9]+$")
    message(FATAL_ERROR "'${shown}' died: ${rc}\n${out}")
endif()
if(EXPECT_EXIT STREQUAL "nonzero")
    if(rc EQUAL 0)
        message(FATAL_ERROR "'${shown}' exited 0, expected failure\n${out}")
    endif()
elseif(NOT rc EQUAL EXPECT_EXIT)
    message(FATAL_ERROR
            "'${shown}' exited ${rc}, expected ${EXPECT_EXIT}\n${out}")
endif()
if(NOT out MATCHES "${EXPECT_OUTPUT}")
    message(FATAL_ERROR
            "'${shown}' output lacks /${EXPECT_OUTPUT}/:\n${out}")
endif()
if(DEFINED OUTPUT_FILE)
    if(NOT EXISTS "${OUTPUT_FILE}")
        message(FATAL_ERROR "'${shown}' did not write ${OUTPUT_FILE}")
    endif()
    file(READ "${OUTPUT_FILE}" contents)
    if(NOT contents MATCHES "${EXPECT_FILE}")
        message(FATAL_ERROR
                "${OUTPUT_FILE} lacks /${EXPECT_FILE}/:\n${contents}")
    endif()
endif()
