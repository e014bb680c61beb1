# Runs COMMAND with one ARGUMENT and fails unless it exits with EXPECTED:
#   cmake -DCOMMAND=<exe> -DARGUMENT=<arg> -DEXPECTED=<code> -P expect_exit.cmake
execute_process(COMMAND ${COMMAND} ${ARGUMENT}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status STREQUAL "${EXPECTED}")
  message(FATAL_ERROR
    "${COMMAND} ${ARGUMENT}: exit ${status}, expected ${EXPECTED}\n${out}${err}")
endif()
message(STATUS "${COMMAND} ${ARGUMENT}: exit ${status}\n${err}")
