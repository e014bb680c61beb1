# Runs COMMAND with ARGS (split at spaces; may be empty) and fails unless it
# exits with EXPECTED:
#   cmake -DCOMMAND=<exe> "-DARGS=<arg> ..." -DEXPECTED=<code> -P expect_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${COMMAND} ${args}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status STREQUAL "${EXPECTED}")
  message(FATAL_ERROR
    "${COMMAND} ${ARGS}: exit ${status}, expected ${EXPECTED}\n${out}${err}")
endif()
message(STATUS "${COMMAND} ${ARGS}: exit ${status}\n${err}")
