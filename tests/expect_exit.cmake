# Runs BIN with the space-separated ARGS and fails unless it exits with
# EXPECTED. Usage:
#   cmake -DBIN=<exe> "-DARGS=<args>" -DEXPECTED=<code> -P expect_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BIN}" ${args} RESULT_VARIABLE result)
if(NOT result STREQUAL EXPECTED)
  message(FATAL_ERROR "${BIN} ${ARGS}: exit ${result}, expected ${EXPECTED}")
endif()
