# Runs EXE with the space-separated ARGS and fails unless it exits with
# the usage status 2 and prints a line matching EXPECT on stderr.
#
#   cmake -DEXE=path/to/saclo-serve "-DARGS=--backend opencl" \
#         "-DEXPECT=unknown execution backend" -P expect_usage_error.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status STREQUAL "2")
  message(FATAL_ERROR "expected exit status 2, got '${status}'\nstderr:\n${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "stderr does not match '${EXPECT}':\n${err}")
endif()
