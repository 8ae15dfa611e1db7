# Runs `${CBSIM} ${ARGS}` and fails unless it exits with ${EXPECT}.  ARGS
# is |-separated (a CMake list cannot pass through add_test intact).  When
# STDERR is set, cbsim's stderr must contain that text too.
#
#   cmake -DCBSIM=build/src/cbsim "-DARGS=mc|--max-schedules|abc" \
#         -DEXPECT=2 -DSTDERR=--max-schedules -P tests/cli/expect_exit.cmake
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND ${CBSIM} ${args} RESULT_VARIABLE rc
                ERROR_VARIABLE err)
if(NOT rc STREQUAL EXPECT)
  message(FATAL_ERROR "cbsim ${args}: exit ${rc}, expected ${EXPECT}\n${err}")
endif()
if(DEFINED STDERR)
  string(FIND "${err}" "${STDERR}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "cbsim ${args}: stderr lacks '${STDERR}':\n${err}")
  endif()
endif()
