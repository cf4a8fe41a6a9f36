# Runs BENCH with `FLAG VALUE` and fails unless the bench rejects the flag:
# exit status 2 and an "error:" line on stderr that names FLAG (and, when
# EXPECT is given, contains that text too). A crash (an uncaught exception
# ends in SIGABRT) or a run that accepts the value fails the test.
#
#   cmake -DBENCH=path/to/bench -DFLAG=--mtu -DVALUE=512 -P expect_flag_error.cmake
execute_process(
  COMMAND "${BENCH}" "${FLAG}" "${VALUE}"
  RESULT_VARIABLE rc
  OUTPUT_QUIET
  ERROR_VARIABLE err
  TIMEOUT 60)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "${FLAG} ${VALUE}: expected exit status 2, got '${rc}'\n${err}")
endif()
string(FIND "${err}" "error: " at_error)
string(FIND "${err}" "${FLAG}" at_flag)
if(at_error EQUAL -1 OR at_flag EQUAL -1)
  message(FATAL_ERROR "${FLAG} ${VALUE}: stderr lacks an 'error:' line naming the flag:\n${err}")
endif()
if(DEFINED EXPECT)
  string(FIND "${err}" "${EXPECT}" at_expect)
  if(at_expect EQUAL -1)
    message(FATAL_ERROR "${FLAG} ${VALUE}: stderr lacks '${EXPECT}':\n${err}")
  endif()
endif()
