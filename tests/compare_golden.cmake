# Runs BENCH with ARGS (one space-separated string) and fails unless its
# stdout equals GOLDEN byte for byte; the output is kept in OUT for a diff.
#
#   cmake -DBENCH=path/to/bench "-DARGS=--quick --jobs 2" -DGOLDEN=file
#         -DOUT=file -P compare_golden.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND "${BENCH}" ${args}
  OUTPUT_FILE "${OUT}"
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "${BENCH} ${ARGS}: exit status '${rc}'\n${err}")
endif()
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files "${GOLDEN}" "${OUT}"
  RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "${BENCH} ${ARGS}: output differs from the golden; "
                      "run diff -u ${GOLDEN} ${OUT}")
endif()
