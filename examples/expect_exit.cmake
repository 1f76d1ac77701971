# ctest helper: run EXE with ARG and require exit status EXPECT plus a
# single stderr line mentioning FLAG (a flag name, or any fragment of
# the expected message). A crash or abort fails: CMake then
# reports a signal description instead of a number.
#
#   cmake -DEXE=<binary> -DARG=<argument> -DEXPECT=2 -DFLAG=<--flag>
#         -P expect_exit.cmake
execute_process(COMMAND "${EXE}" "${ARG}"
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXPECT}")
  message(FATAL_ERROR "exit status '${rc}', expected ${EXPECT}\n${err}")
endif()
string(FIND "${err}" "${FLAG}" at)
string(REGEX MATCHALL "\n" newlines "${err}")
list(LENGTH newlines lines)
if(at EQUAL -1 OR NOT lines EQUAL 1)
  message(FATAL_ERROR "expected one stderr line naming ${FLAG}, got:\n${err}")
endif()
