# Runs a bench with flags it must reject and checks how it fails: exit code
# 1, MESSAGE (a literal substring) on stderr, and nothing on stdout. Every
# bench prints its header to stdout before it builds a dataset, so an empty
# stdout means the flags were rejected before any dataset work.
#
#   cmake -DBENCH=<bench binary> -DMESSAGE=<text> -P expect_rejection.cmake \
#         -- <bench flags...>
set(flags "")
set(after_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_separator)
    list(APPEND flags "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(after_separator TRUE)
  endif()
endforeach()

execute_process(COMMAND "${BENCH}" ${flags}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                TIMEOUT 30)
string(FIND "${err}" "${MESSAGE}" at)
if(NOT code STREQUAL "1" OR at EQUAL -1 OR NOT out STREQUAL "")
  message(FATAL_ERROR
          "${BENCH} ${flags}: want exit 1, '${MESSAGE}' on stderr and no "
          "stdout; got exit '${code}'\nstdout:\n${out}\nstderr:\n${err}")
endif()
