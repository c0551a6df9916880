# Golden-output check for one paper bench.
#
# Invoked by ctest as:
#   cmake -DBENCH=<bench exe> -DNAME=<csv name> -DGOLDEN=<committed csv>
#         -DWORK_DIR=<work dir> -P goldens.cmake
#
# Runs the bench at its default flags (only --out redirects the CSV into
# WORK_DIR) and byte-compares the CSV with the committed golden under
# bench/out/. On a mismatch it names the first differing line, so a
# change that moves a simulated figure fails loudly and says where.

cmake_policy(SET CMP0007 NEW)  # keep empty lines when splitting into lists

foreach(var BENCH NAME GOLDEN WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "goldens: ${var} is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

execute_process(
  COMMAND "${BENCH}" --out=${WORK_DIR}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "goldens: ${NAME} bench failed (${rc}):\n${out}")
endif()

set(produced "${WORK_DIR}/${NAME}.csv")
if(NOT EXISTS "${produced}")
  message(FATAL_ERROR "goldens: ${NAME} wrote no ${NAME}.csv")
endif()

file(READ "${GOLDEN}" want)
file(READ "${produced}" got)
if(want STREQUAL got)
  message(STATUS "goldens: ${NAME}.csv byte-identical")
  return()
endif()

# Locate the first differing line (1-based) for the report.
string(REPLACE ";" "\\;" want "${want}")
string(REPLACE ";" "\\;" got "${got}")
string(REPLACE "\n" ";" want_lines "${want}")
string(REPLACE "\n" ";" got_lines "${got}")
list(LENGTH want_lines n_want)
list(LENGTH got_lines n_got)
set(line 0)
while(line LESS n_want AND line LESS n_got)
  list(GET want_lines ${line} w)
  list(GET got_lines ${line} g)
  if(NOT w STREQUAL g)
    break()
  endif()
  math(EXPR line "${line} + 1")
endwhile()
math(EXPR shown "${line} + 1")
set(w "<end of file>")
set(g "<end of file>")
if(line LESS n_want)
  list(GET want_lines ${line} w)
endif()
if(line LESS n_got)
  list(GET got_lines ${line} g)
endif()
message(FATAL_ERROR
  "goldens: ${NAME}.csv differs from bench/out/${NAME}.csv at line ${shown}\n"
  "  golden:   ${w}\n"
  "  produced: ${g}")
