# Strict CLI check: each bad argument list must be refused with usage
# text and exit code 2.
#
#   cmake -DEXE=<exe> [-DBAD_ARGS=<list>] -P strict_cli.cmake
#
# BAD_ARGS holds one command line per entry, entries separated by '|'
# (a ';' would split inside add_test). The default suits every bench: a
# misspelled flag and a space-separated value.
if(NOT DEFINED BAD_ARGS)
  set(BAD_ARGS "--fsat|--seed 3")
endif()
string(REPLACE "|" ";" bad_lines "${BAD_ARGS}")
foreach(bad IN LISTS bad_lines)
  separate_arguments(bad_args UNIX_COMMAND "${bad}")
  execute_process(
    COMMAND "${EXE}" ${bad_args}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
  if(NOT rc EQUAL 2 OR NOT out MATCHES "usage:")
    message(FATAL_ERROR "strict_cli: '${bad}' exited ${rc}, want 2:\n${out}")
  endif()
endforeach()
