# Strict bench CLI check: a misspelled flag and a space-separated value
# must each be refused with usage text and exit code 2.
#
#   cmake -DBENCH=<bench exe> -P strict_cli.cmake
foreach(bad "--fsat" "--seed 3")
  separate_arguments(bad_args UNIX_COMMAND "${bad}")
  execute_process(
    COMMAND "${BENCH}" ${bad_args}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
  if(NOT rc EQUAL 2 OR NOT out MATCHES "usage:")
    message(FATAL_ERROR "strict_cli: '${bad}' exited ${rc}, want 2:\n${out}")
  endif()
endforeach()
