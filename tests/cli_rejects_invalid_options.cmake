# Runs `mercurialctl` on option values no study can hold and fails unless each invocation exits
# 1 with an INVALID_ARGUMENT status: a bad value must be refused, never run to a meaningless
# report, abort on a CHECK, or hang on a wrapped size.
#   cmake -DMERCURIALCTL=path/to/mercurialctl -P cli_rejects_invalid_options.cmake
foreach(invocation
        "study --machines=0"
        "study --machines=-1"
        "study --days=-5"
        "study --work-units=-1"
        "study --audit-lookback-days=nan"
        "trace --machines=0"
        "trace --ring-capacity=-1"
        # `trace` shares these flags with `study` and their range checks: an int that would
        # wrap to a valid value, and a day count whose seconds overflow int64.
        "trace --machines=20 --days=20 --shards=4294967297"
        "trace --machines=20 --days=20 --shards=4294967296"
        "trace --machines=20 --days=20 --threads=4294967297"
        "trace --days=-106751991167301")
  separate_arguments(args UNIX_COMMAND "${invocation}")
  execute_process(
      COMMAND ${MERCURIALCTL} ${args}
      OUTPUT_QUIET
      ERROR_VARIABLE err
      RESULT_VARIABLE status
      TIMEOUT 30)
  if(NOT status EQUAL 1)
    message(FATAL_ERROR "mercurialctl ${invocation} exited with '${status}', expected 1\n${err}")
  endif()
  if(NOT err MATCHES "INVALID_ARGUMENT")
    message(FATAL_ERROR "mercurialctl ${invocation} did not report INVALID_ARGUMENT:\n${err}")
  endif()
endforeach()
