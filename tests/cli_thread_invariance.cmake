# Runs one `mercurialctl study` at --threads=1 and at --threads=2 (same default --shards) and
# fails unless the two reports are byte-identical: results depend on shards, never threads.
#   cmake -DMERCURIALCTL=path/to/mercurialctl -P cli_thread_invariance.cmake
foreach(threads 1 2)
  execute_process(
      COMMAND ${MERCURIALCTL} study --machines=60 --days=60 --multiplier=80 --threads=${threads}
      OUTPUT_VARIABLE report_${threads}
      RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "mercurialctl study --threads=${threads} exited with ${status}")
  endif()
endforeach()
if(NOT report_1 STREQUAL report_2)
  message(FATAL_ERROR "study report differs between --threads=1 and --threads=2:\n"
                      "--- threads=1\n${report_1}\n--- threads=2\n${report_2}")
endif()
