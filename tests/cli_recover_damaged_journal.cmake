# Damages a journal written by `mercurialctl study --journal` and checks how `recover` treats it:
#   * the journal clipped by a few bytes has a torn tail: recover trusts the durable prefix,
#     prints the `untrusted tail` line, verifies the prefix against a re-run and exits 0;
#   * a file that is not a journal at all is refused: exit 1 with DATA_LOSS.
#   cmake -DMERCURIALCTL=path/to/mercurialctl -DWORK_DIR=dir/for/journals \
#         -P cli_recover_damaged_journal.cmake
file(MAKE_DIRECTORY ${WORK_DIR})
set(journal ${WORK_DIR}/whole.journal)
set(clipped ${WORK_DIR}/clipped.journal)
set(garbage ${WORK_DIR}/garbage.journal)

execute_process(
    COMMAND ${MERCURIALCTL} study --machines=40 --days=40 --multiplier=300 --audit --trace
            --journal=${journal} --chaos-controller-crash-every=5
    OUTPUT_QUIET
    RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "mercurialctl study --journal exited with '${status}'")
endif()

# CMake strings cannot hold NUL bytes, so the binary copy is clipped by `head -c`.
file(SIZE ${journal} size)
math(EXPR keep "${size} - 3")
execute_process(COMMAND head -c ${keep} ${journal} OUTPUT_FILE ${clipped} RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "could not clip ${journal}")
endif()
execute_process(
    COMMAND ${MERCURIALCTL} recover --journal=${clipped}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR
          "recover of a clipped journal exited with '${status}', expected 0\n${out}${err}")
endif()
if(NOT out MATCHES "untrusted tail +[0-9]+ bytes rejected \\(torn tail\\)")
  message(FATAL_ERROR "recover of a clipped journal printed no untrusted-tail line:\n${out}")
endif()

file(WRITE ${garbage} "this file is not a mercurial journal\n")
execute_process(
    COMMAND ${MERCURIALCTL} recover --journal=${garbage}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE status)
if(NOT status EQUAL 1)
  message(FATAL_ERROR "recover of a garbage file exited with '${status}', expected 1\n${out}${err}")
endif()
if(NOT err MATCHES "DATA_LOSS")
  message(FATAL_ERROR "recover of a garbage file did not report DATA_LOSS:\n${err}")
endif()
