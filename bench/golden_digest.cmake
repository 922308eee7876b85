# Runs one bench and compares the SHA-1 of its output with a recorded
# digest, so "virtual time did not move" is a ctest rather than a manual
# cmp against a parent build.
#
#   cmake -DBIN=<exe> -DARGS="<args>" -DOUT=<file> [-DSTDOUT=ON]
#         -DSHA1=<hex> -P golden_digest.cmake
#
# With STDOUT=ON the bench's stdout is written to OUT; otherwise the bench
# writes OUT itself (e.g. through --trace=OUT in ARGS).
foreach(var BIN OUT SHA1)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "golden_digest.cmake: -D${var}=... is required")
  endif()
endforeach()
separate_arguments(args UNIX_COMMAND "${ARGS}")
file(REMOVE "${OUT}")
if(STDOUT)
  execute_process(COMMAND "${BIN}" ${args} RESULT_VARIABLE rc
                  OUTPUT_FILE "${OUT}")
else()
  execute_process(COMMAND "${BIN}" ${args} RESULT_VARIABLE rc
                  OUTPUT_QUIET)
endif()
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} ${ARGS} exited with ${rc}")
endif()
file(SHA1 "${OUT}" got)
if(NOT got STREQUAL SHA1)
  message(FATAL_ERROR "${OUT}: SHA-1 ${got}, expected ${SHA1}")
endif()
message(STATUS "${OUT}: SHA-1 ${got} as recorded")
