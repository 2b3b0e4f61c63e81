# Policy gate: no `switch` over a frequency-oracle Protocol outside
# src/felip/fo/. Every layer above fo/ must resolve protocols through the
# registry (fo/registry.h), so adding a protocol never needs out-of-layer
# edits.
#
# Invoked by ctest as:
#   cmake -DSRC=<repo>/src -P no_protocol_switch.cmake

if(NOT DEFINED SRC)
  message(FATAL_ERROR "pass -DSRC=<source tree to scan>")
endif()

file(GLOB_RECURSE sources "${SRC}/*.cc" "${SRC}/*.h")
set(violations "")
foreach(path IN LISTS sources)
  if(path MATCHES "/felip/fo/")
    continue()
  endif()
  file(READ "${path}" content)
  # One candidate per switch statement: the condition up to end of line.
  string(REGEX MATCHALL "switch[ \t]*\\([^\n]*" candidates "${content}")
  foreach(candidate IN LISTS candidates)
    if(candidate MATCHES "[Pp]rotocol")
      string(APPEND violations "  ${path}: ${candidate}\n")
    endif()
  endforeach()
endforeach()

if(NOT violations STREQUAL "")
  message(FATAL_ERROR
    "Protocol switch statements outside src/felip/fo/ (use the registry "
    "in fo/registry.h instead):\n${violations}")
endif()
message(STATUS "no Protocol switch statements outside src/felip/fo/")
