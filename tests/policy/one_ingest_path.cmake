# Policy gate: one ingest path per oracle. Reports reach a frequency
# oracle only through FrequencyOracle::IngestReports / IngestReport (the
# protocol's checks, then the server's Add()), whether they come from the
# network, the replay log or FelipPipeline::Collect's simulation. A
# second, buffered path (`BufferUserValue`, `FlushReports`, a server-side
# `AggregateReports`) anywhere under src/ is a test failure.
#
# Invoked by ctest as:
#   cmake -DSRC=<repo>/src -P one_ingest_path.cmake

if(NOT DEFINED SRC)
  message(FATAL_ERROR "pass -DSRC=<source tree to scan>")
endif()

file(GLOB_RECURSE sources "${SRC}/*.cc" "${SRC}/*.h")
set(violations "")
foreach(path IN LISTS sources)
  file(STRINGS "${path}" lines
       REGEX "AggregateReports|BufferUserValue|FlushReports")
  foreach(line IN LISTS lines)
    string(STRIP "${line}" line)
    string(APPEND violations "  ${path}: ${line}\n")
  endforeach()
endforeach()

if(NOT violations STREQUAL "")
  message(FATAL_ERROR
    "A second ingest path under src/ (feed oracles through "
    "FrequencyOracle::IngestReports instead):\n${violations}")
endif()
message(STATUS "one ingest path per oracle under src/")
