# Policy gate: one report value type and one ingest path per oracle.
# Reports reach a frequency oracle only through
# FrequencyOracle::IngestReports over a contiguous span of fo::ReportData
# (the protocol's checks, then the server's Add()), whether they come from
# the network, the replay log or FelipPipeline::Collect's simulation, and
# wire::ReportMessage is only an alias of fo::ReportData. Any of these
# under src/ is a test failure:
#   * a second, buffered path (`BufferUserValue`, `FlushReports`, a
#     server-side `AggregateReports`);
#   * a grid-run helper beside the pipeline (`GridRunIngester`);
#   * a span of report pointers (`ReportData* const`);
#   * a single-report entry point (`IngestReport(`; `IngestReports(` is
#     the one path and does not match);
#   * a `struct ReportMessage` of its own.
#
# Invoked by ctest as:
#   cmake -DSRC=<repo>/src -P one_ingest_path.cmake

if(NOT DEFINED SRC)
  message(FATAL_ERROR "pass -DSRC=<source tree to scan>")
endif()

set(pattern
  "AggregateReports|BufferUserValue|FlushReports|GridRunIngester"
  "|ReportData\\* const|IngestReport\\(|struct ReportMessage")
string(CONCAT pattern ${pattern})
file(GLOB_RECURSE sources "${SRC}/*.cc" "${SRC}/*.h")
set(violations "")
foreach(path IN LISTS sources)
  file(STRINGS "${path}" lines REGEX "${pattern}")
  foreach(line IN LISTS lines)
    string(STRIP "${line}" line)
    string(APPEND violations "  ${path}: ${line}\n")
  endforeach()
endforeach()

if(NOT violations STREQUAL "")
  message(FATAL_ERROR
    "A second ingest path or report type under src/ (feed oracles "
    "contiguous fo::ReportData runs through "
    "FrequencyOracle::IngestReports instead):\n${violations}")
endif()
message(STATUS "one ingest path per oracle under src/")
