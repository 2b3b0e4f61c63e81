# Policy gate: one on-disk container format. Checkpoints, epoch segments
# and report-log segments are all FSNP section files
# (src/felip/snapshot/format.h), and the wire has no grid-config frame.
# Any of these names under src/ or tools/ is a test failure:
#   * the retired FESG epoch-segment format: its magic (0x46455347), its
#     salt and codec (`kEpochMagic`, `kEpochChecksumSalt`,
#     `EncodeEpochSegment`, `DecodeEpochSegment`);
#   * the retired FRLG report-log format: its magic (0x46524c47), header
#     and record reader (`EncodeSegmentHeader`, `SegmentParser`);
#   * the grid-config frame codec nothing sent (`EncodeGridConfig`,
#     `DecodeGridConfig`).
#
# Invoked by ctest as:
#   cmake -DSRC=<repo>/src -DTOOLS=<repo>/tools -P one_container_format.cmake

if(NOT DEFINED SRC OR NOT DEFINED TOOLS)
  message(FATAL_ERROR "pass -DSRC=<source tree> -DTOOLS=<tools tree>")
endif()

set(pattern
  "kEpochMagic|kEpochChecksumSalt|0x46455347|0x46524c47|SegmentParser"
  "|EncodeSegmentHeader|EncodeEpochSegment|DecodeEpochSegment"
  "|EncodeGridConfig|DecodeGridConfig")
string(CONCAT pattern ${pattern})
file(GLOB_RECURSE sources
  "${SRC}/*.cc" "${SRC}/*.h" "${TOOLS}/*.cc" "${TOOLS}/*.h")
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
    "A second on-disk container or an unsent wire codec under src/ or "
    "tools/ (write FSNP sections through felip/snapshot/format.h "
    "instead):\n${violations}")
endif()
message(STATUS "one on-disk container format under src/ and tools/")
