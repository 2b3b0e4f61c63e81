# `felip_server --epoch-inspect` on a directory that does not exist must
# report no segments and leave nothing on disk: inspection only reads.
# Usage: cmake -DSERVER=<felip_server> -DDIR=<scratch path> -P <this file>
file(REMOVE_RECURSE "${DIR}")
execute_process(
  COMMAND "${SERVER}" --epoch-inspect "--epoch-dir=${DIR}"
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "exit code ${rc}\n${out}${err}")
endif()
if(NOT out MATCHES "segments=0 skipped=0 next_seq=1")
  message(FATAL_ERROR "unexpected inspection output:\n${out}")
endif()
if(EXISTS "${DIR}")
  message(FATAL_ERROR "inspection created ${DIR}")
endif()
message("inspection of a missing directory created nothing")
