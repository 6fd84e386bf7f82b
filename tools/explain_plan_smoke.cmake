# Runs explain_plan (path in EXPLAIN_PLAN) and fails unless it exits 0 and
# its output shows a hoisted common result, a delta-restricted loop body,
# and one loop body with both.
#
#   cmake -DEXPLAIN_PLAN=build/examples/explain_plan \
#         -P tools/explain_plan_smoke.cmake

execute_process(COMMAND "${EXPLAIN_PLAN}"
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "explain_plan exited with ${rc}:\n${err}")
endif()
foreach(needle "__common#1" "delta-restricted"
        "[common results extracted] [delta-restricted]")
  string(FIND "${out}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "explain_plan output lacks '${needle}':\n${out}")
  endif()
endforeach()
