# Cross-jobs determinism check for the metrics export (ctest script).
#
# Runs one synthesis + verification of the same spec at --jobs 1, 2, and 4,
# and one 8-sample yield analysis of it at the same settings (the sample
# fan-out and its sim.lu.* counts), and asserts the "deterministic"
# section of the metrics JSON is byte-identical across the three runs of
# each.  The "timing" section (durations, scheduling-derived gauges) is
# allowed to differ — that split is the contract documented in
# src/obs/export.h.
#
# Expects: OASYS_CLI (path to the oasys binary), SPEC (spec file),
# WORK_DIR (writable scratch directory).
foreach(mode verify yield)
  foreach(jobs 1 2 4)
    if(mode STREQUAL "verify")
      set(args --spec ${SPEC} --verify)
    else()
      set(args yield ${SPEC} --samples 8)
    endif()
    set(json ${WORK_DIR}/metrics_${mode}_jobs${jobs}.json)
    execute_process(
      COMMAND ${OASYS_CLI} ${args} --jobs ${jobs} --metrics-json ${json}
      RESULT_VARIABLE rc
      OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "oasys ${mode} --jobs ${jobs} failed (exit ${rc})")
    endif()
    file(READ ${json} doc)
    string(FIND "${doc}" "\"timing\"" cut)
    if(cut EQUAL -1)
      message(FATAL_ERROR
              "${mode} metrics JSON at jobs=${jobs} has no timing section")
    endif()
    # Everything before the timing section: the schema line plus the full
    # deterministic section.
    string(SUBSTRING "${doc}" 0 ${cut} prefix)
    set(det_${jobs} "${prefix}")
  endforeach()
  string(FIND "${det_1}" "\"sim.lu.analyses\"" lu)
  if(lu EQUAL -1)
    message(FATAL_ERROR "${mode} metrics JSON has no sim.lu.analyses")
  endif()

  foreach(jobs 2 4)
    if(NOT det_${jobs} STREQUAL det_1)
      message(FATAL_ERROR
              "${mode}: deterministic metrics differ between --jobs 1 and "
              "--jobs ${jobs}:\n--- jobs 1 ---\n${det_1}\n"
              "--- jobs ${jobs} ---\n${det_${jobs}}")
    endif()
  endforeach()
endforeach()
message(STATUS "deterministic metrics identical at --jobs 1/2/4 "
               "(verify and yield)")
