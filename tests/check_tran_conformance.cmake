# Adaptive-transient determinism through the CLI (ctest script).
#
# The adaptive integrator is tolerance-equal to fixed stepping but must be
# BIT-DETERMINISTIC against itself: the step-size controller runs serially
# inside one transient, so `--tran-mode adaptive` output may never depend
# on the thread count.  This script pins that end to end:
#   1. `oasys --spec S --verify --tran-mode adaptive` stdout is
#      byte-identical at --jobs 1, 2, 4.
#   2. With no --tran-mode flag the report is byte-identical to
#      `--tran-mode adaptive`: adaptive stepping is the built-in default.
#   3. The adaptive report differs from the fixed-step report (the two
#      modes are distinct engines; if they ever produced identical bytes
#      the mode plumbing would be dead).
#
# Expects: OASYS_CLI (path to the oasys binary), SPEC (spec file),
# WORK_DIR (writable scratch directory).
foreach(jobs 1 2 4)
  execute_process(
    COMMAND ${OASYS_CLI} --spec ${SPEC} --verify --tran-mode adaptive
            --jobs ${jobs}
    RESULT_VARIABLE rc
    OUTPUT_FILE ${WORK_DIR}/tran_adaptive_j${jobs}.out)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "oasys --tran-mode adaptive --jobs ${jobs} failed (exit ${rc})")
  endif()
  file(READ ${WORK_DIR}/tran_adaptive_j${jobs}.out out_j${jobs})
endforeach()

if(NOT out_j1 STREQUAL out_j2 OR NOT out_j1 STREQUAL out_j4)
  message(FATAL_ERROR
          "adaptive transient output differs across --jobs 1/2/4:\n"
          "--- jobs 1 ---\n${out_j1}\n--- jobs 2 ---\n${out_j2}\n"
          "--- jobs 4 ---\n${out_j4}")
endif()
message(STATUS "adaptive transient report byte-identical at --jobs 1/2/4")

execute_process(
  COMMAND ${OASYS_CLI} --spec ${SPEC} --verify
  RESULT_VARIABLE rc
  OUTPUT_FILE ${WORK_DIR}/tran_default.out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "oasys with no --tran-mode failed (exit ${rc})")
endif()
file(READ ${WORK_DIR}/tran_default.out out_default)
if(NOT out_default STREQUAL out_j1)
  message(FATAL_ERROR
          "the report with no --tran-mode differs from --tran-mode "
          "adaptive, the built-in default:\n--- default ---\n"
          "${out_default}\n--- adaptive ---\n${out_j1}")
endif()
message(STATUS "no --tran-mode is byte-identical to --tran-mode adaptive")

execute_process(
  COMMAND ${OASYS_CLI} --spec ${SPEC} --verify --tran-mode fixed
  RESULT_VARIABLE rc
  OUTPUT_FILE ${WORK_DIR}/tran_fixed.out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "oasys --tran-mode fixed failed (exit ${rc})")
endif()
file(READ ${WORK_DIR}/tran_fixed.out out_fixed)
if(out_fixed STREQUAL out_j1)
  message(FATAL_ERROR
          "fixed and adaptive reports are byte-identical — the transient "
          "mode selection is not reaching the simulator")
endif()
message(STATUS "fixed and adaptive engines produce distinct reports")
