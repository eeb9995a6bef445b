# replay_check.cmake — the DES replay gate: runs
# `bench_exp_service --smoke --trace-out` twice and fails unless the two
# trace files are byte-identical.  No digest is pinned: the stress
# trace's Poisson arrivals go through libm, which may differ per host.
#
#   cmake -DBENCH=<bench_exp_service> -DOUT_DIR=<dir> -P replay_check.cmake
foreach(run first second)
  execute_process(
    COMMAND "${BENCH}" --smoke --trace-out "${OUT_DIR}/replay_${run}.json"
    WORKING_DIRECTORY "${OUT_DIR}"
    RESULT_VARIABLE status
    OUTPUT_QUIET)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "bench_exp_service (${run} run) exited ${status}")
  endif()
endforeach()
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files
          "${OUT_DIR}/replay_first.json" "${OUT_DIR}/replay_second.json"
  RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  message(FATAL_ERROR "two replays of one seed exported different traces")
endif()
